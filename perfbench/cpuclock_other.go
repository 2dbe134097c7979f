//go:build !linux

package main

import "time"

// cpuClockKind names the clocks the timed runs read, for the report.
// Without Linux's per-thread clocks the timed runs fall back to the
// wall clock.
const cpuClockKind = "wall clock (no CPU-time clocks on this system)"

var clockBase = time.Now()

// threadCPU stands in for the thread's CPU clock with wall time.
func threadCPU() time.Duration { return time.Since(clockBase) }

// processCPU stands in for the process's CPU clock with wall time.
func processCPU() time.Duration { return time.Since(clockBase) }
