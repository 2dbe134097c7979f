package main

import "time"

// The timed runs read CPU clocks, not the wall clock. On a shared host
// the wall clock also counts the time the benchmark's CPU spent on
// someone else (run-queue waits and hypervisor steal), which spread a
// schemes pass by ±15% between runs of the same code; a CPU clock
// leaves both out. Work done on one goroutine is timed on its thread's
// clock (run locks the goroutine to its thread, so collector workers on
// other threads are not counted); work spread over the runner's
// workers is timed on the process clock.

// cpuSpan is the CPU time one interval used on one clock.
type cpuSpan struct {
	clock func() time.Duration
	start time.Duration
}

// startThread starts timing the calling thread.
func startThread() cpuSpan { return cpuSpan{threadCPU, threadCPU()} }

// startProcess starts timing the whole process.
func startProcess() cpuSpan { return cpuSpan{processCPU, processCPU()} }

// elapsed is the CPU time used since the span started.
func (s cpuSpan) elapsed() time.Duration { return s.clock() - s.start }
