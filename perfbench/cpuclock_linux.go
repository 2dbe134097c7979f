package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuClockKind names the clocks the timed runs read, for the report.
const cpuClockKind = "CPU time (thread clock for one-goroutine work, process clock for the runner pool)"

const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// readClock reads one of the kernel's CPU-time clocks.
func readClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration { return readClock(clockThreadCPUTime) }

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration { return readClock(clockProcessCPUTime) }
