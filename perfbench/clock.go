package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// CPU-time clocks of clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// phase is the host cost of one phase of a repetition: wall-clock time,
// and CPU time. On a virtual machine the wall clock also counts the
// time the hypervisor runs other guests, which varies from minute to
// minute; CPU time does not, so it is what the benchmark gates on.
type phase struct {
	wall, cpu time.Duration
}

// threadPhase runs f, a phase executed by the calling goroutine alone,
// locked to its OS thread, and returns its wall time and the CPU time
// of that thread — exact even for phases of a few milliseconds.
func threadPhase(f func() error) (phase, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w0, c0 := time.Now(), cpuTime(clockThreadCPU)
	err := f()
	return phase{time.Since(w0), cpuTime(clockThreadCPU) - c0}, err
}

// processPhase runs f and returns its wall time and the CPU time of the
// whole process: the simulation kernel, the goroutines it hands off to,
// and the garbage collector's workers.
func processPhase(f func()) phase {
	w0, c0 := time.Now(), cpuTime(clockProcessCPU)
	f()
	return phase{time.Since(w0), cpuTime(clockProcessCPU) - c0}
}

// cpuTime reads a CPU-time clock to the nanosecond. getrusage(2) would
// do for the process, but for one thread it splits the time into user
// and system parts by scheduler ticks and never lets either go back, so
// a phase of a few milliseconds reads as whole 4 ms ticks.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	// clock_gettime fails only for an invalid clock id.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
