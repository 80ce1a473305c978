package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuTime is the process's CPU time, all threads, user and system
// (CLOCK_PROCESS_CPUTIME_ID). On a shared virtual machine it leaves out
// the time the hypervisor ran other guests on this one's CPUs (steal),
// which the wall clock includes.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return wallFallback()
	}
	return time.Duration(ts.Nano())
}
