//go:build !linux

package main

import "time"

// cpuTime falls back to the wall clock where the process CPU clock is not
// wired up.
func cpuTime() time.Duration { return wallFallback() }
