//go:build race

package multicore_test

// raceEnabled reports whether the race detector is compiled in. The
// cycle-by-cycle promise checks skip under -race: they run on one
// goroutine, so the detector has nothing to watch, and its
// instrumentation of every fingerprinted field would take minutes.
const raceEnabled = true
