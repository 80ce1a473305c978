// Package power provides deterministic power-failure injection schedules.
// The paper's evaluation assumes failures can strike at any cycle; these
// schedules let tests and examples sweep failure points reproducibly.
package power

import "math/rand"

// Schedule yields the cycles at which power failures strike.
type Schedule interface {
	// Next returns the next failure cycle strictly after the given cycle,
	// and ok=false when no further failures are scheduled.
	Next(after uint64) (cycle uint64, ok bool)
}

// Every fails periodically with the given period, starting at Offset.
type Every struct {
	Period uint64
	Offset uint64
}

// Next implements Schedule.
func (e Every) Next(after uint64) (uint64, bool) {
	if e.Period == 0 {
		return 0, false
	}
	if after < e.Offset {
		return e.Offset, true
	}
	k := (after-e.Offset)/e.Period + 1
	return e.Offset + k*e.Period, true
}

// Random yields n failures uniformly distributed in [min, max), generated
// deterministically from a seed and returned in increasing order.
type Random struct {
	cycles []uint64
	idx    int
}

// NewRandom builds a Random schedule.
func NewRandom(seed int64, n int, min, max uint64) *Random {
	if max <= min {
		max = min + 1
	}
	rng := rand.New(rand.NewSource(seed))
	r := &Random{cycles: make([]uint64, 0, n)}
	for i := 0; i < n; i++ {
		r.cycles = append(r.cycles, min+uint64(rng.Int63n(int64(max-min))))
	}
	// Insertion sort: n is small and we need determinism, not speed.
	for i := 1; i < len(r.cycles); i++ {
		for j := i; j > 0 && r.cycles[j] < r.cycles[j-1]; j-- {
			r.cycles[j], r.cycles[j-1] = r.cycles[j-1], r.cycles[j]
		}
	}
	return r
}

// Next implements Schedule.
func (r *Random) Next(after uint64) (uint64, bool) {
	for r.idx < len(r.cycles) {
		c := r.cycles[r.idx]
		r.idx++
		if c > after {
			return c, true
		}
	}
	return 0, false
}
