package workload

import "math/rand"

// math/rand's source is an additive lagged-Fibonacci generator: its n-th
// 64-bit output is y[n] = y[n-streamLen] + y[n-streamTap] (mod 2^64).
const (
	streamLen = 607
	streamTap = 273
)

// stream is the seeded value stream of rand.New(rand.NewSource(seed)),
// drawn without an interface call per value. Every trace is generated from
// it, so its values must stay exactly math/rand's: Go 1 compatibility fixes
// that stream (see the comments on Rand.Float64 and Rand.int31n), and
// TestStreamMatchesMathRand checks it draw for draw.
type stream struct {
	// vec holds the last streamLen outputs: vec[i] is the oldest, y[n-607],
	// and vec[j], j = i+streamLen-streamTap, is y[n-273].
	vec  [streamLen]uint64
	i, j int
}

// newStream returns the stream of rand.NewSource(seed). It primes vec with
// the source's first streamLen outputs, then runs the recurrence backwards
// in place, y[k-607] = y[k] - y[k-273], so that the first draws replay
// those outputs and the later ones continue them.
func newStream(seed int64) *stream {
	s := &stream{j: streamLen - streamTap}
	src := rand.NewSource(seed).(rand.Source64)
	for k := range s.vec {
		s.vec[k] = src.Uint64()
	}
	for k := streamLen - 1; k >= 0; k-- {
		s.vec[k] -= s.vec[(k+streamLen-streamTap)%streamLen]
	}
	return s
}

func (s *stream) uint64() uint64 {
	x := s.vec[s.i] + s.vec[s.j]
	s.vec[s.i] = x
	if s.i++; s.i == streamLen {
		s.i = 0
	}
	if s.j++; s.j == streamLen {
		s.j = 0
	}
	return x
}

// Int63 is rand.Rand.Int63.
func (s *stream) Int63() int64 { return int64(s.uint64() & (1<<63 - 1)) }

// Float64 is rand.Rand.Float64: Int63 scaled to [0, 1), resampled in the
// rare case that the division rounds up to 1.
func (s *stream) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Int63n is rand.Rand.Int63n: a mask for a power of two, otherwise
// rejection of the top partial range.
func (s *stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	limit := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return v % n
}

// Intn is rand.Rand.Intn: Int31n below 2^31-1, Int63n above.
func (s *stream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int(s.Int63n(int64(n)))
	}
	// rand.Rand.Int31n over Int31 = Int63>>32.
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(s.Int63()>>32) & (m - 1))
	}
	limit := int32(1<<31 - 1 - (1<<31)%uint32(m))
	v := int32(s.Int63() >> 32)
	for v > limit {
		v = int32(s.Int63() >> 32)
	}
	return int(v % m)
}
