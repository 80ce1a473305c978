package workload

import (
	"math/bits"
	"math/rand"
)

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
// TestStreamMatchesMathRand checks it draw for draw. The generator draws
// from it through chances and spans (below): the draws Float64() < p,
// Intn(n) and Int63n(n) would make, at integer cost.
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

// Why the bounded draws are math/rand's: the generator draws at integer
// cost what it would draw with floats and divisions, and the draws are the
// same values, one for one:
//
//   - rand.Rand.Float64 scales one Int63 draw x to float64(x)/(1<<63) and
//     draws again while that rounds to 1. The scaling never decreases as x
//     grows, so Float64() < p holds exactly for the x below the least x
//     whose scaled value is not below p. A chance is that least x, found
//     once per probability by a binary search over the same expression,
//     and unit draws x as Float64 would, resampling the same draws.
//   - rand.Rand.Intn and Int63n reject the draws above a limit, then take
//     the rest modulo n (a mask for a power of two is the same remainder
//     under a limit that rejects nothing). A span holds that limit and a
//     fixed-point reciprocal of n, computed once per n, and its remainder
//     is the exact v % n.
//
// Each draw takes as many values from the stream as math/rand's would, so
// the stream stays where math/rand's would be. TestBoundedDrawsExact checks
// every probability and range the generator uses, and the bounds
// themselves at their edges.

// A chance is a probability p as a bound on unit's draw: the least x in
// [0, 1<<63) with !(float64(x)/(1<<63) < p), so unit() < chanceOf(p)
// exactly when Float64() < p. It is at most unitOne, the first draw that
// Float64 resamples.
type chance int64

// unitOne is the least Int63 value that Float64 scales to 1.
var unitOne = chance(leastNotBelow(1))

// chanceOf returns p's bound.
func chanceOf(p float64) chance { return min(chance(leastNotBelow(p)), unitOne) }

// leastNotBelow returns the least x in [0, 1<<63) whose Float64 scaling is
// not below p, or 1<<63 if there is none.
func leastNotBelow(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		x := lo + (hi-lo)/2
		if float64(x)/(1<<63) < p {
			lo = x + 1
		} else {
			hi = x
		}
	}
	return lo
}

// unit draws the Int63 value that Float64 would scale, taking as many
// values from the stream as Float64 does.
func (s *stream) unit() chance {
	for {
		if x := chance(s.Int63()); x < unitOne {
			return x
		}
	}
}

// hit reports Float64() < p for c = chanceOf(p).
func (s *stream) hit(c chance) bool { return s.unit() < c }

// A span is a range [0, n) fixed in advance: the draw of rand.Rand.Intn(n)
// or Int63n(n), with its rejection limit and reciprocal computed once.
type span struct {
	// shift is 32 on Intn's Int31n path (Int31 is Int63>>32), else 0.
	shift uint8
	// Draws above limit are rejected; recip is (2^64-1)/n.
	n, limit, recip uint64
}

// intnSpan is rand.Rand.Intn(n): Int31n below 2^31-1, Int63n above.
func intnSpan(n int) span {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > 1<<31-1 {
		return int63nSpan(int64(n))
	}
	m := uint64(n)
	return span{shift: 32, n: m, limit: 1<<31 - 1 - (1<<31)%m, recip: ^uint64(0) / m}
}

// int63nSpan is rand.Rand.Int63n(n).
func int63nSpan(n int64) span {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	m := uint64(n)
	return span{n: m, limit: 1<<63 - 1 - (1<<63)%m, recip: ^uint64(0) / m}
}

// draw returns the next value of sp's range. Its remainder is exact: with
// v < 2^63, the high word of v*recip is v/n or one less, so one
// subtraction of n at most corrects it.
func (s *stream) draw(sp *span) uint64 {
	v := uint64(s.Int63()) >> sp.shift
	for v > sp.limit {
		v = uint64(s.Int63()) >> sp.shift
	}
	q, _ := bits.Mul64(v, sp.recip)
	r := v - q*sp.n
	if r >= sp.n {
		r -= sp.n
	}
	return r
}
