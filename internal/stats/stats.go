// Package stats provides the measurement plumbing shared by the simulator
// and the experiment harness: counters, cycle-sampled CDFs, per-region
// histograms, and geometric means for normalized slowdowns.
package stats

import (
	"math"
	"sort"
)

// CDF accumulates integer samples and reports their empirical cumulative
// distribution. It is used to reproduce Figure 5 (free physical registers
// sampled every cycle at the rename stage).
type CDF struct {
	counts map[int]uint64
	total  uint64
}

// NewCDF returns an empty CDF.
func NewCDF() *CDF { return &CDF{counts: make(map[int]uint64)} }

// CopyFrom makes c a copy of src, keeping c's map storage.
func (c *CDF) CopyFrom(src *CDF) {
	clear(c.counts)
	for v, n := range src.counts {
		c.counts[v] = n
	}
	c.total = src.total
}

// Add records one sample.
func (c *CDF) Add(v int) {
	c.counts[v]++
	c.total++
}

// AddN records n identical samples (cheap per-cycle sampling when the value
// did not change).
func (c *CDF) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	c.counts[v] += n
	c.total += n
}

// Total returns the number of samples.
func (c *CDF) Total() uint64 { return c.total }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum float64
	for v, n := range c.counts {
		sum += float64(v) * float64(n)
	}
	return sum / float64(c.total)
}

// Points returns the CDF as sorted (value, cumulative probability) pairs,
// suitable for plotting.
func (c *CDF) Points() []CDFPoint {
	keys := make([]int, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]CDFPoint, 0, len(keys))
	var cum uint64
	for _, k := range keys {
		cum += c.counts[k]
		out = append(out, CDFPoint{Value: k, P: float64(cum) / float64(c.total)})
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value int
	P     float64
}

// Histogram tracks a distribution of int64 observations with mean/max.
type Histogram struct {
	n    uint64
	sum  float64
	max  int64
	min  int64
	init bool
}

// Add records one observation.
func (h *Histogram) Add(v int64) {
	if !h.init {
		h.min, h.max, h.init = v, v, true
	} else {
		if v > h.max {
			h.max = v
		}
		if v < h.min {
			h.min = v
		}
	}
	h.n++
	h.sum += float64(v)
}

// N returns the observation count.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Max returns the maximum observation (0 when empty).
func (h *Histogram) Max() int64 {
	if !h.init {
		return 0
	}
	return h.max
}

// Min returns the minimum observation (0 when empty).
func (h *Histogram) Min() int64 {
	if !h.init {
		return 0
	}
	return h.min
}

// GeoMean returns the geometric mean of xs; it returns 0 for empty input and
// ignores non-positive entries (which would otherwise poison the product).
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Ratio safely divides a by b, returning 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// SampledEstimate accumulates SMARTS-style sampled-simulation extrapolation:
// each detailed window contributes its measured cycles directly, and the
// fast-forwarded stretch that follows it is charged at the window's
// cycles-per-instruction. The estimate is exact when the skipped stretch
// behaves like its adjacent window — the sampling-error bound the audit
// gate measures rather than assumes.
type SampledEstimate struct {
	DetailedCycles  uint64  // cycles actually simulated in windows
	DetailedInsts   uint64  // instructions committed inside windows
	SkippedInsts    uint64  // instructions fast-forwarded between windows
	EstimatedCycles float64 // DetailedCycles + extrapolated skip cycles
}

// AddWindow folds one detailed window and its following skipped stretch
// into the estimate. A window that committed nothing (possible only on a
// degenerate zero-length trace tail) contributes no extrapolation.
func (e *SampledEstimate) AddWindow(windowCycles, windowInsts, skippedInsts uint64) {
	e.DetailedCycles += windowCycles
	e.DetailedInsts += windowInsts
	e.SkippedInsts += skippedInsts
	e.EstimatedCycles += float64(windowCycles)
	if windowInsts > 0 {
		e.EstimatedCycles += float64(skippedInsts) * float64(windowCycles) / float64(windowInsts)
	}
}

// CPI returns the estimated whole-run cycles per instruction.
func (e *SampledEstimate) CPI() float64 {
	return Ratio(e.EstimatedCycles, float64(e.DetailedInsts+e.SkippedInsts))
}

// DetailedFraction returns the fraction of instructions simulated in
// detail — the sampling-cost knob (window/period).
func (e *SampledEstimate) DetailedFraction() float64 {
	return Ratio(float64(e.DetailedInsts), float64(e.DetailedInsts+e.SkippedInsts))
}
