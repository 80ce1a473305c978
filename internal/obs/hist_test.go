package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Quantile returns an upper-bound estimate of the q-quantile (relative
// error <= 12.5%), clamped into [min, max]. It returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// TestHistBucketBoundaries checks the bucket index function against its
// inverse: every value must land in a bucket whose upper bound is the
// smallest one >= the value, and bucket upper bounds must be strictly
// increasing so cumulative walks are well defined.
func TestHistBucketBoundaries(t *testing.T) {
	// Exhaustive over the linear range and the first octaves, then spot
	// checks at powers of two and the extremes.
	var vals []uint64
	for v := uint64(0); v < 4096; v++ {
		vals = append(vals, v)
	}
	for e := 12; e < 64; e++ {
		p := uint64(1) << e
		vals = append(vals, p-1, p, p+1, p+p/2)
	}
	vals = append(vals, math.MaxUint64)

	for _, v := range vals {
		i := histBucket(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("histBucket(%d) = %d out of range [0, %d)", v, i, histNumBuckets)
		}
		if up := histBucketUpper(i); v > up {
			t.Errorf("value %d above its bucket %d upper bound %d", v, i, up)
		}
		if i > 0 {
			if lo := histBucketUpper(i - 1); v <= lo {
				t.Errorf("value %d not above bucket %d's lower fence %d", v, i, lo)
			}
		}
	}

	var last uint64
	for i := 0; i < histNumBuckets; i++ {
		up := histBucketUpper(i)
		if i > 0 && up <= last {
			t.Fatalf("bucket %d upper %d not increasing (prev %d)", i, up, last)
		}
		last = up
		// Round trip: a bucket's upper bound must map back to the bucket.
		if got := histBucket(up); got != i {
			t.Fatalf("histBucket(histBucketUpper(%d)=%d) = %d", i, up, got)
		}
	}
}

// TestHistogramQuantileError feeds known distributions and checks the
// quantile estimates stay within the log2-with-3-sub-bits design error of
// 12.5% relative, and that min/max/count/sum are exact.
func TestHistogramQuantileError(t *testing.T) {
	dists := map[string]func(r *rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return float64(r.Intn(10_000)) },
		"exp":       func(r *rand.Rand) float64 { return math.Floor(r.ExpFloat64() * 500) },
		"bimodal":   func(r *rand.Rand) float64 { return float64(r.Intn(10) + r.Intn(2)*5000) },
		"constant":  func(r *rand.Rand) float64 { return 42 },
		"heavytail": func(r *rand.Rand) float64 { return math.Floor(math.Pow(2, r.Float64()*20)) },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			var h Histogram
			var vals []float64
			var sum float64
			const n = 20_000
			for i := 0; i < n; i++ {
				v := gen(r)
				h.Observe(v)
				vals = append(vals, v)
				sum += v
			}
			sort.Float64s(vals)

			if h.Count() != n {
				t.Fatalf("count = %d, want %d", h.Count(), n)
			}
			if got := h.Mean(); math.Abs(got-sum/n) > 1e-6*math.Abs(sum/n)+1e-9 {
				t.Errorf("mean = %g, want %g", got, sum/n)
			}
			for _, q := range []float64{0, 0.00001, 0.5, 0.95, 0.99, 1} {
				exact := exactQuantile(vals, q)
				got := h.Quantile(q)
				// Bucket upper bounds overestimate by at most one sub-bucket
				// width: 1/8 of the value's octave, i.e. <= 12.5% relative.
				lo, hi := exact, exact*1.125+1
				if got < lo || got > hi {
					t.Errorf("q%.2f = %g, want within [%g, %g] (exact %g)", q, got, lo, hi, exact)
				}
			}
			if got := h.Quantile(0); got != vals[0] {
				t.Errorf("q0 = %g, want min %g", got, vals[0])
			}
			if got := h.Quantile(1); got != vals[n-1] {
				t.Errorf("q1 = %g, want max %g", got, vals[n-1])
			}
		})
	}
}

// exactQuantile is the reference quantile over a sorted sample: the
// smallest value with at least ceil(q*n) observations at or below it. The
// index is clamped to [0, n-1] — ceil(q*n)-1 is -1 at q=0 (a panic) and
// underreads by one rank whenever q*n < 1, both of which bit this helper
// before it was extracted.
func exactQuantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > len(sorted)-1 {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestQuantileEdgesThroughExposition audits the p0/p100 edge through the
// exposition layers: direct Quantile calls at 0 and 1, the registry
// snapshot, and the Prometheus text writer must all survive empty,
// single-value, and populated histograms without panicking, and the edge
// quantiles must pin to min/max.
func TestQuantileEdgesThroughExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty")
	r.Histogram("single").Observe(42)
	pop := r.Histogram("populated")
	for i := 1; i <= 100; i++ {
		pop.Observe(float64(i))
	}

	for name, h := range map[string]*Histogram{
		"empty": r.Histogram("empty"), "single": r.Histogram("single"), "populated": pop,
	} {
		for _, q := range []float64{0, 1, -0.5, 1.5} {
			got := h.Quantile(q) // must not panic; <=0 pins to min, >=1 to max
			switch {
			case name == "empty" && got != 0:
				t.Errorf("empty q%g = %g, want 0", q, got)
			case name == "single" && got != 42:
				t.Errorf("single q%g = %g, want 42", q, got)
			case name == "populated" && q <= 0 && got != 1:
				t.Errorf("populated q%g = %g, want min 1", q, got)
			case name == "populated" && q >= 1 && got != 100:
				t.Errorf("populated q%g = %g, want max 100", q, got)
			}
		}
	}

	samples := r.Snapshot()
	if len(samples) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(samples))
	}
	var buf bytes.Buffer
	if err := WritePrometheusSamples(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `quantile="0.95"`) {
		t.Errorf("exposition lacks summary quantiles:\n%s", buf.String())
	}
}

// TestHistogramEdgeCases: empty, negative clamp, single value.
func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	h.Observe(-5) // clamps to 0
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("after clamped negative, q99 = %g, want 0", got)
	}
	var one Histogram
	one.Observe(777)
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := one.Quantile(q); got != 777 {
			t.Errorf("single-value q%g = %g, want 777", q, got)
		}
	}
	var batched Histogram
	batched.ObserveN(10, 3)
	if batched.Count() != 3 || batched.Mean() != 10 {
		t.Errorf("ObserveN: count=%d mean=%g, want 3, 10", batched.Count(), batched.Mean())
	}
}

// TestRegistryMergeDeterministic splits one logical workload across N
// per-worker registries in every permutation of merge order and demands
// bit-identical snapshots — the property the parallel torture sweep's
// per-worker hub merge relies on.
func TestRegistryMergeDeterministic(t *testing.T) {
	build := func(seed int64) *Registry {
		reg := NewRegistry()
		r := rand.New(rand.NewSource(seed))
		reg.Counter("points").Add(uint64(seed) * 3)
		h := reg.Histogram("latency")
		for i := 0; i < 1000; i++ {
			h.Observe(float64(r.Intn(5000)))
		}
		reg.Gauge("last-seed").Set(float64(seed))
		return reg
	}

	snapshotAfterMerge := func(order []int) string {
		dst := NewRegistry()
		for _, seed := range order {
			dst.Merge(build(int64(seed)))
		}
		var s string
		for _, sm := range dst.Snapshot() {
			if sm.Name == "last-seed" {
				continue // gauge merge is last-wins: order-dependent by design
			}
			s += fmt.Sprintf("%+v\n", sm)
		}
		return s
	}

	want := snapshotAfterMerge([]int{1, 2, 3})
	for _, order := range [][]int{{1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}} {
		if got := snapshotAfterMerge(order); got != want {
			t.Fatalf("merge order %v changed the snapshot:\n--- want\n%s--- got\n%s", order, want, got)
		}
	}
}

// TestHubMergeConcurrent merges worker hubs into a shared hub while other
// workers still write to their own — the torture sweep shape — under -race.
func TestHubMergeConcurrent(t *testing.T) {
	main := NewHub(0)
	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes Merge calls like the sweep loop does
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wh := NewHub(0)
			h := wh.Registry().Histogram("latency")
			c := wh.Registry().Counter("points")
			for i := 0; i < 2000; i++ {
				h.Observe(float64(i % 97))
				c.Inc()
				main.Registry().Counter("live").Inc() // cross-hub live tick
			}
			mu.Lock()
			main.Merge(wh)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if got := main.Registry().Counter("points").Value(); got != workers*2000 {
		t.Errorf("merged points = %d, want %d", got, workers*2000)
	}
	if got := main.Registry().Counter("live").Value(); got != workers*2000 {
		t.Errorf("live ticks = %d, want %d", got, workers*2000)
	}
	if got := main.Registry().Histogram("latency").Count(); got != workers*2000 {
		t.Errorf("merged histogram count = %d, want %d", got, workers*2000)
	}
}
