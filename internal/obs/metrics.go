package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil Counter discards
// updates, so components can hold one unconditionally.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric. A nil Gauge discards updates.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: HDR-style base-2 buckets with histSubBuckets
// linear sub-buckets per power of two. Values below histSubBuckets land in
// exact unit buckets; above that, each octave is split into histSubBuckets
// equal slices, bounding the relative quantile error at
// 1/histSubBuckets (12.5%). The fixed bucket array keeps Observe
// allocation-free, which the simulator's hot loops rely on.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	histNumBuckets = (64-histSubBits)*histSubBuckets + histSubBuckets
)

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1
	g := e - histSubBits + 1
	sub := (v >> (e - histSubBits)) & (histSubBuckets - 1)
	return int(g)<<histSubBits | int(sub)
}

// histBucketUpper returns the largest value that maps to bucket i.
func histBucketUpper(i int) uint64 {
	if i < histSubBuckets {
		return uint64(i)
	}
	g := uint(i) >> histSubBits
	sub := uint64(i) & (histSubBuckets - 1)
	e := g + histSubBits - 1
	return 1<<e + (sub+1)<<(e-histSubBits) - 1
}

// Histogram tracks count/sum/min/max plus a bucketed distribution of
// observations, so snapshots can report quantiles (p50/p95/p99). Values are
// clamped to non-negative integers — the simulator observes cycle counts. A
// nil Histogram discards updates.
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     float64
	min     float64
	max     float64
	buckets [histNumBuckets]uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations in one locked update, which is
// what the persist path uses to attribute a drained line's latency to every
// store coalesced into it.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * float64(n)
	h.buckets[histBucket(uint64(v))] += n
	h.mu.Unlock()
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= rank {
			v := float64(histBucketUpper(i))
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// merge folds src's distribution into h. src's state is copied out under its
// own lock first, so concurrent merges between distinct histograms cannot
// deadlock.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	src.mu.Lock()
	count, sum, mn, mx := src.count, src.sum, src.min, src.max
	buckets := src.buckets
	src.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	if h.count == 0 || mn < h.min {
		h.min = mn
	}
	if h.count == 0 || mx > h.max {
		h.max = mx
	}
	h.count += count
	h.sum += sum
	for i := range buckets {
		h.buckets[i] += buckets[i]
	}
	h.mu.Unlock()
}

// Count returns the observation count.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// metricKind tags a registry entry.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
	// kindGaugeFuncLive is a gauge function whose fn is safe to call at any
	// moment (runtime stats, ring-buffer counters) — unlike kindGaugeFunc,
	// which reads unsynchronized simulator state and is only sampled when
	// the system is quiescent. Live gauge funcs appear in SnapshotLive and
	// Export, sampled at call time.
	kindGaugeFuncLive
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindGaugeFunc, kindGaugeFuncLive:
		return "gauge"
	default:
		return "?"
	}
}

type metric struct {
	kind metricKind
	ctr  *Counter
	gau  *Gauge
	hist *Histogram
	fn   func() float64
}

// Registry is the central table of named metrics. Counter, Gauge and
// Histogram create a metric on first use and return the existing one so
// long as the kind matches, which lets sequential runs share one Hub
// (their values then accumulate). BindGaugeFunc rebinds on
// re-registration — last system wins — because a gauge function is a live
// view of whichever system currently backs it. A nil Registry accepts every call and hands back nil metrics.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	// sampled names metrics whose values are extrapolated from sampled
	// simulation windows rather than measured over the whole run; their
	// snapshot samples carry Sampled: true so downstream consumers can
	// tell an estimate from a measurement.
	sampled map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: make(map[string]*metric)} }

// register returns the named metric, creating it on first use, or nil when
// the name is bound to a different kind.
func (r *Registry) register(name string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			return nil
		}
		return m
	}
	m := &metric{kind: kind}
	switch kind {
	case kindCounter:
		m.ctr = &Counter{}
	case kindGauge:
		m.gau = &Gauge{}
	case kindHistogram:
		m.hist = &Histogram{}
	}
	r.metrics[name] = m
	return m
}

// Counter returns the named counter, creating it on first use. It returns
// nil (a no-op counter) when the name is bound to a different metric kind.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if m := r.register(name, kindCounter); m != nil {
		return m.ctr
	}
	return nil
}

// Gauge returns the named gauge, creating it on first use. It returns nil
// when the name is bound to a different metric kind.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if m := r.register(name, kindGauge); m != nil {
		return m.gau
	}
	return nil
}

// Histogram returns the named histogram, creating it on first use. It
// returns nil when the name is bound to a different metric kind.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if m := r.register(name, kindHistogram); m != nil {
		return m.hist
	}
	return nil
}

// BindGaugeFunc registers (or rebinds) a gauge sampled by calling fn at
// snapshot time. Snapshot must only be called when the system backing fn is
// quiescent; the registry does not serialize fn against the simulator.
func (r *Registry) BindGaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.kind == kindGaugeFunc {
		m.fn = fn
		return
	}
	r.metrics[name] = &metric{kind: kindGaugeFunc, fn: fn}
}

// BindLiveGaugeFunc registers (or rebinds) a gauge whose fn is safe to call
// at any moment — Go runtime statistics, atomic ring counters — with no
// quiescence requirement. Unlike BindGaugeFunc metrics, live gauge funcs
// are included in SnapshotLive and in the wire Export (sampled at export
// time), so they travel to a fleet coordinator as plain gauges.
func (r *Registry) BindLiveGaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok && m.kind == kindGaugeFuncLive {
		m.fn = fn
		return
	}
	r.metrics[name] = &metric{kind: kindGaugeFuncLive, fn: fn}
}

// Sample is one metric's exported state.
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	// Sampled marks a value extrapolated from sampled-simulation windows
	// (marked via Registry.MarkSampled) rather than measured end to end.
	Sampled bool `json:"sampled,omitempty"`
	// Histogram-only fields.
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot returns every metric's current state, sorted by name. Gauge
// functions are invoked, so call only while the instrumented system is
// quiescent.
func (r *Registry) Snapshot() []Sample { return r.snapshot(true) }

// SnapshotLive is Snapshot minus gauge-function metrics. Gauge functions
// read live simulator state without synchronization, so this is the variant
// the HTTP serve path uses while a run is in flight; counters, gauges, and
// histograms are atomic/mutex-protected and always safe to read.
func (r *Registry) SnapshotLive() []Sample { return r.snapshot(false) }

// MarkSampled tags a metric name as sampled-extrapolated: its snapshot
// samples carry Sampled: true. Marking a name that is never registered is
// harmless.
func (r *Registry) MarkSampled(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.sampled == nil {
		r.sampled = make(map[string]bool)
	}
	r.sampled[name] = true
	r.mu.Unlock()
}

func (r *Registry) snapshot(gaugeFuncs bool) []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		if !gaugeFuncs && r.metrics[n].kind == kindGaugeFunc {
			continue
		}
		names = append(names, n)
	}
	ms := make([]*metric, 0, len(names))
	sort.Strings(names)
	sampled := make([]bool, 0, len(names))
	for _, n := range names {
		ms = append(ms, r.metrics[n])
		sampled = append(sampled, r.sampled[n])
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(names))
	for i, n := range names {
		m := ms[i]
		s := Sample{Name: n, Kind: m.kind.String(), Sampled: sampled[i]}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.ctr.Value())
		case kindGauge:
			s.Value = m.gau.Value()
		case kindGaugeFunc, kindGaugeFuncLive:
			s.Value = m.fn()
		case kindHistogram:
			h := m.hist
			h.mu.Lock()
			s.Count, s.Sum, s.Min, s.Max = h.count, h.sum, h.min, h.max
			s.P50 = h.quantileLocked(0.50)
			s.P95 = h.quantileLocked(0.95)
			s.P99 = h.quantileLocked(0.99)
			h.mu.Unlock()
			if s.Count > 0 {
				s.Value = s.Sum / float64(s.Count)
			}
		}
		out = append(out, s)
	}
	return out
}

// Merge folds src's metrics into r: counters and histograms accumulate,
// plain gauges take src's value, and gauge functions are skipped (they are
// live views of src's — possibly dead — backing system). Counter and
// histogram merging is commutative, so folding per-worker sweep hubs into
// one registry yields the same totals regardless of which worker ran which
// point. Names bound to different kinds in the two registries are skipped.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	names := make([]string, 0, len(src.metrics))
	for n := range src.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ms := make([]*metric, 0, len(names))
	for _, n := range names {
		ms = append(ms, src.metrics[n])
	}
	src.mu.Unlock()

	for i, n := range names {
		m := ms[i]
		switch m.kind {
		case kindCounter:
			if v := m.ctr.Value(); v != 0 {
				r.Counter(n).Add(v)
			}
		case kindGauge:
			r.Gauge(n).Set(m.gau.Value())
		case kindHistogram:
			r.Histogram(n).merge(m.hist)
		}
	}

	src.mu.Lock()
	marks := make([]string, 0, len(src.sampled))
	for n := range src.sampled {
		marks = append(marks, n)
	}
	src.mu.Unlock()
	for _, n := range marks {
		r.MarkSampled(n)
	}
}

// WriteJSONL writes the snapshot as one JSON object per line.
func (r *Registry) WriteJSONL(w io.Writer) error {
	for _, s := range r.Snapshot() {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// Hub bundles the two halves of the observability layer so a single value
// can be threaded through the machine configuration. A nil Hub disables
// everything.
type Hub struct {
	Metrics *Registry
	Trace   *Tracer
}

// NewHub returns a hub with a fresh registry and a tracer of the given ring
// capacity (DefaultTraceCapacity when <= 0); the ring grows on demand up to
// that capacity, so an idle hub is cheap. The registry carries a live
// "trace.dropped" gauge over the tracer's overwrite count, so a truncated
// trace ring is visible in every metrics view instead of failing silently.
func NewHub(traceCapacity int) *Hub {
	if traceCapacity <= 0 {
		traceCapacity = DefaultTraceCapacity
	}
	h := &Hub{Metrics: NewRegistry(), Trace: NewTracer(traceCapacity)}
	tr := h.Trace
	h.Metrics.BindLiveGaugeFunc("trace.dropped", func() float64 { return float64(tr.Dropped()) })
	return h
}

// Tracer returns the hub's tracer (nil for a nil hub).
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.Trace
}

// Registry returns the hub's metrics registry (nil for a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.Metrics
}

// Merge folds src's metrics into h (see Registry.Merge). Trace rings are not
// merged: a ring is a per-hub recency window, and interleaving windows from
// different workers would fabricate an ordering that never existed.
func (h *Hub) Merge(src *Hub) {
	if h == nil || src == nil {
		return
	}
	h.Metrics.Merge(src.Metrics)
}
