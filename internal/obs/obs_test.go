package obs

import (
	"runtime"
	"strings"
	"testing"
)

func TestRegistryDoubleRegister(t *testing.T) {
	r := NewRegistry()
	if c := r.Counter("x"); c == nil || r.Counter("x") != c {
		t.Fatal("second Counter on same name: want the first counter")
	}
	if r.Gauge("x") != nil {
		t.Fatal("Gauge on counter name: want nil")
	}
	if h := r.Histogram("h"); h == nil || r.Histogram("h") != h {
		t.Fatal("second Histogram on same name: want the first histogram")
	}
	if r.Counter("h") != nil {
		t.Fatal("Counter on histogram name: want nil")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("runs")
	c1.Add(3)
	c2 := r.Counter("runs")
	if c1 != c2 {
		t.Fatal("get-or-create returned a different counter")
	}
	c2.Add(2)
	if got := c1.Value(); got != 5 {
		t.Fatalf("shared counter = %d, want 5", got)
	}
	// Kind mismatch degrades to a nil (no-op) metric, not a panic.
	g := r.Gauge("runs")
	if g != nil {
		t.Fatal("Gauge on counter name: want nil")
	}
	g.Set(1) // must not panic
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(2)
	r.BindGaugeFunc("d", func() float64 { return 3 })
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot: %v", s)
	}
}

func TestBindGaugeFuncRebinds(t *testing.T) {
	r := NewRegistry()
	r.BindGaugeFunc("live", func() float64 { return 1 })
	r.BindGaugeFunc("live", func() float64 { return 2 })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 2 {
		t.Fatalf("rebind: snapshot %v, want single value 2", snap)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{4, 2, 6} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Mean() != 4 {
		t.Fatalf("count=%d mean=%f, want 3 and 4", h.Count(), h.Mean())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	s := snap[0]
	if s.Min != 2 || s.Max != 6 || s.Sum != 12 || s.Count != 3 {
		t.Fatalf("histogram sample %+v", s)
	}
}

func TestSnapshotSortedAndJSONL(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Counter("a").Add(2)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "z" {
		t.Fatalf("snapshot not sorted: %v", snap)
	}
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"name":"a"`) {
		t.Fatalf("jsonl: %q", sb.String())
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: uint64(i), Name: "e"})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	// The ring keeps the most recent window, oldest first: cycles 6..9.
	checkCycles(t, "Events", tr.Events(), 6, 7, 8, 9)
	checkCycles(t, "Recent(2)", tr.Recent(2), 8, 9)
	checkCycles(t, "Recent(3)", tr.Recent(3), 7, 8, 9) // spans the wrap point
	checkCycles(t, "Recent(0)", tr.Recent(0), 6, 7, 8, 9)
	checkCycles(t, "Recent(99)", tr.Recent(99), 6, 7, 8, 9)
	tr.Reset()
	if tr.Len() != 0 || len(tr.Recent(2)) != 0 || tr.Dropped() != 10 {
		t.Fatalf("after Reset Len = %d, Recent(2) = %v, Dropped = %d, want 0, [], 10",
			tr.Len(), tr.Recent(2), tr.Dropped())
	}
	if tr.Total() != 10 {
		t.Fatalf("Total after Reset = %d, want 10 (emit total is kept)", tr.Total())
	}
	tr.Emit(Event{Cycle: 99})
	if evs := tr.Events(); len(evs) != 1 || evs[0].Cycle != 99 {
		t.Fatalf("post-reset events: %v", evs)
	}
	// Wrap the reset ring again: it keeps its bound and its recency window.
	for c := uint64(100); c < 105; c++ {
		tr.Emit(Event{Cycle: c})
	}
	if tr.Len() != 4 || tr.Dropped() != 12 {
		t.Fatalf("after re-wrap Len = %d, Dropped = %d, want 4, 12", tr.Len(), tr.Dropped())
	}
	checkCycles(t, "Recent(3) after re-wrap", tr.Recent(3), 102, 103, 104)
	checkCycles(t, "Events after re-wrap", tr.Events(), 101, 102, 103, 104)
}

// checkCycles asserts the events' cycles, in order.
func checkCycles(t *testing.T, what string, evs []Event, want ...uint64) {
	t.Helper()
	if len(evs) != len(want) {
		t.Fatalf("%s: %d events %v, want cycles %v", what, len(evs), evs, want)
	}
	for i, ev := range evs {
		if ev.Cycle != want[i] {
			t.Fatalf("%s: event %d cycle = %d, want cycles %v", what, i, ev.Cycle, want)
		}
	}
}

// TestTracerGrowsOnDemand: a ring's capacity is a bound, not a
// preallocation. A default hub costs kilobytes until it records events, the
// ring grows to exactly its capacity, and emitting into a full ring does
// not allocate.
func TestTracerGrowsOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewHub(0)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("NewHub(0) allocated %d bytes, want < 64 KiB", d)
	}

	tr := NewTracer(1000)
	for c := uint64(0); c < 2500; c++ {
		tr.Emit(Event{Cycle: c})
	}
	if tr.Len() != 1000 || cap(tr.buf) != 1000 {
		t.Fatalf("full ring Len = %d, cap = %d, want 1000, 1000", tr.Len(), cap(tr.buf))
	}
	if evs := tr.Events(); evs[0].Cycle != 1500 || evs[999].Cycle != 2499 {
		t.Fatalf("full ring holds cycles %d..%d, want 1500..2499", evs[0].Cycle, evs[999].Cycle)
	}
	if allocs := testing.AllocsPerRun(100, func() { tr.Emit(Event{Cycle: 1}) }); allocs != 0 {
		t.Fatalf("Emit into a full ring allocates %.1f times, want 0", allocs)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Cycle: 1})
	if tr.Len() != 0 || tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should be inert")
	}
	tr.Reset()
}

func TestHubNil(t *testing.T) {
	var h *Hub
	if h.Tracer() != nil || h.Registry() != nil {
		t.Fatal("nil hub accessors must return nil")
	}
	h2 := NewHub(16)
	if h2.Tracer() == nil || h2.Registry() == nil {
		t.Fatal("NewHub must populate both halves")
	}
}
