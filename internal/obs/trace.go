// Package obs is the simulator's observability layer: a central metrics
// registry (named counters, gauges, and histograms that components register
// instead of growing ad-hoc fields) and a cycle-stamped event tracer with a
// bounded ring buffer, exportable as Chrome trace_event JSON (viewable in
// chrome://tracing or Perfetto) and as JSON Lines.
//
// Everything is nil-safe: a nil *Tracer, *Registry, *Counter, *Gauge, or
// *Histogram accepts every recording call as a no-op, so instrumented code
// pays only a nil check when observability is disabled. The enabled path is
// mutex/atomic protected, so concurrent emitters (e.g. several multicore
// systems sharing one Hub) are race-free.
package obs

import "sync"

// EventType classifies a trace event, mirroring the Chrome trace_event
// phases the exporter emits.
type EventType uint8

const (
	// EvInstant is a point-in-time event (phase "i").
	EvInstant EventType = iota
	// EvBegin opens a duration slice on its core track (phase "B").
	EvBegin
	// EvEnd closes the innermost open slice on its core track (phase "E").
	EvEnd
	// EvComplete is a self-contained slice with an explicit Dur (phase "X").
	EvComplete
	// EvCounter samples one or more named counter series (phase "C").
	EvCounter
)

// String returns the Chrome trace_event phase letter for the type.
func (t EventType) String() string {
	switch t {
	case EvInstant:
		return "i"
	case EvBegin:
		return "B"
	case EvEnd:
		return "E"
	case EvComplete:
		return "X"
	case EvCounter:
		return "C"
	default:
		return "?"
	}
}

// SystemTrack is the Core value for machine-wide events (power failure,
// checkpointing, recovery) that belong to no single core's track.
const SystemTrack = -1

// MaxEventArgs is the number of key/value slots an Event carries.
const MaxEventArgs = 4

// Arg is one key/value annotation of an event. Keys should be static
// strings so that emitting an event does not allocate. A zero Key marks an
// unused slot.
type Arg struct {
	Key string
	Val int64
}

// Event is one cycle-stamped trace record. Name and Cat should be static
// strings (package-level constants at the emit site); Args slots with empty
// keys are ignored. For round-trippable Chrome export, populate Args in
// ascending key order.
type Event struct {
	// Cycle is the simulation cycle the event is stamped with (the start
	// cycle for EvComplete).
	Cycle uint64
	// Dur is the slice length in cycles (EvComplete only).
	Dur uint64
	// Type selects the Chrome phase.
	Type EventType
	// Core is the emitting core's id, or SystemTrack.
	Core int
	// Name labels the event ("region", "region-barrier", "persist-drain").
	Name string
	// Cat is the event category ("region", "persist", "checkpoint", ...).
	Cat string
	// Args annotate the event.
	Args [MaxEventArgs]Arg
}

// Tracer records events into a ring buffer that grows on demand up to its
// capacity: when full, the oldest events are overwritten, so the buffer
// always holds the most recent window. A nil Tracer discards every Emit
// with only a nil check — the disabled fast path the simulator's hot loops
// rely on.
type Tracer struct {
	mu    sync.Mutex
	buf   []Event
	size  int  // capacity: buf grows on demand up to size events
	next  int  // next write position
	wrap  bool // buffer has wrapped at least once
	total uint64
}

// DefaultTraceCapacity is the ring capacity NewHub uses: a bound, not a
// preallocation, large enough to hold every event of a quickstart-scale run.
const DefaultTraceCapacity = 1 << 20

// NewTracer creates a tracer whose ring holds up to capacity events
// (minimum 1); the ring starts empty and grows on demand up to capacity.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{size: capacity}
}

// Emit records one event. Safe on a nil tracer and for concurrent callers.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.buf) < t.size {
		if len(t.buf) == cap(t.buf) { // double, but never past the bound
			t.buf = append(make([]Event, 0, min(max(2*cap(t.buf), 64), t.size)), t.buf...)
		}
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.wrap = true
	}
	t.next = (t.next + 1) % t.size
	t.total++
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns the number of events ever emitted, including overwritten
// ones.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.wrap {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Recent returns the n most recent events, oldest first (all buffered
// events when n <= 0 or exceeds the buffer). The /trace serve endpoint uses
// it to ship a bounded window instead of copying the whole ring.
func (t *Tracer) Recent(n int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.buf) {
		n = len(t.buf)
	}
	out := make([]Event, 0, n)
	if t.wrap {
		// Chronological order is buf[next:] then buf[:next]; the newest
		// events sit at the end of the second segment.
		if n <= t.next {
			out = append(out, t.buf[t.next-n:t.next]...)
		} else {
			out = append(out, t.buf[len(t.buf)-(n-t.next):]...)
			out = append(out, t.buf[:t.next]...)
		}
	} else {
		out = append(out, t.buf[len(t.buf)-n:]...)
	}
	return out
}

// Reset discards all buffered events (the emit total is kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.wrap = false
	t.mu.Unlock()
}
