package px86

import (
	"fmt"
	"sort"
)

// Violation is a persist-ordering rule violation detected by the Tracker.
// The lockstep oracle, the Tracker's only user, wraps it into its own
// report type. The litmus harness does not use the Tracker: its recorder
// checks the compiled model's per-core rules itself.
type Violation struct {
	Kind   string `json:"kind"`
	Core   int    `json:"core"`
	Cycle  uint64 `json:"cycle"`
	Addr   uint64 `json:"addr"`
	Seq    int    `json:"seq"`
	Got    uint64 `json:"got"`
	Want   uint64 `json:"want"`
	Detail string `json:"detail"`
}

// pending is a committed-but-not-yet-durable store.
type pending struct {
	core int
	seq  int
	val  uint64
}

// Tracker checks a live commit/accept event stream against the model's
// per-core persist rules. It is the operational form of the ⊑ relation
// (see the package comment): instead of enumerating outcomes up front it
// consumes the machine's own event order and verifies, incrementally,
// that the order is a legal linearization.
//
// Rules enforced, and the model axiom each one operationalizes:
//
//   - Coalescing subsumption: an accepted value retires every *older*
//     committed store to the same word (per-location order: a newer
//     same-address store persisting implies the older ones can never
//     persist afterwards, because s_old ⊑ s_new — they are "absorbed").
//     An accept whose value matches no outstanding store and is not an
//     idempotent re-accept of the current durable value is counted in
//     Unmatched (eviction writebacks replay old line images legally).
//   - Idempotent re-accept: persisting the currently-durable value again
//     is a no-op in the model (same last-writer snapshot), so it is
//     never a violation and never re-arms outstanding state.
//   - Barrier drain: when a region boundary completes, every store the
//     boundary observed at arm time (the snapshot) must be durable —
//     the barrier axiom s_i ⊑ s_j for i < barrier <= j, specialized to
//     the machine's own completion signal.
//
// Cross-core accepted-value interleaving is deliberately unconstrained,
// matching the model's lack of inter-core persist edges.
type Tracker struct {
	// outstanding maps a word address to its committed, not-yet-durable
	// stores in commit order.
	outstanding map[uint64][]pending
	// lastDurable is the newest NVM-accepted value per word.
	lastDurable map[uint64]uint64
	// armed is each core's barrier snapshot: word -> newest outstanding
	// seq at arm time. nil when no barrier is in flight.
	armed []map[uint64]int

	// Accepts, Barriers, and Unmatched count processed accept words,
	// completed barriers, and accepts that matched no outstanding store
	// (legal: eviction writebacks and line-granular re-persists).
	Accepts   uint64
	Barriers  uint64
	Unmatched uint64

	viol *Violation
}

// NewTracker returns a Tracker for a machine with the given core count.
func NewTracker(cores int) *Tracker {
	return &Tracker{
		outstanding: make(map[uint64][]pending),
		lastDurable: make(map[uint64]uint64),
		armed:       make([]map[uint64]int, cores),
	}
}

// CopyFrom makes t a copy of src, a tracker for as many cores, sharing no
// mutable storage with it.
func (t *Tracker) CopyFrom(src *Tracker) {
	clear(t.outstanding)
	for addr, q := range src.outstanding {
		t.outstanding[addr] = append([]pending(nil), q...)
	}
	clear(t.lastDurable)
	for addr, v := range src.lastDurable {
		t.lastDurable[addr] = v
	}
	for i, snap := range src.armed {
		t.armed[i] = nil
		if snap != nil {
			t.armed[i] = make(map[uint64]int, len(snap))
			for addr, seq := range snap {
				t.armed[i][addr] = seq
			}
		}
	}
	t.Accepts, t.Barriers, t.Unmatched = src.Accepts, src.Barriers, src.Unmatched
	t.viol = nil
	if src.viol != nil {
		v := *src.viol
		t.viol = &v
	}
}

// Err returns the first violation, or nil.
func (t *Tracker) Err() *Violation { return t.viol }

// Durable returns the live newest-accepted-value-per-word map. Callers
// must treat it as read-only; the oracle's final image check iterates it.
func (t *Tracker) Durable() map[uint64]uint64 { return t.lastDurable }

// Reset clears all persist state (crash: the write path loses its
// queues, the durable image survives but recovery revalidates it).
func (t *Tracker) Reset() {
	t.outstanding = make(map[uint64][]pending)
	t.lastDurable = make(map[uint64]uint64)
	for i := range t.armed {
		t.armed[i] = nil
	}
}

// CommitStore records a committed store: it is now outstanding until the
// accept stream shows it (or a newer same-word store) durable. A store
// of the currently-durable value with nothing outstanding is dropped —
// the machine may elide it entirely (sync-persist ablation), and in the
// model re-persisting the same last-writer value changes no outcome.
func (t *Tracker) CommitStore(core, seq int, addr, val uint64) {
	q := t.outstanding[addr]
	if len(q) == 0 {
		if last, ok := t.lastDurable[addr]; ok && last == val {
			return
		}
	}
	t.outstanding[addr] = append(q, pending{core: core, seq: seq, val: val})
}

// Accept processes one accepted (durable) word from the NVM accept
// stream, retiring outstanding stores by coalescing subsumption.
func (t *Tracker) Accept(cycle, addr, val uint64) {
	t.Accepts++
	q := t.outstanding[addr]
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].val == val {
			// This accept makes store i durable and subsumes everything
			// older at this word: s_k ⊑ s_i for k < i (same address), and
			// a coalescing write buffer persists only the newest value.
			if tail := q[i+1:]; len(tail) == 0 {
				delete(t.outstanding, addr)
			} else {
				t.outstanding[addr] = tail
			}
			t.lastDurable[addr] = val
			return
		}
	}
	if last, ok := t.lastDurable[addr]; ok && last == val {
		// Idempotent re-accept (e.g. an evicted line re-persisting its
		// current image): allowed, nothing outstanding changes.
		return
	}
	t.Unmatched++
	t.lastDurable[addr] = val
}

// BarrierArm snapshots the core's outstanding stores when a region
// boundary arms: per word, the newest outstanding seq this core
// committed. BarrierComplete demands exactly this snapshot durable.
func (t *Tracker) BarrierArm(core int) {
	snap := make(map[uint64]int)
	for addr, q := range t.outstanding {
		for i := len(q) - 1; i >= 0; i-- {
			if q[i].core == core {
				snap[addr] = q[i].seq
				break
			}
		}
	}
	t.armed[core] = snap
}

// BarrierComplete checks the barrier axiom at the machine's own
// completion signal: every store in the arm snapshot must have drained.
// cause labels the boundary kind for the violation detail.
func (t *Tracker) BarrierComplete(core int, cycle uint64, cause string) {
	t.Barriers++
	snap := t.armed[core]
	t.armed[core] = nil
	if len(snap) == 0 || t.viol != nil {
		return
	}
	addrs := make([]uint64, 0, len(snap))
	for addr := range snap {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		limit := snap[addr]
		for _, st := range t.outstanding[addr] {
			if st.core == core && st.seq <= limit {
				t.viol = &Violation{
					Kind:  "barrier-incomplete",
					Core:  core,
					Cycle: cycle,
					Addr:  addr,
					Seq:   st.seq,
					Got:   st.val,
					Detail: fmt.Sprintf(
						"%s boundary completed at cycle %d but the store at seq %d ([%#x] <- %#x) committed before the barrier armed and is not durable",
						cause, cycle, st.seq, addr, st.val),
				}
				return
			}
		}
	}
}
