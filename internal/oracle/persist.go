package oracle

// Persist-order checking over the machine's own event stream. The commit
// stream says which stores are outstanding, the NVM accept stream (the ADR
// durability point) says which words became durable, and the barrier
// lifecycle says when a region boundary claims to be complete. Three rules
// judge the stream; each applies one of the persist-order axioms of the
// litmus engine's model (internal/litmus/px86) to the one order the machine
// produced, instead of enumerating every allowed outcome up front:
//
//   - Coalescing subsumption applies per-location persist order (s_k ⊑ s_i
//     for same-word stores k < i): an accepted value retires the newest
//     outstanding store that wrote it and every older store to the word,
//     since a coalescing write buffer persists only the newest value. An
//     accept that matches no outstanding store is counted as unmatched;
//     eviction writebacks replay line images legally.
//   - Idempotent re-accept applies the model's last-writer snapshot:
//     persisting the word's durable value again changes no outcome, so it
//     is never a violation, never unmatched, and never re-arms anything.
//     For the same reason a committed store of the durable value with
//     nothing outstanding is dropped (the machine may elide it).
//   - Barrier drain applies the barrier axiom (s_i ⊑ s_j for i < barrier
//     <= j): when a region boundary completes, every store its core had
//     outstanding when the boundary armed must be durable.
//
// Cross-core accept order is unconstrained: like the model, the oracle has
// no inter-core persist edges. The image checks (CheckFinal, CheckRecovered
// and log.go's CheckRecoveredAt) compare a whole image with the accept
// stream's record or the golden memory. Every check latches into the one
// violation slot, Machine.viol, and reports the lowest address first.

import (
	"fmt"
	"maps"
	"slices"

	"ppa/internal/isa"
	"ppa/internal/pipeline"
)

// PersistViolation describes the first breach of PPA's persist-ordering
// invariants observed on the accept stream.
type PersistViolation struct {
	// Kind is one of barrier-incomplete, durable-image-mismatch,
	// recovered-image-mismatch, recovered-count-mismatch, or a log-stream
	// kind (log.go): log-core-mismatch, log-marker-mismatch,
	// log-preimage-mismatch or log-redo-mismatch.
	Kind   string `json:"kind"`
	Core   int    `json:"core"`
	Cycle  uint64 `json:"cycle"`
	Addr   uint64 `json:"addr"`
	Seq    int    `json:"seq"`
	Got    uint64 `json:"got"`
	Want   uint64 `json:"want"`
	Detail string `json:"detail"`
}

func (v *PersistViolation) String() string {
	return fmt.Sprintf("%s: core %d cycle %d seq %d addr %#x: %s",
		v.Kind, v.Core, v.Cycle, v.Seq, v.Addr, v.Detail)
}

// pending is a committed-but-not-yet-durable store.
type pending struct {
	core int
	seq  int
	val  uint64
}

// latch records v as the oracle's persist violation and returns the
// report as an error.
func (m *Machine) latch(v *PersistViolation) error {
	m.viol = v
	return m.Err()
}

// ascending returns a map's word addresses, lowest first.
func ascending[V any](words map[uint64]V) []uint64 {
	addrs := make([]uint64, 0, len(words))
	for addr := range words {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	return addrs
}

// firstMismatch returns the lowest address whose value read disagrees
// with words, with the mapped and the read value; bad is false when they
// agree everywhere.
func firstMismatch(words map[uint64]uint64, read func(uint64) uint64) (addr, mapped, got uint64, bad bool) {
	for _, addr := range ascending(words) {
		if got := read(addr); got != words[addr] {
			return addr, words[addr], got, true
		}
	}
	return 0, 0, 0, false
}

// lowestMismatch is firstMismatch over a golden memory's written words,
// without sorting them: it walks them all and keeps the lowest address
// whose read value disagrees.
func lowestMismatch(golden *isa.MapMemory, read func(uint64) uint64) (addr, want, got uint64, bad bool) {
	golden.Range(func(a, w uint64) bool {
		if g := read(a); g != w && (!bad || a < addr) {
			addr, want, got, bad = a, w, g, true
		}
		return true
	})
	return addr, want, got, bad
}

// ResetPersistTracking clears the accept-stream state at an
// execution-regime transition (detailed window -> fast-forward): after a
// window is drained and its dirty lines flushed, every committed store is
// durable, so outstanding-persist and durable-value tracking restart empty
// for the next window. The latched violation and the counters survive.
func (m *Machine) ResetPersistTracking() {
	clear(m.outstanding)
	clear(m.lastDurable)
	clear(m.armed)
}

// copyPersist makes m's accept-stream tracking, empty after
// CrashCopyFrom, a copy of src's, sharing no mutable storage with it.
func (m *Machine) copyPersist(src *Machine) {
	for addr, q := range src.outstanding {
		m.outstanding[addr] = slices.Clone(q)
	}
	maps.Copy(m.lastDurable, src.lastDurable)
	for i, snap := range src.armed {
		m.armed[i] = maps.Clone(snap)
	}
}

// commitStore records a committed store as outstanding until the accept
// stream shows it, or a newer same-word store, durable. A store of the
// durable value with nothing outstanding is dropped (idempotent re-accept).
func (m *Machine) commitStore(core, seq int, addr, val uint64) {
	q := m.outstanding[addr]
	if len(q) == 0 {
		if last, ok := m.lastDurable[addr]; ok && last == val {
			return
		}
	}
	m.outstanding[addr] = append(q, pending{core: core, seq: seq, val: val})
}

// acceptWord retires outstanding stores by coalescing subsumption.
func (m *Machine) acceptWord(addr, val uint64) {
	m.accepts++
	q := m.outstanding[addr]
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].val == val {
			if tail := q[i+1:]; len(tail) == 0 {
				delete(m.outstanding, addr)
			} else {
				m.outstanding[addr] = tail
			}
			m.lastDurable[addr] = val
			return
		}
	}
	if last, ok := m.lastDurable[addr]; ok && last == val {
		return
	}
	m.unmatched++
	m.lastDurable[addr] = val
}

// ObserveAccept is the nvm accept observer (the ADR durability point): the
// offered words retire outstanding persists in region order.
func (m *Machine) ObserveAccept(cycle, line uint64, words *isa.LineWords) {
	if m.failed() {
		return
	}
	words.Range(line, m.acceptWord)
}

// ObserveBarrierArm implements pipeline.CommitSink: snapshot, per word, the
// newest store the core has outstanding — the set barrier completion must
// have drained.
func (m *Machine) ObserveBarrierArm(core int, cycle uint64) {
	if m.failed() {
		return
	}
	snap := make(map[uint64]int)
	for addr, q := range m.outstanding {
		for i := len(q) - 1; i >= 0; i-- {
			if q[i].core == core {
				snap[addr] = q[i].seq
				break
			}
		}
	}
	m.armed[core] = snap
}

// ObserveBarrierComplete implements pipeline.CommitSink: the barrier axiom
// at the machine's own completion signal — every store of the arm
// snapshot must be durable.
func (m *Machine) ObserveBarrierComplete(core int, cycle uint64, cause pipeline.BoundaryCause) {
	if m.failed() {
		return
	}
	m.barriers++
	snap := m.armed[core]
	m.armed[core] = nil
	for _, addr := range ascending(snap) {
		limit := snap[addr]
		for _, st := range m.outstanding[addr] {
			if st.core == core && st.seq <= limit {
				m.viol = &PersistViolation{
					Kind: "barrier-incomplete", Core: core, Cycle: cycle, Addr: addr,
					Seq: st.seq, Got: st.val,
					Detail: fmt.Sprintf(
						"%s boundary completed at cycle %d but the store at seq %d ([%#x] <- %#x) committed before the barrier armed and is not durable",
						cause, cycle, st.seq, addr, st.val),
				}
				return
			}
		}
	}
}

// ObserveCrash resets the persist tracking across a power failure: the
// volatile persist path is gone and recovery replay rewrites the image
// outside the accept stream, so outstanding and durable-value state no
// longer mean anything. The golden models keep their position — they are
// the committed-prefix reference CheckRecovered compares against.
func (m *Machine) ObserveCrash() {
	m.ResetPersistTracking()
	// The open region's redo records die with the crash: recovery discards
	// everything after the last marker, so their pending fold is moot.
	clear(m.logPend)
}

// CheckFinal compares the durable image against the accept stream's record:
// every word the stream marked durable must hold that value in the image.
// Valid only for schemes whose sole image-write path is the observed WPQ
// accept (asynchronous persistence without a redo path); multicore gates
// the call accordingly.
func (m *Machine) CheckFinal(img WordReader) error {
	if err := m.Err(); err != nil {
		return err
	}
	if addr, want, got, bad := firstMismatch(m.lastDurable, img.ReadWord); bad {
		return m.latch(&PersistViolation{
			Kind: "durable-image-mismatch", Core: -1, Addr: addr, Got: got, Want: want,
			Detail: fmt.Sprintf("durable image holds %#x but the accept stream last accepted %#x", got, want),
		})
	}
	return nil
}

// CheckRecovered asserts the post-recovery contract: the recovered NVM
// image equals the golden model's memory at each core's committed prefix,
// and recovery resumed each core at the prefix the oracle tracked.
// committed gives each core's committed-instruction count at the crash, and
// cycle the machine's clock at it, which stamps a violation.
func (m *Machine) CheckRecovered(img WordReader, committed []int, cycle uint64) error {
	if err := m.Err(); err != nil {
		return err
	}
	for core, cm := range m.cores {
		if committed != nil && committed[core] != cm.next {
			return m.latch(&PersistViolation{
				Kind: "recovered-count-mismatch", Core: core, Cycle: cycle,
				Got: uint64(committed[core]), Want: uint64(cm.next),
				Detail: fmt.Sprintf("machine reports %d committed instructions, oracle checked %d", committed[core], cm.next),
			})
		}
		if addr, want, got, bad := lowestMismatch(cm.mem, img.ReadWord); bad {
			return m.latch(&PersistViolation{
				Kind: "recovered-image-mismatch", Core: core, Cycle: cycle, Addr: addr, Got: got, Want: want,
				Detail: fmt.Sprintf("recovered NVM holds %#x, oracle's committed prefix (%d insts) wrote %#x", got, cm.next, want),
			})
		}
	}
	return nil
}
