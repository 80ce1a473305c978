package oracle

import (
	"fmt"

	"ppa/internal/isa"
)

// Warmth is the functional warm-up model carried across fast-forward
// stretches: a bounded recency set of cache lines the skipped instructions
// touched, installed clean into the fresh hierarchy at the next detailed
// window so it does not start cold. The branch path needs no counterpart —
// the core's branch outcomes are a stateless deterministic hash of the
// instruction index, so there is no predictor state to warm.
type Warmth struct {
	cap  int
	ring []uint64 // touched lines in order, duplicates allowed
	// seen and out are distinct's scratch, kept from one compaction to
	// the next.
	seen map[uint64]struct{}
	out  []uint64
}

// NewWarmth returns a warmth model that remembers at most capLines
// distinct lines (the most recently touched win).
func NewWarmth(capLines int) *Warmth {
	if capLines <= 0 {
		capLines = 4096
	}
	return &Warmth{
		cap:  capLines,
		ring: make([]uint64, 0, 8*capLines),
		seen: make(map[uint64]struct{}, capLines),
		out:  make([]uint64, 0, capLines),
	}
}

// Touch records an access to the line containing addr. The fast-forward
// loop calls this for every memory access, so it must stay an append:
// deduplication is deferred to the periodic compaction.
func (w *Warmth) Touch(addr uint64) {
	if w == nil {
		return
	}
	w.ring = append(w.ring, isa.LineAlign(addr))
	if len(w.ring) >= 8*w.cap {
		w.compact()
	}
}

// compact rewrites the ring as its distinct lines in recency order,
// truncated to the cap most recent, so it stays bounded across arbitrarily
// long fast-forwards.
func (w *Warmth) compact() {
	w.ring = append(w.ring[:0], w.distinct()...)
}

// distinct returns the cap most recently touched distinct lines,
// oldest-touch first, in storage the next call reuses.
func (w *Warmth) distinct() []uint64 {
	clear(w.seen)
	out := w.out[:0]
	for i := len(w.ring) - 1; i >= 0 && len(out) < w.cap; i-- {
		line := w.ring[i]
		if _, dup := w.seen[line]; !dup {
			w.seen[line] = struct{}{}
			out = append(out, line)
		}
	}
	w.out = out
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Lines returns the tracked lines ordered oldest-touch first, capped at the
// model's capacity — exactly the install order a recency-managed cache
// wants (the most recently touched line is installed last, so it is the
// last to be evicted). The slice is valid until the next Touch or Lines.
func (w *Warmth) Lines() []uint64 {
	if w == nil {
		return nil
	}
	return w.distinct()
}

// Golden returns a deep copy of one core's golden state as a GoldenResult
// positioned at the core's next unchecked instruction. The sampled runner
// injects these as pipeline frontends: the frontend runs ahead of commit
// and mutates its state at dispatch, so it must not share memory with the
// lockstep model (a shared RMW old-value read would falsely diverge).
func (m *Machine) Golden(core int) *isa.GoldenResult {
	cm := m.cores[core]
	return &isa.GoldenResult{
		Mem:      cm.mem.Clone(),
		Regs:     cm.regs, // value copy
		Executed: cm.next,
	}
}

// FastForward functionally executes core's trace up to (not including)
// dynamic instruction target, advancing the golden model's registers,
// memory, and position without any timing. Stores are additionally written
// to img (the NVM image, nil to skip) so the durable image tracks the
// architectural state across skipped stretches, and every load/store
// address is recorded in warm (nil to skip). It is idempotent over
// already-checked instructions: a target at or below the current position
// is a no-op, which is how the engine catches up through a detailed window
// it did not observe commit-by-commit.
func (m *Machine) FastForward(core, target int, img *isa.MapMemory, warm *Warmth) error {
	if core < 0 || core >= len(m.cores) {
		return fmt.Errorf("oracle: fast-forward core %d of %d", core, len(m.cores))
	}
	cm := m.cores[core]
	if target > cm.prog.Len() {
		return fmt.Errorf("oracle: fast-forward target %d past trace end %d", target, cm.prog.Len())
	}
	for cm.next < target {
		in := &cm.prog.Insts[cm.next]
		src1 := cm.regs.Read(in.Src1)
		src2 := cm.regs.Read(in.Src2)
		switch in.Op {
		case isa.OpStore:
			addr := isa.WordAlign(in.Addr)
			val := isa.StoredValue(in, src1, 0)
			cm.mem.WriteWord(addr, val)
			if img != nil {
				img.WriteWord(addr, val)
			}
			warm.Touch(addr)
		case isa.OpRMW:
			addr := isa.WordAlign(in.Addr)
			old := cm.mem.ReadWord(addr)
			val := isa.StoredValue(in, src1, old)
			cm.mem.WriteWord(addr, val)
			if img != nil {
				img.WriteWord(addr, val)
			}
			warm.Touch(addr)
			cm.regs.Write(in.Dst, isa.Eval(in, src1, src2, old))
		case isa.OpLoad:
			cm.regs.Write(in.Dst, isa.Eval(in, src1, src2, cm.mem.ReadWord(in.Addr)))
			warm.Touch(in.Addr)
		default:
			if in.DefinesReg() {
				cm.regs.Write(in.Dst, isa.Eval(in, src1, src2, 0))
			}
		}
		cm.next++
	}
	return nil
}
