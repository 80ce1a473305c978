// Package oracle is the differential lockstep checker: an independent
// ISA-level golden model (architectural registers + memory, no pipeline, no
// caches) stepped at the core's commit stage, plus persist-order rules over
// the NVM accept stream (persist.go: coalescing subsumption, idempotent
// re-accept and barrier drain, the per-core axioms of the litmus engine's
// model) and over the log stream (log.go). Every consistency result
// elsewhere in the repo compares the machine against its own committed
// prefix; the oracle is the second opinion — it re-derives each committed
// instruction's architectural effects from the isa exec tables and its own
// state, so a bug shared by the pipeline's value path and the recovery path
// still diverges here.
//
// The oracle attaches through two narrow seams: pipeline.CommitSink (the
// commit stream and barrier lifecycle) and nvm.SetAcceptObserver (the ADR
// durability point). multicore wires both when Config.Lockstep is set. On
// the first mismatch the oracle latches a structured Divergence — the
// first-divergent instruction with both machines' state deltas — or a
// PersistViolation, and stops checking; the system surfaces it as a
// *DivergenceError from the run.
package oracle

import (
	"fmt"

	"ppa/internal/isa"
	"ppa/internal/pipeline"
)

// WordReader is the read side of a durable memory image (nvm.Device and its
// isa.MapMemory image satisfy it).
type WordReader interface {
	ReadWord(addr uint64) uint64
}

// Divergence describes the first committed instruction whose architectural
// effects disagreed between the core and the golden model.
type Divergence struct {
	Core  int    `json:"core"`
	Cycle uint64 `json:"cycle"`
	// Seq is the dynamic instruction index (program order).
	Seq int    `json:"seq"`
	PC  uint64 `json:"pc"`
	Op  string `json:"op"`
	// Field names what disagreed: seq, pc, lcpc, dst-valid, dst-value,
	// crt-value, store-valid, store-addr, or store-value.
	Field string `json:"field"`
	Got   uint64 `json:"got"`
	Want  uint64 `json:"want"`
	// CoreDelta and OracleDelta are both machines' views of the
	// instruction's architectural effects.
	CoreDelta   string `json:"core_delta"`
	OracleDelta string `json:"oracle_delta"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("core %d seq %d (pc %#x, %s) field %s: core has %#x, oracle wants %#x [core: %s | oracle: %s]",
		d.Core, d.Seq, d.PC, d.Op, d.Field, d.Got, d.Want, d.CoreDelta, d.OracleDelta)
}

// Report is the oracle's whole-run summary, JSON-marshalable for CI
// artifacts. At most one of Divergence/PersistViolation is set: the oracle
// latches the first failure and stops checking.
type Report struct {
	Commits          uint64            `json:"commits"`
	AcceptedWords    uint64            `json:"accepted_words"`
	Barriers         uint64            `json:"barriers"`
	UnmatchedAccepts uint64            `json:"unmatched_accepts"`
	Divergence       *Divergence       `json:"divergence,omitempty"`
	PersistViolation *PersistViolation `json:"persist_violation,omitempty"`
}

// DivergenceError carries the report out of a run as an error.
type DivergenceError struct {
	Report *Report
}

func (e *DivergenceError) Error() string {
	r := e.Report
	switch {
	case r.Divergence != nil:
		return "oracle: lockstep divergence: " + r.Divergence.String()
	case r.PersistViolation != nil:
		return "oracle: persist-order violation: " + r.PersistViolation.String()
	default:
		return "oracle: divergence error with empty report"
	}
}

// coreModel is one hardware thread's golden state, advanced at commit.
type coreModel struct {
	prog *isa.Program
	regs isa.ArchState
	mem  *isa.MapMemory
	next int // expected next dynamic instruction index

	// rec is the golden execution CheckRecoveredAt advances to each
	// recovery point, recProg the program it ran. Scratch: no copy or
	// reset carries it, and a check reruns it for another program.
	rec     isa.GoldenResult
	recProg *isa.Program
}

// Machine is the lockstep oracle for one simulated system. It implements
// pipeline.CommitSink; its ObserveAccept method is the nvm accept observer.
// Not safe for concurrent use — it is called synchronously from the cycle
// loop.
type Machine struct {
	cores []*coreModel

	// Persist tracking over the accept stream (persist.go). outstanding
	// maps a word to its committed, not yet durable stores in commit order;
	// lastDurable holds the newest accepted value per word; armed is each
	// core's barrier snapshot (word -> newest outstanding seq at arm time),
	// nil when no barrier is in flight.
	outstanding                  map[uint64][]pending
	lastDurable                  map[uint64]uint64
	armed                        []map[uint64]int
	accepts, barriers, unmatched uint64

	// logPend folds each core's open-region redo log records (addr -> last
	// written value) for the marker-time region check; nil until the first
	// redo record arrives (see log.go).
	logPend []map[uint64]uint64

	commits uint64
	div     *Divergence
	// viol is the first persist violation, from the accept stream, an image
	// check or a log check.
	viol *PersistViolation
}

// New builds an oracle over the per-core programs. startAt gives each
// core's first dynamic instruction index (nil means 0 for all): the golden
// model fast-forwards through the already-committed prefix, which is how a
// resumed (post-recovery) system gets a consistent oracle.
func New(progs []*isa.Program, startAt []int) *Machine {
	m := &Machine{
		cores:       make([]*coreModel, len(progs)),
		outstanding: make(map[uint64][]pending),
		lastDurable: make(map[uint64]uint64),
		armed:       make([]map[uint64]int, len(progs)),
	}
	for i := range m.cores {
		m.cores[i] = &coreModel{mem: isa.NewMapMemory()}
	}
	m.Reset(progs, startAt)
	return m
}

// Reset turns m into the oracle New(progs, startAt) builds, keeping its
// maps and golden memories. progs must have one program per core m models.
func (m *Machine) Reset(progs []*isa.Program, startAt []int) {
	for i, p := range progs {
		start := 0
		if startAt != nil {
			start = startAt[i]
		}
		cm := m.cores[i]
		cm.mem.Reset()
		g := isa.GoldenResult{Mem: cm.mem}
		for seq := 0; seq < min(start, p.Len()); seq++ {
			isa.StepGolden(&g, &p.Insts[seq], seq)
		}
		*cm = coreModel{prog: p, regs: g.Regs, mem: cm.mem, next: start, rec: cm.rec, recProg: cm.recProg}
	}
	*m = Machine{cores: m.cores, outstanding: m.outstanding, lastDurable: m.lastDurable, armed: m.armed, logPend: m.logPend}
	m.ObserveCrash()
}

// CrashCopyFrom makes m what src is right after ObserveCrash, for an
// oracle over as many cores: each golden model's position, registers and
// memory (copied into m's own), the counters and the latched divergence or
// violation. The accept-stream tracking and the open redo regions, which a
// power failure discards, are left empty instead of copied. It shares no
// mutable storage with src.
func (m *Machine) CrashCopyFrom(src *Machine) {
	for i, cm := range m.cores {
		s := src.cores[i]
		cm.prog, cm.regs, cm.next = s.prog, s.regs, s.next
		cm.mem.CopyFrom(s.mem)
	}
	m.ResetPersistTracking()
	m.logPend = nil
	m.accepts, m.barriers, m.unmatched = src.accepts, src.barriers, src.unmatched
	m.commits = src.commits
	m.div, m.viol = dup(src.div), dup(src.viol)
}

// dup returns a copy of *p, or nil.
func dup[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// failed reports whether the oracle has latched a divergence or violation.
func (m *Machine) failed() bool { return m.div != nil || m.viol != nil }

// Err returns nil while the machine and oracle agree, and a
// *DivergenceError carrying the full report after the first disagreement.
func (m *Machine) Err() error {
	if !m.failed() {
		return nil
	}
	return &DivergenceError{Report: m.Report()}
}

// ErrAt is Err for a machine that surfaces the oracle's verdict at cycle.
// The log-stream checks and CheckFinal latch a persist violation outside
// any cycle event, so one that carries no cycle yet is stamped with this
// one; a violation keeps the first cycle it is given.
func (m *Machine) ErrAt(cycle uint64) error {
	if m.viol != nil && m.viol.Cycle == 0 {
		m.viol.Cycle = cycle
	}
	return m.Err()
}

// Report returns the oracle's current summary.
func (m *Machine) Report() *Report {
	return &Report{
		Commits:          m.commits,
		AcceptedWords:    m.accepts,
		Barriers:         m.barriers,
		UnmatchedAccepts: m.unmatched,
		Divergence:       m.div,
		PersistViolation: m.viol,
	}
}

// Committed returns how many instructions the oracle has checked for core.
func (m *Machine) Committed(core int) int { return m.cores[core].next }

// ObserveCommit implements pipeline.CommitSink: cross-check the retired
// instruction against the golden model, then advance the model.
func (m *Machine) ObserveCommit(ev *pipeline.CommitEvent) {
	if m.failed() {
		return
	}
	m.commits++
	m.checkCommit(ev)
	if m.div == nil && ev.IsStore {
		m.commitStore(ev.Core, ev.Seq, ev.StoreAddr, ev.StoreVal)
	}
}

// checkCommit is the lockstep core: recompute the instruction's
// architectural effects from the golden state and compare every observed
// field, latching a Divergence on the first mismatch.
func (m *Machine) checkCommit(ev *pipeline.CommitEvent) {
	if ev.Core < 0 || ev.Core >= len(m.cores) {
		m.div = &Divergence{
			Core: ev.Core, Cycle: ev.Cycle, Seq: ev.Seq, PC: ev.PC, Op: ev.Op.String(),
			Field: "core", Got: uint64(ev.Core), Want: uint64(len(m.cores)),
			CoreDelta:   "commit from a core the oracle does not model",
			OracleDelta: fmt.Sprintf("%d cores modeled", len(m.cores)),
		}
		return
	}
	cm := m.cores[ev.Core]
	fail := func(field string, got, want uint64, coreDelta, oracleDelta string) {
		m.div = &Divergence{
			Core: ev.Core, Cycle: ev.Cycle, Seq: ev.Seq, PC: ev.PC, Op: ev.Op.String(),
			Field: field, Got: got, Want: want,
			CoreDelta: coreDelta, OracleDelta: oracleDelta,
		}
	}
	if ev.Seq != cm.next || ev.Seq >= cm.prog.Len() {
		fail("seq", uint64(ev.Seq), uint64(cm.next),
			fmt.Sprintf("committed dynamic instruction %d", ev.Seq),
			fmt.Sprintf("expected instruction %d of %d", cm.next, cm.prog.Len()))
		return
	}
	in := &cm.prog.Insts[ev.Seq]

	// Re-derive the architectural effects from the golden state using the
	// isa exec tables — independent of the pipeline's rename-time frontend.
	src1 := cm.regs.Read(in.Src1)
	src2 := cm.regs.Read(in.Src2)
	var wantDst, wantStoreAddr, wantStoreVal uint64
	isStore := in.Op.IsStore()
	switch in.Op {
	case isa.OpStore:
		wantStoreAddr = isa.WordAlign(in.Addr)
		wantStoreVal = isa.StoredValue(in, src1, 0)
	case isa.OpRMW:
		wantStoreAddr = isa.WordAlign(in.Addr)
		old := cm.mem.ReadWord(wantStoreAddr)
		wantStoreVal = isa.StoredValue(in, src1, old)
		wantDst = isa.Eval(in, src1, src2, old)
	case isa.OpLoad:
		wantDst = isa.Eval(in, src1, src2, cm.mem.ReadWord(in.Addr))
	default:
		if in.DefinesReg() {
			wantDst = isa.Eval(in, src1, src2, 0)
		}
	}

	// Find the mismatch first; describe the commit only on a divergence.
	var field string
	var got, want uint64
	switch {
	case ev.PC != in.PC:
		field, got, want = "pc", ev.PC, in.PC
	case ev.LCPC != in.PC:
		field, got, want = "lcpc", ev.LCPC, in.PC
	case ev.DstValid != in.DefinesReg():
		field, got, want = "dst-valid", boolWord(ev.DstValid), boolWord(in.DefinesReg())
	case ev.DstValid && ev.DstVal != wantDst:
		field, got, want = "dst-value", ev.DstVal, wantDst
	case ev.DstValid && ev.CRTVal != wantDst:
		field, got, want = "crt-value", ev.CRTVal, wantDst
	case ev.IsStore != isStore:
		field, got, want = "store-valid", boolWord(ev.IsStore), boolWord(isStore)
	case isStore && ev.StoreAddr != wantStoreAddr:
		field, got, want = "store-addr", ev.StoreAddr, wantStoreAddr
	case isStore && ev.StoreVal != wantStoreVal:
		field, got, want = "store-value", ev.StoreVal, wantStoreVal
	}
	if field != "" {
		fail(field, got, want, describeCommit(ev),
			describeGolden(in, wantDst, wantStoreAddr, wantStoreVal, isStore))
		return
	}

	// Agreement: advance the golden model past this instruction.
	if isStore {
		cm.mem.WriteWord(wantStoreAddr, wantStoreVal)
	}
	if in.DefinesReg() {
		cm.regs.Write(in.Dst, wantDst)
	}
	cm.next++
}

// describeCommit renders the core's view of a retire for the divergence
// report.
func describeCommit(ev *pipeline.CommitEvent) string {
	s := fmt.Sprintf("cycle %d", ev.Cycle)
	if ev.DstValid {
		s += fmt.Sprintf(", %v <- %#x (CRT reads %#x)", ev.Dst, ev.DstVal, ev.CRTVal)
	}
	if ev.IsStore {
		s += fmt.Sprintf(", store [%#x] <- %#x", ev.StoreAddr, ev.StoreVal)
	}
	return s + fmt.Sprintf(", lcpc=%#x", ev.LCPC)
}

// describeGolden renders the golden model's view of the same instruction.
func describeGolden(in *isa.Inst, dst, storeAddr, storeVal uint64, isStore bool) string {
	s := fmt.Sprintf("pc %#x", in.PC)
	if in.DefinesReg() {
		s += fmt.Sprintf(", %v <- %#x", in.Dst, dst)
	}
	if isStore {
		s += fmt.Sprintf(", store [%#x] <- %#x", storeAddr, storeVal)
	}
	return s
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
