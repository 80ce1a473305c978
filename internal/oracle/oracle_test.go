package oracle

import (
	"encoding/json"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/pipeline"
)

// testProg is a small two-region trace touching every event the oracle
// checks: ALU values, a store, an RMW (old-value semantics), a dependent
// load.
func testProg() *isa.Program {
	return &isa.Program{Name: "oracle-unit", Insts: []isa.Inst{
		{PC: 0x00, Op: isa.OpALU, Dst: isa.Int(1), Imm: 5},                             // r1 = 5
		{PC: 0x04, Op: isa.OpStore, Src1: isa.Int(1), Addr: 0x100},                     // [0x100] = 5
		{PC: 0x08, Op: isa.OpRMW, Dst: isa.Int(2), Src1: isa.Int(1), Addr: 0x100},      // r2 = 5, [0x100] = 10
		{PC: 0x0c, Op: isa.OpLoad, Dst: isa.Int(3), Addr: 0x100},                       // r3 = 10
		{PC: 0x10, Op: isa.OpALU, Dst: isa.Int(1), Src1: isa.Int(3), Src2: isa.Int(2)}, // r1 = 15
	}}
}

// goldenEvents derives the correct commit-event stream for a program by
// running the golden model — the events an honest machine would emit.
func goldenEvents(p *isa.Program) []pipeline.CommitEvent {
	res := &isa.GoldenResult{Mem: isa.NewMapMemory()}
	evs := make([]pipeline.CommitEvent, 0, p.Len())
	for i := range p.Insts {
		in := &p.Insts[i]
		src1 := res.Regs.Read(in.Src1)
		ev := pipeline.CommitEvent{
			Core: 0, Cycle: uint64(i + 1), Seq: i, PC: in.PC, Op: in.Op,
			DstValid: in.DefinesReg(), Dst: in.Dst, LCPC: in.PC,
		}
		if in.Op.IsStore() {
			ev.IsStore = true
			ev.StoreAddr = isa.WordAlign(in.Addr)
			old := res.Mem.ReadWord(ev.StoreAddr)
			ev.StoreVal = isa.StoredValue(in, src1, old)
		}
		isa.StepGolden(res, in, i)
		if ev.DstValid {
			ev.DstVal = res.Regs.Read(in.Dst)
			ev.CRTVal = ev.DstVal
		}
		evs = append(evs, ev)
	}
	return evs
}

func feed(m *Machine, evs []pipeline.CommitEvent) {
	for i := range evs {
		m.ObserveCommit(&evs[i])
	}
}

func TestLockstepAgreement(t *testing.T) {
	p := testProg()
	m := New([]*isa.Program{p}, nil)
	feed(m, goldenEvents(p))
	if err := m.Err(); err != nil {
		t.Fatalf("honest event stream diverged: %v", err)
	}
	if got := m.Committed(0); got != p.Len() {
		t.Fatalf("oracle advanced %d of %d", got, p.Len())
	}
	rep := m.Report()
	if rep.Commits != uint64(p.Len()) || rep.Divergence != nil || rep.PersistViolation != nil {
		t.Fatalf("unexpected report %+v", rep)
	}
}

// TestAgreeingCommitAllocs: an agreeing commit must not allocate. The
// divergence text is built only on a mismatch, so the lockstep loop's cost
// per commit is the comparison alone.
func TestAgreeingCommitAllocs(t *testing.T) {
	p := &isa.Program{Name: "alu-4k"}
	for i := 0; i < 4096; i++ {
		p.Insts = append(p.Insts, isa.Inst{PC: uint64(4 * i), Op: isa.OpALU,
			Dst: isa.Int(1 + i%8), Src1: isa.Int(1 + (i+3)%8), Src2: isa.Int(1 + (i+5)%8), Imm: int64(i)})
	}
	evs := goldenEvents(p)
	m := New([]*isa.Program{p}, nil)
	i := 0
	// AllocsPerRun makes one warm-up call before the measured runs.
	allocs := testing.AllocsPerRun(len(evs)-1, func() {
		m.ObserveCommit(&evs[i])
		i++
	})
	if err := m.Err(); err != nil {
		t.Fatalf("honest event stream diverged: %v", err)
	}
	if i != len(evs) || m.Committed(0) != len(evs) {
		t.Fatalf("fed %d events, oracle advanced %d of %d", i, m.Committed(0), len(evs))
	}
	if allocs != 0 {
		t.Fatalf("agreeing commit allocates %.1f times, want 0", allocs)
	}
}

// TestLockstepDivergences corrupts one field of one event at a time and
// checks the oracle latches the right divergence at the right instruction,
// with the exact report text.
func TestLockstepDivergences(t *testing.T) {
	cases := []struct {
		name      string
		corrupt   func(evs []pipeline.CommitEvent)
		wantSeq   int
		wantField string
		// want is the full Divergence.String(): the report text is part
		// of the oracle's contract (CI artifacts and the mutation
		// scorecard quote it), so it is pinned byte for byte.
		want string
	}{
		{"wrong dst value", func(evs []pipeline.CommitEvent) { evs[0].DstVal ^= 1 }, 0, "dst-value",
			"core 0 seq 0 (pc 0x0, alu) field dst-value: core has 0x4, oracle wants 0x5 [core: cycle 1, r1 <- 0x4 (CRT reads 0x5), lcpc=0x0 | oracle: pc 0x0, r1 <- 0x5]"},
		{"stale crt value", func(evs []pipeline.CommitEvent) { evs[0].CRTVal = 99 }, 0, "crt-value",
			"core 0 seq 0 (pc 0x0, alu) field crt-value: core has 0x63, oracle wants 0x5 [core: cycle 1, r1 <- 0x5 (CRT reads 0x63), lcpc=0x0 | oracle: pc 0x0, r1 <- 0x5]"},
		{"wrong store value", func(evs []pipeline.CommitEvent) { evs[1].StoreVal = 6 }, 1, "store-value",
			"core 0 seq 1 (pc 0x4, store) field store-value: core has 0x6, oracle wants 0x5 [core: cycle 2, store [0x100] <- 0x6, lcpc=0x4 | oracle: pc 0x4, store [0x100] <- 0x5]"},
		{"wrong store address", func(evs []pipeline.CommitEvent) { evs[1].StoreAddr += 8 }, 1, "store-addr",
			"core 0 seq 1 (pc 0x4, store) field store-addr: core has 0x108, oracle wants 0x100 [core: cycle 2, store [0x108] <- 0x5, lcpc=0x4 | oracle: pc 0x4, store [0x100] <- 0x5]"},
		{"store flag dropped", func(evs []pipeline.CommitEvent) { evs[1].IsStore = false }, 1, "store-valid",
			"core 0 seq 1 (pc 0x4, store) field store-valid: core has 0x0, oracle wants 0x1 [core: cycle 2, lcpc=0x4 | oracle: pc 0x4, store [0x100] <- 0x5]"},
		{"rmw old value wrong", func(evs []pipeline.CommitEvent) { evs[2].DstVal = 0 }, 2, "dst-value",
			"core 0 seq 2 (pc 0x8, rmw) field dst-value: core has 0x0, oracle wants 0x5 [core: cycle 3, r2 <- 0x0 (CRT reads 0x5), store [0x100] <- 0xa, lcpc=0x8 | oracle: pc 0x8, r2 <- 0x5, store [0x100] <- 0xa]"},
		{"load value wrong", func(evs []pipeline.CommitEvent) { evs[3].DstVal = 5 }, 3, "dst-value",
			"core 0 seq 3 (pc 0xc, load) field dst-value: core has 0x5, oracle wants 0xa [core: cycle 4, r3 <- 0x5 (CRT reads 0xa), lcpc=0xc | oracle: pc 0xc, r3 <- 0xa]"},
		{"stale lcpc", func(evs []pipeline.CommitEvent) { evs[1].LCPC = evs[0].PC }, 1, "lcpc",
			"core 0 seq 1 (pc 0x4, store) field lcpc: core has 0x0, oracle wants 0x4 [core: cycle 2, store [0x100] <- 0x5, lcpc=0x0 | oracle: pc 0x4, store [0x100] <- 0x5]"},
		{"wrong pc", func(evs []pipeline.CommitEvent) { evs[0].PC = 0xbad; evs[0].LCPC = 0xbad }, 0, "pc",
			"core 0 seq 0 (pc 0xbad, alu) field pc: core has 0xbad, oracle wants 0x0 [core: cycle 1, r1 <- 0x5 (CRT reads 0x5), lcpc=0xbad | oracle: pc 0x0, r1 <- 0x5]"},
		{"skipped instruction", func(evs []pipeline.CommitEvent) { evs[1].Seq = 2 }, 2, "seq",
			"core 0 seq 2 (pc 0x4, store) field seq: core has 0x2, oracle wants 0x1 [core: committed dynamic instruction 2 | oracle: expected instruction 1 of 5]"},
		{"dst dropped", func(evs []pipeline.CommitEvent) { evs[0].DstValid = false }, 0, "dst-valid",
			"core 0 seq 0 (pc 0x0, alu) field dst-valid: core has 0x0, oracle wants 0x1 [core: cycle 1, lcpc=0x0 | oracle: pc 0x0, r1 <- 0x5]"},
		{"unknown core", func(evs []pipeline.CommitEvent) { evs[0].Core = 3 }, 0, "core",
			"core 3 seq 0 (pc 0x0, alu) field core: core has 0x3, oracle wants 0x1 [core: commit from a core the oracle does not model | oracle: 1 cores modeled]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := testProg()
			evs := goldenEvents(p)
			c.corrupt(evs)
			m := New([]*isa.Program{p}, nil)
			feed(m, evs)
			err := m.Err()
			if err != nil {
				var de *DivergenceError
				if !asDivergence(err, &de) {
					t.Fatalf("error is not a *DivergenceError: %v", err)
				}
				d := de.Report.Divergence
				if d == nil {
					t.Fatalf("no divergence in report: %v", err)
				}
				if d.Field != c.wantField || d.Seq != c.wantSeq {
					t.Fatalf("diverged at seq %d field %s, want seq %d field %s (%v)",
						d.Seq, d.Field, c.wantSeq, c.wantField, err)
				}
				if got := d.String(); got != c.want {
					t.Fatalf("divergence text:\n got %s\nwant %s", got, c.want)
				}
				return
			}
			t.Fatal("corrupted stream accepted")
		})
	}
}

func asDivergence(err error, out **DivergenceError) bool {
	de, ok := err.(*DivergenceError)
	if ok {
		*out = de
	}
	return ok
}

// TestLatchesFirstDivergence: after the first mismatch the oracle must stop
// checking (and not replace the report with later noise).
func TestLatchesFirstDivergence(t *testing.T) {
	p := testProg()
	evs := goldenEvents(p)
	evs[0].DstVal ^= 1
	evs[2].StoreVal = 77 // would be a different divergence
	m := New([]*isa.Program{p}, nil)
	feed(m, evs)
	var de *DivergenceError
	if !asDivergence(m.Err(), &de) || de.Report.Divergence.Seq != 0 {
		t.Fatalf("first divergence not latched: %v", m.Err())
	}
	if de.Report.Commits != 1 {
		t.Fatalf("oracle kept counting after latching: %d commits", de.Report.Commits)
	}
}

// accept feeds a single-word WPQ accept to the machine.
func accept(m *Machine, cycle, addr, val uint64) {
	var lw isa.LineWords
	lw.Set(addr, val)
	m.ObserveAccept(cycle, isa.LineAlign(addr), &lw)
}

// storeProg builds a program whose stores write the given values to one
// word, each value staged into r1 by an ALU def first — the shape the
// persist-checker tests need to put specific outstanding values in flight.
func storeProg(vals []uint64, addr uint64) *isa.Program {
	p := &isa.Program{Name: "persist-unit"}
	pc := uint64(0)
	for _, v := range vals {
		p.Insts = append(p.Insts,
			isa.Inst{PC: pc, Op: isa.OpALU, Dst: isa.Int(1), Imm: int64(v)},
			isa.Inst{PC: pc + 4, Op: isa.OpStore, Src1: isa.Int(1), Addr: addr},
		)
		pc += 8
	}
	return p
}

// persistMachine feeds the commit stream for storeProg and returns the
// machine, ready for accept/barrier events.
func persistMachine(t *testing.T, vals []uint64, addr uint64) *Machine {
	t.Helper()
	p := storeProg(vals, addr)
	m := New([]*isa.Program{p}, nil)
	feed(m, goldenEvents(p))
	if err := m.Err(); err != nil {
		t.Fatalf("setup stream diverged: %v", err)
	}
	return m
}

func TestBarrierIncomplete(t *testing.T) {
	m := persistMachine(t, []uint64{7}, 0x100)
	m.ObserveBarrierArm(0, 10)
	m.ObserveBarrierComplete(0, 20, pipeline.BoundaryCause(0))
	var de *DivergenceError
	if !asDivergence(m.Err(), &de) || de.Report.PersistViolation == nil {
		t.Fatalf("undrained barrier accepted: %v", m.Err())
	}
	if de.Report.PersistViolation.Kind != "barrier-incomplete" {
		t.Fatalf("wrong violation kind %s", de.Report.PersistViolation.Kind)
	}
}

func TestBarrierDrained(t *testing.T) {
	m := persistMachine(t, []uint64{7}, 0x100)
	m.ObserveBarrierArm(0, 10)
	accept(m, 15, 0x100, 7)
	m.ObserveBarrierComplete(0, 20, pipeline.BoundaryCause(0))
	if err := m.Err(); err != nil {
		t.Fatalf("drained barrier rejected: %v", err)
	}
	if rep := m.Report(); rep.Barriers != 1 || rep.AcceptedWords != 1 {
		t.Fatalf("unexpected counters %+v", rep)
	}
}

// TestCoalescingSubsumption: an accept carrying the newest of several
// outstanding same-word stores proves them all durable (the older values
// were legally overwritten in the write buffer before any accept).
func TestCoalescingSubsumption(t *testing.T) {
	m := persistMachine(t, []uint64{1, 2, 3}, 0x100)
	m.ObserveBarrierArm(0, 10)
	accept(m, 15, 0x100, 3)
	m.ObserveBarrierComplete(0, 20, pipeline.BoundaryCause(0))
	if err := m.Err(); err != nil {
		t.Fatalf("coalesced accept rejected: %v", err)
	}
	if rep := m.Report(); rep.UnmatchedAccepts != 0 {
		t.Fatalf("coalesced accept counted as unmatched: %+v", rep)
	}
}

// TestPartialCoalesceStillBlocks: an accept of a middle value retires only
// its prefix — the newer store remains outstanding and must still hold the
// barrier.
func TestPartialCoalesceStillBlocks(t *testing.T) {
	m := persistMachine(t, []uint64{1, 2, 3}, 0x100)
	m.ObserveBarrierArm(0, 10)
	accept(m, 15, 0x100, 2)
	m.ObserveBarrierComplete(0, 20, pipeline.BoundaryCause(0))
	var de *DivergenceError
	if !asDivergence(m.Err(), &de) || de.Report.PersistViolation == nil {
		t.Fatal("barrier with the newest store still volatile was accepted")
	}
	if k := de.Report.PersistViolation.Kind; k != "barrier-incomplete" {
		t.Fatalf("wrong violation kind %s", k)
	}
}

func TestIdempotentReaccept(t *testing.T) {
	m := persistMachine(t, []uint64{5}, 0x100)
	accept(m, 10, 0x100, 5)
	accept(m, 11, 0x100, 5) // eviction re-writes the same durable value
	if err := m.Err(); err != nil {
		t.Fatalf("idempotent re-accept rejected: %v", err)
	}
	if rep := m.Report(); rep.UnmatchedAccepts != 0 {
		t.Fatalf("idempotent re-accept counted as unmatched: %+v", rep)
	}
	// The re-accept must not re-arm outstanding state: a barrier after it
	// completes clean.
	m.ObserveBarrierArm(0, 12)
	m.ObserveBarrierComplete(0, 13, pipeline.BoundaryCause(0))
	if err := m.Err(); err != nil {
		t.Fatalf("barrier after an idempotent re-accept rejected: %v", err)
	}
}

func TestUnmatchedAcceptCountedNotFatal(t *testing.T) {
	p := storeProg([]uint64{5}, 0x100)
	m := New([]*isa.Program{p}, nil)
	// Accept before any commit (the sync-persist ablation's ordering).
	accept(m, 10, 0x100, 5)
	if err := m.Err(); err != nil {
		t.Fatalf("early accept fatal: %v", err)
	}
	if rep := m.Report(); rep.UnmatchedAccepts != 1 {
		t.Fatalf("unmatched accept not counted: %+v", rep)
	}
	// The commit then finds its value already durable — instantly durable,
	// never outstanding, so a following barrier completes clean.
	feed(m, goldenEvents(p))
	m.ObserveBarrierArm(0, 20)
	m.ObserveBarrierComplete(0, 30, pipeline.BoundaryCause(0))
	if err := m.Err(); err != nil {
		t.Fatalf("instantly-durable store held the barrier: %v", err)
	}
}

type memImage map[uint64]uint64

func (m memImage) ReadWord(addr uint64) uint64 { return m[addr] }

func TestCheckFinal(t *testing.T) {
	m := persistMachine(t, []uint64{9}, 0x100)
	accept(m, 10, 0x100, 9)
	if err := m.CheckFinal(memImage{0x100: 9}); err != nil {
		t.Fatalf("matching image rejected: %v", err)
	}

	m2 := persistMachine(t, []uint64{9}, 0x100)
	accept(m2, 10, 0x100, 9)
	err := m2.CheckFinal(memImage{0x100: 4})
	var de *DivergenceError
	if !asDivergence(err, &de) || de.Report.PersistViolation == nil ||
		de.Report.PersistViolation.Kind != "durable-image-mismatch" {
		t.Fatalf("image mismatch not detected: %v", err)
	}
}

func TestCheckRecovered(t *testing.T) {
	p := testProg()
	m := New([]*isa.Program{p}, nil)
	feed(m, goldenEvents(p))
	m.ObserveCrash()

	golden := isa.RunGolden(p, -1)
	img := memImage{}
	for a, v := range golden.Mem.Snapshot() {
		img[a] = v
	}
	if err := m.CheckRecovered(img, []int{p.Len()}, 40); err != nil {
		t.Fatalf("faithful recovery rejected: %v", err)
	}

	// A lost committed word.
	img[0x100] = 0
	err := m.CheckRecovered(img, []int{p.Len()}, 40)
	var de *DivergenceError
	if !asDivergence(err, &de) || de.Report.PersistViolation == nil ||
		de.Report.PersistViolation.Kind != "recovered-image-mismatch" {
		t.Fatalf("lost word not detected: %v", err)
	}
	if c := de.Report.PersistViolation.Cycle; c != 40 {
		t.Fatalf("lost word reported at cycle %d, want the crash's 40", c)
	}

	// A committed-count disagreement.
	m2 := New([]*isa.Program{testProg()}, nil)
	feed(m2, goldenEvents(testProg()))
	err = m2.CheckRecovered(img, []int{2}, 40)
	if !asDivergence(err, &de) || de.Report.PersistViolation == nil ||
		de.Report.PersistViolation.Kind != "recovered-count-mismatch" {
		t.Fatalf("count mismatch not detected: %v", err)
	}
}

// TestErrAtStampsCyclelessViolations: a violation latched outside any cycle
// event (here a log marker's) takes the cycle the machine surfaces it at,
// and keeps it; one latched at its own cycle keeps that.
func TestErrAtStampsCyclelessViolations(t *testing.T) {
	p := testProg()
	m := New([]*isa.Program{p}, nil)
	feed(m, goldenEvents(p)[:2])
	m.ObserveLogAppend(0, nvm.LogRecord{Marker: true, Committed: 5}, true)
	for _, at := range []uint64{77, 90} {
		var de *DivergenceError
		if err := m.ErrAt(at); !asDivergence(err, &de) || de.Report.PersistViolation == nil {
			t.Fatalf("ErrAt(%d) = %v, want the marker's violation", at, err)
		} else if c := de.Report.PersistViolation.Cycle; c != 77 {
			t.Fatalf("ErrAt(%d) reports cycle %d, want the first surfacing's 77", at, c)
		}
	}

	b := persistMachine(t, []uint64{7}, 0x100)
	b.ObserveBarrierArm(0, 10)
	b.ObserveBarrierComplete(0, 20, pipeline.BoundarySync)
	var de *DivergenceError
	if err := b.ErrAt(30); !asDivergence(err, &de) || de.Report.PersistViolation == nil {
		t.Fatalf("barrier violation not latched: %v", err)
	} else if c := de.Report.PersistViolation.Cycle; c != 20 {
		t.Fatalf("barrier violation reported at cycle %d, want its own 20", c)
	}
}

// TestCrashResetsPersistTracking: outstanding persists must not survive a
// power failure (the volatile path is gone; recovery replays outside the
// accept stream), but the golden models must keep their position.
func TestCrashResetsPersistTracking(t *testing.T) {
	m := persistMachine(t, []uint64{7}, 0x100)
	m.ObserveCrash()
	m.ObserveBarrierArm(0, 10)
	m.ObserveBarrierComplete(0, 20, pipeline.BoundaryCause(0))
	if err := m.Err(); err != nil {
		t.Fatalf("pre-crash outstanding store held a post-crash barrier: %v", err)
	}
	if got := m.Committed(0); got == 0 {
		t.Fatal("golden model position lost across the crash")
	}
}

// TestResumeFastForward: New with startAt must seed the golden model with
// the committed prefix, so a resumed machine's first commit checks against
// the right state.
func TestResumeFastForward(t *testing.T) {
	p := testProg()
	start := 3
	m := New([]*isa.Program{p}, []int{start})
	evs := goldenEvents(p)
	feed(m, evs[start:])
	if err := m.Err(); err != nil {
		t.Fatalf("resumed stream diverged: %v", err)
	}
	if got := m.Committed(0); got != p.Len() {
		t.Fatalf("resumed oracle advanced to %d, want %d", got, p.Len())
	}
}

// TestReportDeterminism: identical event feeds must marshal to identical
// JSON — divergence reports are CI artifacts diffed across runs.
func TestReportDeterminism(t *testing.T) {
	build := func() []byte {
		p := testProg()
		evs := goldenEvents(p)
		evs[2].DstVal = 0
		m := New([]*isa.Program{p}, nil)
		feed(m, evs)
		b, err := json.Marshal(m.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Fatalf("reports differ:\n%s\n%s", a, b)
	}
}
