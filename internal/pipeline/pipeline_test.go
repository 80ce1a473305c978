package pipeline

import (
	"testing"

	"ppa/internal/cache"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// buildCore assembles a single core over a fresh hierarchy.
func buildCore(t *testing.T, prog *isa.Program, scheme persist.Config,
	mutate func(*Config)) (*Core, *cache.Hierarchy) {
	t.Helper()
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hp := cache.DefaultParams(1)
	hier := cache.New(hp, dev, workload.WarmResident, workload.L2Resident)
	cfg := DefaultConfig(scheme)
	if mutate != nil {
		mutate(&cfg)
	}
	core, err := New(cfg, prog, hier, persist.SchemeFor(scheme).NewBackend(1, dev))
	if err != nil {
		t.Fatal(err)
	}
	return core, hier
}

// runCore drives a core to completion, ticking its hierarchy and persist
// backend.
func runCore(t *testing.T, c *Core, h *cache.Hierarchy, maxCycles uint64) {
	t.Helper()
	for cyc := uint64(0); !c.Done(); cyc++ {
		if cyc >= maxCycles {
			t.Fatalf("core wedged: %d/%d committed after %d cycles",
				c.Committed(), c.Program().Len(), cyc)
		}
		h.Tick(cyc)
		tickBackend(c, cyc)
		c.Step(cyc)
	}
}

// tickBackend drains the core's persist backend, as the machine does every
// cycle.
func tickBackend(c *Core, cyc uint64) {
	if c.backend != nil {
		c.backend.Tick(cyc)
	}
}

func smallProg(name string, n int) *isa.Program {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	prog, err := workload.GenerateThread(p, n, 0)
	if err != nil {
		panic(err)
	}
	return prog
}

func TestBaselineCompletes(t *testing.T) {
	prog := smallProg("gcc", 5000)
	c, h := buildCore(t, prog, persist.BaselineDefault(), nil)
	runCore(t, c, h, 10_000_000)
	if c.Committed() != prog.Len() {
		t.Fatalf("committed %d/%d", c.Committed(), prog.Len())
	}
	st := c.Stats()
	if st.Insts != uint64(prog.Len()) {
		t.Fatalf("stats insts %d", st.Insts)
	}
	if st.IPC() <= 0 || st.IPC() > float64(c.cfg.Width) {
		t.Fatalf("implausible IPC %v", st.IPC())
	}
	if st.Regions != 0 {
		t.Fatal("baseline must not form regions")
	}
}

func TestPPAFormsRegions(t *testing.T) {
	prog := smallProg("gcc", 20000)
	c, h := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, c, h, 10_000_000)
	st := c.Stats()
	if st.Regions == 0 {
		t.Fatal("PPA must form regions")
	}
	if st.CSQMaxDepth == 0 || st.CSQMaxDepth > 40 {
		t.Fatalf("CSQ depth %d out of range", st.CSQMaxDepth)
	}
	if avg := st.AvgRegionLen(); avg < 50 || avg > 5000 {
		t.Fatalf("region length %v implausible", avg)
	}
}

func TestPPALCPCTracksCommit(t *testing.T) {
	prog := smallProg("sjeng", 3000)
	c, h := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, c, h, 10_000_000)
	want := prog.Insts[prog.Len()-1].PC
	if c.LCPC() != want {
		t.Fatalf("LCPC %#x, want %#x", c.LCPC(), want)
	}
}

func TestStoreIntegrityInvariantHolds(t *testing.T) {
	prog := smallProg("bzip2", 20000)
	c, h := buildCore(t, prog, persist.PPADefault(), nil)
	for cyc := uint64(0); !c.Done() && cyc < 10_000_000; cyc++ {
		h.Tick(cyc)
		c.Step(cyc)
		if cyc%1000 == 0 {
			if err := c.CheckStoreIntegrity(); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
		}
	}
	if err := c.CheckStoreIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestCSQNeverExceedsCapacity(t *testing.T) {
	scheme := persist.PPADefault()
	scheme.CSQEntries = 10
	prog := smallProg("lbm", 10000)
	c, h := buildCore(t, prog, scheme, nil)
	for cyc := uint64(0); !c.Done() && cyc < 10_000_000; cyc++ {
		h.Tick(cyc)
		c.Step(cyc)
		if len(c.CSQ()) > 10 {
			t.Fatalf("CSQ overflow: %d entries", len(c.CSQ()))
		}
	}
	if c.Stats().BoundaryCounts[BoundaryCSQ] == 0 {
		t.Fatal("a 10-entry CSQ must force implicit boundaries")
	}
}

func TestBoundaryCausesAccounted(t *testing.T) {
	prog := smallProg("water-ns", 20000) // has sync primitives
	c, h := buildCore(t, prog, persist.PPADefault(), func(cfg *Config) {
		cfg.Threads = 8
	})
	runCore(t, c, h, 20_000_000)
	st := c.Stats()
	var total uint64
	for _, n := range st.BoundaryCounts {
		total += n
	}
	if total != st.Regions {
		t.Fatalf("boundary causes %d != regions %d", total, st.Regions)
	}
	if st.BoundaryCounts[BoundarySync] == 0 {
		t.Fatal("sync primitives must close regions")
	}
}

func TestFunctionalEquivalenceAcrossSchemes(t *testing.T) {
	// Every scheme must commit the same architectural results — timing
	// differs, values must not.
	prog := smallProg("xz", 8000)
	golden := isa.RunGolden(prog, -1)

	for _, scheme := range []persist.Config{
		persist.BaselineDefault(), persist.PPADefault(),
		persist.ReplayCacheDefault(), persist.EADRDefault(),
	} {
		c, h := buildCore(t, prog, scheme, nil)
		runCore(t, c, h, 30_000_000)
		for i := 0; i < isa.NumIntRegs; i++ {
			r := isa.Int(i)
			if got, want := c.Renamer().CommittedArchValue(r), golden.Regs.Read(r); got != want {
				t.Fatalf("%s: %v = %#x, golden %#x", scheme.Kind, r, got, want)
			}
		}
	}
}

func TestPPADirtyDataDurableAtCompletion(t *testing.T) {
	// After a full run plus drain, every region boundary has persisted;
	// but the final (open) region's stores are still tracked in the CSQ.
	prog := smallProg("gcc", 5000)
	c, h := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, c, h, 10_000_000)
	golden := isa.RunGolden(prog, -1)
	dev := h.Device()
	missing := 0
	golden.Mem.Range(func(addr, want uint64) bool {
		if dev.ReadWord(addr) != want {
			missing++
		}
		return true
	})
	// The unpersisted residue must be covered exactly by live CSQ entries.
	live := map[uint64]bool{}
	for _, e := range c.CSQ() {
		live[e.Addr] = true
	}
	golden.Mem.Range(func(addr, want uint64) bool {
		if dev.ReadWord(addr) != want && !live[addr] {
			t.Fatalf("addr %#x stale in NVM and not in CSQ", addr)
		}
		return true
	})
}

func TestReplayCacheHoldsSQUntilAck(t *testing.T) {
	prog := smallProg("sjeng", 8000)
	rc, hrc := buildCore(t, prog, persist.ReplayCacheDefault(), nil)
	runCore(t, rc, hrc, 40_000_000)
	base, hb := buildCore(t, prog, persist.BaselineDefault(), nil)
	runCore(t, base, hb, 40_000_000)
	if rc.Stats().Cycles <= base.Stats().Cycles {
		t.Fatal("ReplayCache must be slower than baseline")
	}
	if rc.Stats().Regions == 0 {
		t.Fatal("ReplayCache must form fixed regions")
	}
	if got := rc.Stats().AvgRegionLen(); got < 10 || got > 15 {
		t.Fatalf("ReplayCache region length %v, want ~12", got)
	}
}

func TestCapriUsesRedoPath(t *testing.T) {
	prog := smallProg("sjeng", 8000)
	c, h := buildCore(t, prog, persist.CapriDefault(), nil)
	runCore(t, c, h, 40_000_000)
	if c.backend.Accepts == 0 {
		t.Fatal("Capri must route stores through the redo path")
	}
	if got := c.Stats().AvgRegionLen(); got < 25 || got > 33 {
		t.Fatalf("Capri region length %v, want ~29", got)
	}
	// Durability through the redo path.
	golden := isa.RunGolden(prog, -1)
	var bad int
	golden.Mem.Range(func(addr, want uint64) bool {
		if h.Device().ReadWord(addr) != want {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d words not durable through redo path", bad)
	}
}

func TestStartAtResumesMidProgram(t *testing.T) {
	prog := smallProg("gcc", 4000)
	c, h := buildCore(t, prog, persist.PPADefault(), func(cfg *Config) {
		cfg.StartAt = 2000
	})
	runCore(t, c, h, 10_000_000)
	if c.Committed() != prog.Len() {
		t.Fatal("resumed core must finish the trace")
	}
	if c.Stats().Insts != 2000 {
		t.Fatalf("resumed core committed %d, want 2000", c.Stats().Insts)
	}
	// Architectural state equals the full golden run.
	golden := isa.RunGolden(prog, -1)
	for i := 0; i < isa.NumIntRegs; i++ {
		r := isa.Int(i)
		if got, want := c.Renamer().CommittedArchValue(r), golden.Regs.Read(r); got != want {
			t.Fatalf("%v = %#x, want %#x", r, got, want)
		}
	}
}

func TestStrictBarrierIsSlower(t *testing.T) {
	prog := smallProg("hmmer", 15000)
	relaxed, h1 := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, relaxed, h1, 40_000_000)

	strict := persist.PPADefault()
	strict.Barrier = persist.BarrierFullDrain
	sc, h2 := buildCore(t, prog, strict, nil)
	runCore(t, sc, h2, 40_000_000)

	if sc.Stats().Cycles < relaxed.Stats().Cycles {
		t.Fatalf("strict barrier faster than relaxed: %d vs %d",
			sc.Stats().Cycles, relaxed.Stats().Cycles)
	}
}

func TestSyncStorePersistAblation(t *testing.T) {
	prog := smallProg("lbm", 8000)
	async, h1 := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, async, h1, 40_000_000)

	sync := persist.PPADefault()
	sync.SyncStorePersist = true
	sc, h2 := buildCore(t, prog, sync, nil)
	runCore(t, sc, h2, 100_000_000)

	if sc.Stats().Cycles <= async.Stats().Cycles {
		t.Fatal("synchronous persistence must cost cycles")
	}
}

func TestMaskAllOperandsAblation(t *testing.T) {
	// A constrained register file makes the extra masked registers bind:
	// with the default file the CSQ fills first and both variants form
	// identical regions.
	small := func(cfg *Config) {
		cfg.Rename.IntPhysRegs = 150
		cfg.Rename.FPPhysRegs = 150
	}
	prog := smallProg("bzip2", 15000)
	abl := persist.PPADefault()
	abl.MaskAllOperands = true
	c, h := buildCore(t, prog, abl, small)
	runCore(t, c, h, 40_000_000)
	def, h2 := buildCore(t, prog, persist.PPADefault(), small)
	runCore(t, def, h2, 40_000_000)
	// Masking more registers drains the free list faster: shorter regions.
	if c.Stats().AvgRegionLen() >= def.Stats().AvgRegionLen() {
		t.Fatalf("mask-all should shorten regions: %v vs %v",
			c.Stats().AvgRegionLen(), def.Stats().AvgRegionLen())
	}
}

func TestValueCSQVariant(t *testing.T) {
	abl := persist.PPADefault()
	abl.ValueCSQ = true
	prog := smallProg("gcc", 6000)
	c, h := buildCore(t, prog, abl, nil)
	for cyc := uint64(0); !c.Done() && cyc < 10_000_000; cyc++ {
		h.Tick(cyc)
		c.Step(cyc)
	}
	for _, e := range c.CSQ() {
		if !e.ValueBearing {
			t.Fatal("ValueCSQ entries must carry values")
		}
		if e.Phys.Valid() {
			t.Fatal("ValueCSQ entries must not pin registers")
		}
	}
	// No register should be masked in this variant.
	if c.Renamer().MaskedCount() != 0 {
		t.Fatal("ValueCSQ must not use MaskReg")
	}
}

func TestSmallPRFShortensRegions(t *testing.T) {
	prog := smallProg("hmmer", 20000)
	small, h1 := buildCore(t, prog, persist.PPADefault(), func(cfg *Config) {
		cfg.Rename.IntPhysRegs = 80
		cfg.Rename.FPPhysRegs = 80
	})
	runCore(t, small, h1, 40_000_000)
	def, h2 := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, def, h2, 40_000_000)
	if small.Stats().AvgRegionLen() >= def.Stats().AvgRegionLen() {
		t.Fatalf("80/80 regions (%v) should be shorter than default (%v)",
			small.Stats().AvgRegionLen(), def.Stats().AvgRegionLen())
	}
}

func TestConfigValidation(t *testing.T) {
	prog := smallProg("gcc", 100)
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hier := cache.New(cache.DefaultParams(1), dev, nil, nil)

	bad := DefaultConfig(persist.CapriDefault())
	if _, err := New(bad, prog, hier, nil); err == nil {
		t.Fatal("Capri without redo path must be rejected")
	}
	for _, s := range []persist.Config{persist.UndoLogDefault(), persist.RedoTxnDefault(), persist.HTPMDefault()} {
		if _, err := New(DefaultConfig(s), prog, hier, nil); err == nil {
			t.Fatalf("%s without a log path must be rejected", s.Kind)
		}
	}
	zero := DefaultConfig(persist.BaselineDefault())
	zero.Width = 0
	if _, err := New(zero, prog, hier, nil); err == nil {
		t.Fatal("zero width must be rejected")
	}
	contradictory := DefaultConfig(persist.PPADefault())
	contradictory.Scheme.FixedRegionLen = 5
	if _, err := New(contradictory, prog, hier, nil); err == nil {
		t.Fatal("invalid scheme must be rejected")
	}
}

func TestDeterminism(t *testing.T) {
	prog := smallProg("mcf", 10000)
	run := func() uint64 {
		c, h := buildCore(t, prog, persist.PPADefault(), nil)
		runCore(t, c, h, 40_000_000)
		return c.Stats().Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}

func TestFreeRegSampling(t *testing.T) {
	prog := smallProg("gcc", 3000)
	c, h := buildCore(t, prog, persist.BaselineDefault(), func(cfg *Config) {
		cfg.SampleFreeRegs = true
	})
	runCore(t, c, h, 10_000_000)
	st := c.Stats()
	if st.FreeInt == nil || st.FreeInt.Total() == 0 {
		t.Fatal("free-reg CDF not sampled")
	}
	if st.FreeInt.Total() != st.Cycles {
		t.Fatalf("samples %d != cycles %d", st.FreeInt.Total(), st.Cycles)
	}
	if st.FreeInt.At(180-16) < 1 {
		t.Fatal("free count exceeds the physical file")
	}
}

func TestSBGateAlternative(t *testing.T) {
	// Section 6's rejected design: gate retired stores in the SB until the
	// region persists. It must be functionally crash-consistent but cost
	// more than PPA (SQ pressure + bursty region-end persistence).
	prog := smallProg("lbm", 12000)
	gate, h := buildCore(t, prog, persist.SBGateDefault(), nil)
	runCore(t, gate, h, 60_000_000)

	ppaCore, h2 := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, ppaCore, h2, 60_000_000)

	if gate.Stats().Regions == 0 {
		t.Fatal("SB gating must form regions at SB-full")
	}
	if gate.Stats().Cycles < ppaCore.Stats().Cycles {
		t.Fatalf("SB gating (%d cycles) should not beat PPA (%d cycles)",
			gate.Stats().Cycles, ppaCore.Stats().Cycles)
	}
	// Regions are bounded by the 56-entry SB.
	if s := gate.Stats().RegionStores.Mean(); s > 56 {
		t.Fatalf("gated region has %v stores — exceeds the SB", s)
	}
	// Every entry is value-bearing; MaskReg is never used.
	if gate.Renamer().MaskedCount() != 0 {
		t.Fatal("SB gating must not touch MaskReg")
	}
	// Functional equivalence still holds.
	golden := isa.RunGolden(prog, -1)
	for i := 0; i < isa.NumIntRegs; i++ {
		r := isa.Int(i)
		if got, want := gate.Renamer().CommittedArchValue(r), golden.Regs.Read(r); got != want {
			t.Fatalf("%v = %#x, want %#x", r, got, want)
		}
	}
}

func TestSBGateSQPressureShortensRegions(t *testing.T) {
	// Gated stores hold their SQ entries until the boundary, so a small SQ
	// caps the region length far below PPA's dynamically formed regions —
	// Section 6's point that the SB cannot be enlarged cheaply.
	small := func(cfg *Config) { cfg.SQSize = 24 }
	prog := smallProg("water-ns", 10000)
	gate, h := buildCore(t, prog, persist.SBGateDefault(), small)
	runCore(t, gate, h, 60_000_000)
	ppaCore, h2 := buildCore(t, prog, persist.PPADefault(), small)
	runCore(t, ppaCore, h2, 60_000_000)
	if gate.Stats().AvgRegionLen() >= ppaCore.Stats().AvgRegionLen() {
		t.Fatalf("gated regions (%.0f insts) should be shorter than PPA's (%.0f)",
			gate.Stats().AvgRegionLen(), ppaCore.Stats().AvgRegionLen())
	}
	if gate.Stats().RegionStores.Mean() > 24 {
		t.Fatalf("gated region stores %.1f exceed the SQ",
			gate.Stats().RegionStores.Mean())
	}
}

func TestRegionTrace(t *testing.T) {
	prog := smallProg("gcc", 15000)
	c, h := buildCore(t, prog, persist.PPADefault(), func(cfg *Config) {
		cfg.TraceRegions = true
	})
	runCore(t, c, h, 40_000_000)
	st := c.Stats()
	if uint64(len(st.RegionTrace)) != st.Regions {
		t.Fatalf("trace has %d records for %d regions", len(st.RegionTrace), st.Regions)
	}
	var prevEnd uint64
	totalInsts := 0
	for i, r := range st.RegionTrace {
		if r.EndCycle < prevEnd {
			t.Fatalf("record %d out of order", i)
		}
		prevEnd = r.EndCycle
		if r.Insts < 0 || r.Stores > r.Insts {
			t.Fatalf("record %d inconsistent: %+v", i, r)
		}
		totalInsts += r.Insts
	}
	// Every committed instruction except the open tail region is traced.
	if totalInsts > prog.Len() || totalInsts == 0 {
		t.Fatalf("traced %d insts of %d", totalInsts, prog.Len())
	}
	// Without the flag, no memory is spent.
	c2, h2 := buildCore(t, prog, persist.PPADefault(), nil)
	runCore(t, c2, h2, 40_000_000)
	if c2.Stats().RegionTrace != nil {
		t.Fatal("trace collected without the flag")
	}
}

func TestStructuralInvariantsAcrossSchemes(t *testing.T) {
	prog := smallProg("water-ns", 12000)
	for _, scheme := range []persist.Config{
		persist.BaselineDefault(), persist.PPADefault(),
		persist.ReplayCacheDefault(), persist.CapriDefault(),
		persist.SBGateDefault(),
	} {
		c, h := buildCore(t, prog, scheme, func(cfg *Config) { cfg.Threads = 8 })
		for cyc := uint64(0); !c.Done() && cyc < 100_000_000; cyc++ {
			h.Tick(cyc)
			tickBackend(c, cyc)
			c.Step(cyc)
			if cyc%512 == 0 {
				if err := c.CheckStructural(); err != nil {
					t.Fatalf("%s cycle %d: %v", scheme.Kind, cyc, err)
				}
			}
		}
		if err := c.CheckStructural(); err != nil {
			t.Fatalf("%s final: %v", scheme.Kind, err)
		}
	}
}

func TestRegionClosePathsRecordIdenticalStats(t *testing.T) {
	// The dynamic-region close (tryEndRegion) and the fixed-region close
	// (endFixedRegion) must route through one accounting path: for the same
	// committed region they record identical histogram samples, the same
	// region count, and the same trace record shape. This pins the
	// closeRegionStats extraction — the two persist schemes cannot silently
	// diverge again.
	const insts, stores = 120, 30
	prog := smallProg("gcc", 100)

	dyn, _ := buildCore(t, prog, persist.PPADefault(), func(cfg *Config) {
		cfg.TraceRegions = true
	})
	dyn.regionInsts = insts
	dyn.regionStores = stores
	if !dyn.tryEndRegion(500, BoundaryPRF) {
		t.Fatal("dynamic close must complete with nothing pending")
	}

	fix, _ := buildCore(t, prog, persist.CapriDefault(), func(cfg *Config) {
		cfg.TraceRegions = true
	})
	fix.regionInsts = insts
	fix.regionStores = stores
	fix.endFixedRegion(500)

	for name, c := range map[string]*Core{"dynamic": dyn, "fixed": fix} {
		st := c.Stats()
		if st.Regions != 1 {
			t.Fatalf("%s: regions %d", name, st.Regions)
		}
		if st.RegionOther.N() != 1 || st.RegionOther.Mean() != insts-stores {
			t.Fatalf("%s: RegionOther n=%d mean=%v, want one sample of %d",
				name, st.RegionOther.N(), st.RegionOther.Mean(), insts-stores)
		}
		if st.RegionStores.N() != 1 || st.RegionStores.Mean() != stores {
			t.Fatalf("%s: RegionStores n=%d mean=%v, want one sample of %d",
				name, st.RegionStores.N(), st.RegionStores.Mean(), stores)
		}
		if len(st.RegionTrace) != 1 {
			t.Fatalf("%s: %d trace records", name, len(st.RegionTrace))
		}
		r := st.RegionTrace[0]
		if r.EndCycle != 500 || r.Insts != insts || r.Stores != stores {
			t.Fatalf("%s: trace record %+v", name, r)
		}
		if c.regionInsts != 0 || c.regionStores != 0 {
			t.Fatalf("%s: open-region counters not reset", name)
		}
	}
	if dyn.Stats().BoundaryCounts[BoundaryPRF] != 1 ||
		fix.Stats().BoundaryCounts[BoundaryFixed] != 1 {
		t.Fatal("boundary causes misattributed")
	}
}

func TestFullBackendStallCounter(t *testing.T) {
	// A one-entry backend buffer fills on the second outstanding store. The
	// stall lands in the counter of the backend the scheme persists
	// through: Capri's redo buffer or the log schemes' persist log.
	prog := smallProg("lbm", 4000)
	for _, tc := range []struct {
		scheme persist.Config
		redo   bool
	}{
		{persist.CapriDefault(), true},
		{persist.UndoLogDefault(), false},
		{persist.RedoTxnDefault(), false},
		{persist.HTPMDefault(), false},
	} {
		scheme := tc.scheme
		scheme.RedoBufBytes = min(scheme.RedoBufBytes, 8)
		scheme.LogBufBytes = min(scheme.LogBufBytes, 8)
		c, h := buildCore(t, prog, scheme, nil)
		for cyc := uint64(0); !c.Done() && cyc < 50_000; cyc++ {
			h.Tick(cyc)
			tickBackend(c, cyc)
			c.Step(cyc)
		}
		st := c.Stats()
		full, other := st.LogFullStalls, st.RedoFullStalls
		if tc.redo {
			full, other = other, full
		}
		if full == 0 || other != 0 {
			t.Errorf("%s: redo-full %d, log-full %d stalls", scheme.Kind, st.RedoFullStalls, st.LogFullStalls)
		}
	}
}
