package multicore

import (
	"encoding/json"
	"math/rand"
	"testing"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/recovery"
	"ppa/internal/workload"
)

// run builds a system for (profile, scheme),
// execute instsPerThread instructions per thread, and collect results.
func run(p workload.Profile, scheme persist.Config, instsPerThread int) (*Result, error) {
	w, err := workload.New(p, instsPerThread)
	if err != nil {
		return nil, err
	}
	cfg := DefaultConfig(len(w.Threads), scheme)
	sys, err := NewSystem(cfg, w)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(CycleBudget(instsPerThread)); err != nil {
		return nil, err
	}
	return sys.Collect(), nil
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunSingleCore(t *testing.T) {
	res, err := run(mustProfile(t, "gcc"), persist.PPADefault(), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 1 || res.Insts != 10000 {
		t.Fatalf("cores=%d insts=%d", res.Cores, res.Insts)
	}
	if res.Cycles == 0 || res.IPC() <= 0 {
		t.Fatal("no progress")
	}
}

func TestRunMultiCore(t *testing.T) {
	res, err := run(mustProfile(t, "fft"), persist.PPADefault(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 8 {
		t.Fatalf("cores=%d, want 8", res.Cores)
	}
	if res.Insts != 8*5000 {
		t.Fatalf("insts=%d", res.Insts)
	}
	if len(res.PerCore) != 8 {
		t.Fatal("missing per-core stats")
	}
}

func TestSchemeModesSelectHierarchy(t *testing.T) {
	for _, tc := range []struct {
		scheme persist.Config
		dram   bool // expects a DRAM-cache miss rate to exist
	}{
		{persist.BaselineDefault(), true},
		{persist.EADRDefault(), false},
		{persist.DRAMOnlyDefault(), false},
	} {
		res, err := run(mustProfile(t, "mcf"), tc.scheme, 5000)
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme.Kind, err)
		}
		hasDRAM := res.DRAMCacheMissRate > 0
		if hasDRAM != tc.dram {
			t.Errorf("%s: DRAM-cache usage = %v, want %v", tc.scheme.Kind, hasDRAM, tc.dram)
		}
	}
}

func TestRunTimeoutDetection(t *testing.T) {
	w, err := workload.New(mustProfile(t, "gcc"), 10000)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(DefaultConfig(1, persist.BaselineDefault()), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(10); err == nil {
		t.Fatal("absurd cycle bound must error")
	}
}

func TestRunUntilPartial(t *testing.T) {
	w, _ := workload.New(mustProfile(t, "gcc"), 10000)
	sys, err := NewSystem(DefaultConfig(1, persist.PPADefault()), w)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := sys.RunUntil(500); done {
		t.Fatal("cannot finish 10000 insts in 500 cycles")
	}
	if sys.Cycle() != 500 {
		t.Fatalf("cycle = %d", sys.Cycle())
	}
	if sys.Cores()[0].Committed() == 0 {
		t.Fatal("no progress in 500 cycles")
	}
}

func TestCrashCapturesAllCores(t *testing.T) {
	w, _ := workload.New(mustProfile(t, "fft"), 5000)
	sys, err := NewSystem(DefaultConfig(8, persist.PPADefault()), w)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(8000)
	images := sys.CrashWithOptions(CrashOptions{}).Images
	if len(images) != 8 {
		t.Fatalf("%d images", len(images))
	}
	if sys.Device().ReadCheckpoint() == nil {
		t.Fatal("checkpoint blob not written to NVM")
	}
	for i, im := range images {
		if im.CoreID != i {
			t.Fatalf("image %d has core id %d", i, im.CoreID)
		}
	}
	if sys.Hierarchy().DirtyWordCount() != 0 {
		t.Fatal("volatile state survived the crash")
	}
}

// TestMultiCoreRecoveryOrderIndependence validates the Section 6 claim:
// DRF programs have address-disjoint per-core CSQs, so cores may replay in
// any order and recovery is still correct.
func TestMultiCoreRecoveryOrderIndependence(t *testing.T) {
	build := func() (*System, []*checkpoint.Image) {
		w, _ := workload.New(mustProfile(t, "water-ns"), 6000)
		sys, err := NewSystem(DefaultConfig(8, persist.PPADefault()), w)
		if err != nil {
			t.Fatal(err)
		}
		sys.RunUntil(10_000)
		return sys, sys.CrashWithOptions(CrashOptions{}).Images
	}

	// First: per-core CSQs must be line-disjoint.
	sys, images := build()
	owner := map[uint64]int{}
	for i, im := range images {
		for _, e := range im.CSQ {
			line := isa.LineAlign(e.Addr)
			if prev, ok := owner[line]; ok && prev != i {
				t.Fatalf("CSQ line %#x in cores %d and %d", line, prev, i)
			}
			owner[line] = i
		}
	}

	// Replay in shuffled order across several shuffles; all must verify.
	for trial := 0; trial < 3; trial++ {
		sys2, images2 := build()
		order := rand.New(rand.NewSource(int64(trial))).Perm(len(images2))
		for _, i := range order {
			if _, err := recovery.Replay(sys2.Device(), images2[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, im := range images2 {
			prog := sys2.Cores()[i].Program()
			if n := recovery.CountInconsistencies(sys2.Device(), isa.RunGolden(prog, im.Committed)); n != 0 {
				t.Fatalf("trial %d core %d: %d inconsistent words", trial, i, n)
			}
		}
	}
	_ = sys
}

func TestNewSystemResumed(t *testing.T) {
	prof := mustProfile(t, "gcc")
	w, _ := workload.New(prof, 8000)
	sys, err := NewSystem(DefaultConfig(1, persist.PPADefault()), w)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(10_000)
	images := sys.CrashWithOptions(CrashOptions{}).Images
	if _, err := recovery.Replay(sys.Device(), images[0]); err != nil {
		t.Fatal(err)
	}

	// Resume on the surviving device.
	w2, _ := workload.New(prof, 8000)
	resumed, err := NewSystemResumed(DefaultConfig(1, persist.PPADefault()), w2,
		sys.Device(), []int{images[0].Committed})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	// Final state matches the uninterrupted golden run's stores... once
	// the open region's CSQ residue is accounted, the committed prefix is
	// the whole program.
	res := resumed.Collect()
	if res.Insts != 8000-uint64(images[0].Committed) {
		t.Fatalf("resumed insts %d", res.Insts)
	}

	// Mismatched resume points are rejected.
	if _, err := NewSystemResumed(DefaultConfig(1, persist.PPADefault()), w2,
		sys.Device(), []int{1, 2}); err == nil {
		t.Fatal("wrong resume-point count must error")
	}
}

// TestResetPreconditions: Reset refuses a workload of another thread
// count, a resumed machine and a sampled window, without touching the
// machine, and a Result collected before a Reset keeps its figures.
func TestResetPreconditions(t *testing.T) {
	w, _ := workload.New(mustProfile(t, "gcc"), 2000)
	cfg := DefaultConfig(1, persist.PPADefault())
	sys, err := NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(CycleBudget(2000)); err != nil {
		t.Fatal(err)
	}
	res := sys.Collect()
	w8, _ := workload.New(mustProfile(t, "water-ns"), 100)
	if err := sys.Reset(w8, 0); err == nil {
		t.Fatal("reset onto 8 threads of a 1-core machine must error")
	}
	if sys.Cycle() != res.Cycles || !sys.Done() {
		t.Fatal("a refused reset changed the machine")
	}
	if err := sys.Reset(w, 7); err != nil {
		t.Fatal(err)
	}
	if sys.Cycle() != 0 || sys.Done() || sys.Config().StepSeed != 7 {
		t.Fatalf("reset machine at cycle %d, done %v, step seed %d", sys.Cycle(), sys.Done(), sys.Config().StepSeed)
	}
	if res.PerCore[0].Insts != 2000 {
		t.Fatalf("a reset rewrote a collected Result: %d insts", res.PerCore[0].Insts)
	}

	sys.RunUntil(3000)
	images := sys.CrashWithOptions(CrashOptions{}).Images
	if _, err := recovery.Replay(sys.Device(), images[0]); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSystemResumed(cfg, w, sys.Device(), []int{images[0].Committed})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Reset(w, 0); err == nil {
		t.Fatal("a resumed machine must refuse a reset")
	}

	// A sampled window is built as RunWindow builds it: around the run's
	// surviving device, so the resumed-machine refusal covers it.
	wcfg := cfg
	wcfg.engine = oracle.New(w.Threads, nil)
	window, err := newSystem(wcfg, w, nvm.NewDevice(cfg.NVM), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := window.Reset(w, 0); err == nil {
		t.Fatal("a sampled window must refuse a reset")
	}
}

func TestCollectAggregates(t *testing.T) {
	res, err := run(mustProfile(t, "water-ns"), persist.PPADefault(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgRegionLen() <= 0 || res.AvgRegionStores() <= 0 {
		t.Fatal("region aggregates missing")
	}
	if res.RegionEndStallFrac() < 0 || res.RegionEndStallFrac() > 1 {
		t.Fatalf("stall fraction %v", res.RegionEndStallFrac())
	}
	if res.Workload != "water-ns" {
		t.Fatalf("workload label %q", res.Workload)
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	if _, err := NewSystem(DefaultConfig(1, persist.PPADefault()), &workload.Workload{}); err == nil {
		t.Fatal("empty workload must error")
	}
}

func TestReplayCacheConfigOverrides(t *testing.T) {
	cfg := DefaultConfig(1, persist.ReplayCacheDefault())
	if cfg.Hierarchy.CoalesceWB {
		t.Fatal("clwb path must not coalesce in the WB")
	}
	if cfg.Hierarchy.PersistTransit <= DefaultConfig(1, persist.PPADefault()).Hierarchy.PersistTransit {
		t.Fatal("clwb must walk the hierarchy (longer transit)")
	}
}

func TestEADRFlushOnFailure(t *testing.T) {
	w, _ := workload.New(mustProfile(t, "lbm"), 8000)
	sys, err := NewSystem(DefaultConfig(1, persist.EADRDefault()), w)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(20_000)
	dirtyBefore := sys.Hierarchy().DirtyWordCount()
	sys.CrashWithOptions(CrashOptions{})
	if dirtyBefore == 0 {
		t.Skip("nothing dirty at the crash point")
	}
	if sys.LastCrashFlushBytes() != dirtyBefore*8 {
		t.Fatalf("flushed %d bytes for %d dirty words", sys.LastCrashFlushBytes(), dirtyBefore)
	}
	// The flush made it durable: verify against the committed prefix.
	prog := sys.Cores()[0].Program()
	if n := recovery.CountInconsistencies(sys.Device(), isa.RunGolden(prog, sys.Cores()[0].Committed())); n != 0 {
		t.Fatalf("%d inconsistent words", n)
	}
}

func TestNonEADRSchemesDoNotFlush(t *testing.T) {
	w, _ := workload.New(mustProfile(t, "gcc"), 5000)
	sys, err := NewSystem(DefaultConfig(1, persist.PPADefault()), w)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunUntil(5_000)
	sys.CrashWithOptions(CrashOptions{})
	if sys.LastCrashFlushBytes() != 0 {
		t.Fatal("PPA must not rely on a flush-on-failure battery")
	}
}

// TestCopyFromSampledAndResumed checks what CrashCopy does with machines
// built around a surviving device: it refuses a sampled window either way,
// before changing anything (the window borrows its frontends and oracle
// from the sampled runner), and it reproduces a resumed machine's outage —
// a crash copy of a resumed machine leaves what that machine's own outage
// in place leaves, and refuses a Reset just as its source does.
func TestCopyFromSampledAndResumed(t *testing.T) {
	prof := mustProfile(t, "gcc")
	w, _ := workload.New(prof, 4000)
	cfg := DefaultConfig(1, persist.PPADefault())
	fresh := func() *System {
		sys, err := NewSystem(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	dst := fresh()
	dst.RunUntil(500)
	window := cfg
	window.stops = []int{3000}
	win, err := NewSystem(window, w)
	if err != nil {
		t.Fatal(err)
	}
	win.RunUntil(1000)
	if _, err := dst.CrashCopy(win, CrashOptions{}); err == nil {
		t.Fatal("CrashCopy accepted a sampled window")
	}
	if _, err := win.CrashCopy(dst, CrashOptions{}); err == nil {
		t.Fatal("CrashCopy onto a sampled window succeeded")
	}
	if dst.Cycle() != 500 || win.Cycle() != 1000 {
		t.Fatalf("a refused CrashCopy moved the machines to cycles %d and %d", dst.Cycle(), win.Cycle())
	}

	crashed := fresh()
	crashed.RunUntil(5000)
	images := crashed.CrashWithOptions(CrashOptions{}).Images
	if _, err := recovery.Replay(crashed.Device(), images[0]); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSystemResumed(cfg, w, crashed.Device(), []int{images[0].Committed})
	if err != nil {
		t.Fatal(err)
	}
	resumed.RunUntil(2000)
	outage := func(sys *System, rep *CrashReport) string {
		var encoded [][]byte
		for _, im := range rep.Images {
			encoded = append(encoded, im.Encode())
		}
		dev := sys.Device()
		out, err := json.Marshal([]any{sys.Cycle(), encoded, rep.CheckpointBytes, rep.FullBytes, rep.Torn,
			sys.LastCrashFlushBytes(), dev.ReadCheckpoint(), dev.LogRecords(0), dev.Image().Snapshot(), sys.Collect()})
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	opt := CrashOptions{ShortfallPermille: 400}
	rep, err := dst.CrashCopy(resumed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Reset(w, 0); err == nil {
		t.Fatal("the crash copy of a resumed machine accepted a Reset")
	}
	if outage(dst, rep) != outage(resumed, resumed.CrashWithOptions(opt)) {
		t.Fatal("the crash copy of a resumed machine differs from its outage in place")
	}
}
