package ppa

// Hot-loop and sweep-engine benchmarks: the per-cycle cost of
// Core.Step+Hierarchy.Tick (the quantity the allocation-free refactor
// targets), and the torture sweep's sequential-vs-parallel wall clock.
// TestCoreStepAllocCeiling is the CI gate that keeps the cycle loop
// allocation-free, TestHierarchyAssemblyBytes the one that keeps building
// and power-failing a cache hierarchy cheap, and TestTortureSweepAllocBytes
// and TestLitmusScheduleAllocBytes the ones that keep a torture point's and
// a litmus schedule's footprints small. End-to-end throughput is measured
// and gated with perfbench (perfbench/README.md, .github/perf-gate.sh).

import (
	"context"
	"runtime"
	"testing"

	"ppa/internal/cache"
	"ppa/internal/litmus"
	"ppa/internal/nvm"
)

// coreStepAllocCeiling is the committed allocs-per-cycle budget for a warm
// single-core PPA system. The refactored loop measures ~0.01 (the residue
// is amortized map growth in the volatile dirty-word layer); the ceiling
// leaves slack for noise while still failing on any per-cycle allocation
// sneaking back in (the old word-map loop sat around 1.5).
const coreStepAllocCeiling = 0.25

// BenchmarkCoreStep measures one cycle of a warm single-core PPA system —
// the simulator's innermost loop. allocs/op is the headline number: it must
// stay ~0.
func BenchmarkCoreStep(b *testing.B) {
	rc := RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 2_000_000}
	sys, err := NewSystem(rc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.RunUntil(20_000); err != nil { // warm caches and queues
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := sys.RunUntil(sys.Cycle() + 1)
		if err != nil {
			b.Fatal(err)
		}
		if done {
			b.StopTimer()
			if sys, err = NewSystem(rc); err != nil {
				b.Fatal(err)
			}
			if _, err = sys.RunUntil(20_000); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// TestCoreStepAllocCeiling is the allocation regression gate for the cycle
// loop. It fails when a warm system's per-cycle allocation average exceeds
// the committed ceiling, for PPA, for every scheme with a persist backend
// (Capri's redo buffer, the log schemes' log path), for sb-gate's boundary
// burst and for ReplayCache's clwb-held store-queue release.
func TestCoreStepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	for _, c := range []struct {
		name string
		rc   RunConfig
	}{
		{"ppa", RunConfig{Scheme: SchemePPA}},
		{"capri", RunConfig{Scheme: SchemeCapri}},
		{"undolog", RunConfig{Scheme: SchemeUndoLog}},
		{"redotxn", RunConfig{Scheme: SchemeRedoTxn}},
		{"htpm", RunConfig{Scheme: SchemeHTPM}},
		{"sb-gate", RunConfig{Scheme: SchemeSBGate}},
		{"replaycache", RunConfig{Scheme: SchemeReplayCache}},
		{"inorder-ppa", RunConfig{Scheme: SchemePPA, Customize: inOrderPPA}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rc := c.rc
			rc.App, rc.InstsPerThread = "gcc", 500_000
			sys, err := NewSystem(rc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunUntil(20_000); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(20_000, func() {
				if _, err := sys.RunUntil(sys.Cycle() + 1); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.4f allocs/cycle", avg)
			if avg > coreStepAllocCeiling {
				t.Fatalf("hot loop allocates %.3f objects/cycle, ceiling %.2f — "+
					"a per-cycle allocation crept back into Core.Step/Hierarchy.Tick",
					avg, coreStepAllocCeiling)
			}
		})
	}
}

// assemblyBytesCeiling bounds the bytes that building a Table 2 hierarchy
// may allocate. Tag-array storage and write-buffer slots are allocated on
// first touch, so building costs the tag index and maps (tens of KiB);
// zeroing the whole 16 MiB L2's tag array and a full write-buffer ring per
// core cost about 4.5 MiB.
const assemblyBytesCeiling = 256 << 10

// powerFailBytesCeiling bounds the bytes one PowerFail may allocate. Every
// volatile structure is emptied in place and keeps its storage, so a power
// failure allocates nothing; rebuilding the tag indexes cost about 29 KiB.
const powerFailBytesCeiling = 4 << 10

// TestHierarchyAssemblyBytes is the gate on machine spin-up: cache.New for
// four cores must allocate less than assemblyBytesCeiling, and one
// PowerFail of that hierarchy at most powerFailBytesCeiling. The smallest
// of three measurements is taken, so a stray background allocation cannot
// fail it.
func TestHierarchyAssemblyBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	allocated := func(f func()) uint64 {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	dev := nvm.NewDevice(nvm.DefaultConfig())
	var h *cache.Hierarchy
	build := allocated(func() { h = cache.New(cache.DefaultParams(4), dev, nil, nil) })
	fail := allocated(h.PowerFail)
	t.Logf("cache.New %d B, PowerFail %d B", build, fail)
	if build >= assemblyBytesCeiling {
		t.Errorf("cache.New allocates %d B, ceiling %d B — "+
			"a hierarchy structure is allocated up front again", build, assemblyBytesCeiling)
	}
	if fail > powerFailBytesCeiling {
		t.Errorf("PowerFail allocates %d B, ceiling %d B — "+
			"a power failure rebuilds a structure instead of emptying it", fail, powerFailBytesCeiling)
	}
}

// torturePointBytesCeiling bounds the bytes one point of an mcf lockstep
// torture sweep may allocate, sequential or on two workers. A worker keeps
// a live machine and a crash copy for all its points, over the sweep's one
// shared workload, and cuts its points in cycle order, so a point pays for
// its stretch of the run, the copy, its crash and its recovery: about
// 48 KiB under ppa and 33 KiB under undolog. Resetting one machine and
// re-running the prefix for every point cost about 57 KiB and 48 KiB;
// building a machine per point cost about 280 KiB; giving each of two
// workers a hub that nothing reads cost about 30 KiB more.
const torturePointBytesCeiling = 96 << 10

// parallelTortureSlackBytes bounds what a two-worker sweep may allocate per
// point beyond the sequential sweep: the second worker's two machines
// (about 5–6 KiB per point over 100 points) and the pool's bookkeeping,
// not a machine per point or a hub.
const parallelTortureSlackBytes = 8 << 10

// TestTortureSweepAllocBytes is the gate on a torture point's footprint: a
// 100-point mcf lockstep sweep under ppa and under undolog must allocate
// less than torturePointBytesCeiling per point, both sequentially and on
// two workers, and the two-worker sweep at most parallelTortureSlackBytes
// per point more than the sequential one.
func TestTortureSweepAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	points := TorturePoints(1, 100, 200, 8000)
	for _, s := range []Scheme{SchemePPA, SchemeUndoLog} {
		t.Run(string(s), func(t *testing.T) {
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000, Lockstep: true}
			seq := tortureBytesPerPoint(t, points, func() (*TortureReport, error) {
				return RunTorture(rc, points, nil)
			})
			t.Run("2-workers", func(t *testing.T) {
				par := tortureBytesPerPoint(t, points, func() (*TortureReport, error) {
					return RunTortureParallel(context.Background(), rc, points, 2, nil)
				})
				if par > seq+parallelTortureSlackBytes {
					t.Errorf("a point of a two-worker sweep allocates %d B, %d B more than sequentially, slack %d B — "+
						"a worker builds what it does not use", par, par-seq, parallelTortureSlackBytes)
				}
			})
		})
	}
}

// tortureBytesPerPoint runs a sweep over points and returns the bytes it
// allocated per point, failing t if that reaches torturePointBytesCeiling.
func tortureBytesPerPoint(t *testing.T, points []TorturePoint, sweep func() (*TortureReport, error)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := sweep()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != len(points) {
		t.Fatalf("swept %d of %d points", rep.Points, len(points))
	}
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(points))
	t.Logf("%d B per point", per)
	if per >= torturePointBytesCeiling {
		t.Errorf("a torture point allocates %d B, ceiling %d B — "+
			"a point builds a machine or allocates tag storage it does not touch again",
			per, torturePointBytesCeiling)
	}
	return per
}

// litmusScheduleBytesCeiling bounds the bytes one litmus schedule may
// allocate. The harness keeps one machine per core count, lockstep oracle
// included, and resets it in place between schedules, so a schedule pays
// for its recorder, its golden fronts, the oracle's per-run persist state
// and what its run touches: about 8.5–9 KiB. Building a fresh machine per
// schedule cost 150–190 KB.
const litmusScheduleBytesCeiling = 40 << 10

// TestLitmusScheduleAllocBytes is the gate on a litmus schedule's
// footprint: a generated 16-test corpus at 8 schedules per test under ppa
// and under undolog must allocate less than litmusScheduleBytesCeiling per
// schedule.
func TestLitmusScheduleAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	tests := litmus.Generate(litmus.GenOptions{Seed: 3, Count: 16})
	for _, s := range []Scheme{SchemePPA, SchemeUndoLog} {
		t.Run(string(s), func(t *testing.T) {
			cfg, err := SchemeConfig(s)
			if err != nil {
				t.Fatal(err)
			}
			opt := litmus.RunOptions{Schedules: 8, Seed: 3, Scheme: &cfg}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := litmus.RunCorpus(tests, opt, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TotalSchedules != len(tests)*opt.Schedules {
				t.Fatalf("ran %d of %d schedules", rep.TotalSchedules, len(tests)*opt.Schedules)
			}
			per := (after.TotalAlloc - before.TotalAlloc) / uint64(rep.TotalSchedules)
			t.Logf("%d B per schedule", per)
			if per >= litmusScheduleBytesCeiling {
				t.Fatalf("a litmus schedule allocates %d B, ceiling %d B — "+
					"the harness builds a machine per schedule again",
					per, litmusScheduleBytesCeiling)
			}
		})
	}
}

func benchTorturePoints() (RunConfig, []TorturePoint) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 1000}
	return rc, TorturePoints(1, 100, 200, 3000)
}

func BenchmarkTortureSweepSequential(b *testing.B) {
	rc, points := benchTorturePoints()
	for i := 0; i < b.N; i++ {
		rep, err := RunTorture(rc, points, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Points != len(points) {
			b.Fatal("short sweep")
		}
	}
}

func BenchmarkTortureSweepParallel(b *testing.B) {
	rc, points := benchTorturePoints()
	for i := 0; i < b.N; i++ {
		rep, err := RunTortureParallel(context.Background(), rc, points, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Points != len(points) {
			b.Fatal("short sweep")
		}
	}
}
