package ppa

// Hot-loop and sweep-engine benchmarks: the per-cycle cost of
// Core.Step+Hierarchy.Tick (the quantity the allocation-free refactor
// targets), and the torture sweep's sequential-vs-parallel wall clock.
// TestCoreStepAllocCeiling is the CI gate that keeps the cycle loop
// allocation-free, TestHierarchyAssemblyBytes the one that keeps building
// and power-failing a cache hierarchy cheap, and TestTortureSweepAllocBytes
// the one that keeps a torture point's footprint small. End-to-end
// throughput is measured and gated with perfbench (perfbench/README.md,
// .github/perf-gate.sh).

import (
	"context"
	"runtime"
	"testing"

	"ppa/internal/cache"
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
	for _, s := range []Scheme{SchemePPA, SchemeCapri, SchemeUndoLog, SchemeRedoTxn, SchemeHTPM,
		SchemeSBGate, SchemeReplayCache} {
		t.Run(string(s), func(t *testing.T) {
			sys, err := NewSystem(RunConfig{App: "gcc", Scheme: s, InstsPerThread: 500_000})
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

// powerFailBytesCeiling bounds the bytes one PowerFail may allocate. The
// tag arrays are emptied in place and keep their storage, so a power
// failure costs the write buffers' and the DRAM cache's small headers;
// rebuilding the tag indexes cost about 29 KiB.
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

// torturePointBytesCeiling bounds the bytes one point of a sequential mcf
// lockstep torture sweep may allocate. A point builds a machine whose tag
// arrays store only the sets it touches, over the sweep's one shared
// workload, and allocates about 280 KiB. Paging the L2's tags in 16-set
// pages and regenerating the workload at every point cost about 850 KiB;
// regenerating the workload alone costs about 70 KiB a point.
const torturePointBytesCeiling = 450 << 10

// TestTortureSweepAllocBytes is the gate on a torture point's footprint: a
// sequential 100-point mcf lockstep sweep under ppa and under undolog must
// allocate less than torturePointBytesCeiling per point.
func TestTortureSweepAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	points := TorturePoints(1, 100, 200, 8000)
	for _, s := range []Scheme{SchemePPA, SchemeUndoLog} {
		t.Run(string(s), func(t *testing.T) {
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000, Lockstep: true}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := RunTorture(rc, points, nil)
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
				t.Fatalf("a torture point allocates %d B, ceiling %d B — "+
					"a machine allocates tag storage it does not touch again",
					per, torturePointBytesCeiling)
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
