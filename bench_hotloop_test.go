package ppa

// Hot-loop and sweep-engine benchmarks: the per-cycle cost of
// Core.Step+Hierarchy.Tick (the quantity the allocation-free refactor
// targets), and the torture sweep's sequential-vs-parallel wall clock.
// TestCoreStepAllocCeiling is the CI gate that keeps the cycle loop
// allocation-free. End-to-end throughput is measured and gated with
// perfbench (perfbench/README.md, .github/perf-gate.sh).

import (
	"context"
	"testing"
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
