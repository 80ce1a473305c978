package ppa

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"ppa/internal/forensics"
	"ppa/internal/mutation"
)

// TestParallelTortureSweepMatchesSequential pins the parallel sweep
// engine's determinism contract: for the same seed, a 4-worker sweep must
// produce a byte-identical report (violations, detection counts,
// reproducers, kind coverage — everything RunTorture aggregates) to the
// sequential sweep, and onPoint must still fire once per point in sweep
// order. The lockstep cases cover the oracle-checked sweep under PPA and a
// log scheme (the settings of the crash-sweep benchmark). Run under -race
// this also proves the workers, each on a machine of its own, share no
// simulator state.
func TestParallelTortureSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("torture sweep is slow")
	}
	cases := []struct {
		name   string
		rc     RunConfig
		points []TorturePoint
	}{
		{"ppa", RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 1000},
			TorturePoints(7, 24, 200, 2500)},
		{"ppa-lockstep", RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 1000, Lockstep: true},
			TorturePoints(7, 8, 200, 2500)},
		{"undolog-lockstep", RunConfig{App: "mcf", Scheme: SchemeUndoLog, InstsPerThread: 1000, Lockstep: true},
			TorturePoints(7, 8, 200, 2500)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkParallelMatchesSequential(t, c.rc, c.points)
		})
	}
}

func checkParallelMatchesSequential(t *testing.T, rc RunConfig, points []TorturePoint) {
	seq, err := RunTorture(rc, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	outOfOrder := false
	par, err := RunTortureParallel(context.Background(), rc, points, 4, func(out *TortureOutcome) {
		i := int(fired.Add(1)) - 1
		if out.Point != points[i] {
			outOfOrder = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := fired.Load(); n != int64(len(points)) {
		t.Fatalf("onPoint fired %d times for %d points", n, len(points))
	}
	if outOfOrder {
		t.Fatal("onPoint fired out of sweep order")
	}

	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqJSON) != string(parJSON) {
		t.Fatalf("parallel sweep diverged from sequential:\nseq: %s\npar: %s",
			seqJSON, parJSON)
	}
}

// TestParallelTortureForensicsCarryTrace: every violation bundle a parallel
// sweep captures carries the divergence report and the tail of its
// worker's trace ring — the evidence a per-worker hub without a ring would
// lose. Not parallel: the seeded-bug registry is process-global.
func TestParallelTortureForensicsCarryTrace(t *testing.T) {
	mutation.Enable(mutation.RenameCRTStaleTag)
	defer mutation.Disable()
	rec := NewForensicsRecorder(t.TempDir(), 0)
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 1000, Lockstep: true, Forensics: rec}
	if _, err := RunTortureParallel(context.Background(), rc, TorturePoints(7, 4, 200, 2500), 2, nil); err != nil {
		t.Fatal(err)
	}
	bundles := rec.Bundles()
	if len(bundles) == 0 {
		t.Fatal("seeded rename bug captured no bundle")
	}
	for i, b := range bundles {
		if len(b.Divergence) == 0 {
			t.Fatalf("bundle %d (%s) has no divergence report", i, b.Meta.Reason)
		}
		if n := len(b.Trace); n == 0 || n > forensics.DefaultTraceTail {
			t.Fatalf("bundle %d carries %d trace events, want 1..%d", i, n, forensics.DefaultTraceTail)
		}
	}
}

// TestParallelTortureWorkerFallback pins that a 1-worker or 1-point
// parallel sweep degenerates to the sequential engine (same code path, so
// trace-carrying hubs keep working).
func TestParallelTortureWorkerFallback(t *testing.T) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 500}
	points := TorturePoints(3, 2, 200, 1500)
	seq, err := RunTorture(rc, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunTortureParallel(context.Background(), rc, points, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Fatalf("1-worker sweep diverged:\n%s\n%s", a, b)
	}
}
