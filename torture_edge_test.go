package ppa

import (
	"encoding/json"
	"math/rand"
	"testing"

	"ppa/internal/mutation"
)

// edgePoints is a torture sweep in shuffled cycle order with repeated
// cycles (the same cut under another fault) and cuts long after an mcf run
// of 2000 instructions completes.
func edgePoints() []TorturePoint {
	points := TorturePoints(3, 24, 200, 8000)
	for i, p := range points[:6] {
		q := points[len(points)-1-i]
		q.Cycle = p.Cycle
		points = append(points, q)
	}
	for _, c := range []uint64{60_000, 90_000} {
		p := points[0]
		p.Cycle = c
		points = append(points, p)
	}
	rand.New(rand.NewSource(7)).Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	return points
}

// TestTortureSweepEdgeCases runs edgePoints through the sweeps and through
// one crash driver, with and without a seeded lockstep divergence that
// strikes before later cuts. Every verdict, every crash state and every
// flight-recorder bundle must be what per-point fresh machines produce.
func TestTortureSweepEdgeCases(t *testing.T) {
	points := edgePoints()
	for _, s := range []Scheme{SchemePPA, SchemeUndoLog} {
		t.Run(string(s), func(t *testing.T) {
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000, Lockstep: true}
			checkResetPointsMatchFresh(t, rc, points)
			outs := checkSweepsMatchFresh(t, rc, points)
			completed := 0
			for _, o := range outs {
				if o.CompletedBeforeFailure {
					completed++
				}
			}
			if completed < 2 {
				t.Fatalf("%d points cut after the run completed, want at least 2", completed)
			}
		})
	}
	for _, m := range []mutation.Mutation{mutation.RenameCRTStaleTag, mutation.CacheCoalesceDropWord} {
		t.Run("divergence/"+m.String(), func(t *testing.T) {
			mutation.Enable(m)
			defer mutation.Disable()
			rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Lockstep: true}
			checkResetPointsMatchFresh(t, rc, points)
			checkSweepsMatchFresh(t, rc, points)
			checkSweepBundlesMatchFresh(t, rc, points)
			checkDivergedMachineHalts(t, rc, points)
		})
	}
}

// checkDivergedMachineHalts cuts points in cycle order on one crash driver
// and requires that once the live machine diverges, no later cut steps it
// further: every later verdict reports the same divergence at the same
// cycle.
func checkDivergedMachineHalts(t *testing.T, rc RunConfig, points []TorturePoint) {
	t.Helper()
	r := &crashRun{rc: rc}
	var halted *crashVerdict
	for _, i := range cycleOrder(points) {
		v, err := r.cut(points[i], false)
		if v == nil {
			t.Fatalf("point %v: %v", points[i], err)
		}
		switch {
		case halted != nil:
			if v.cycle != halted.cycle || v.violation != halted.violation {
				t.Fatalf("point %v after a divergence at cycle %d: verdict at cycle %d, %q", points[i], halted.cycle, v.cycle, v.violation)
			}
		case r.halt != nil:
			halted = v
		}
	}
	if halted == nil {
		t.Fatal("the seeded bug never diverged the live machine")
	}
}

// TestCrashCopyCarriesAcceptTail checks that the crashed copy's accept tail
// starts from everything the live machine's tail saw: a bundle captured on
// the copy carries the accepts that led up to the cut.
func TestCrashCopyCarriesAcceptTail(t *testing.T) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Lockstep: true,
		Forensics: NewForensicsRecorder("", 1)}
	r := &crashRun{rc: rc}
	for _, c := range []uint64{3000, 6000} {
		v, err := r.cut(TorturePoint{Cycle: c}, false)
		if err != nil || v.completed {
			t.Fatalf("cut at %d: completed %v, %v", c, v != nil && v.completed, err)
		}
		live, down := r.ftail.Tail(), r.dtail.Tail()
		if len(live) == 0 || r.ftail.Total() != r.dtail.Total() {
			t.Fatalf("cut at %d: live tail saw %d accepts, the copy's %d", c, r.ftail.Total(), r.dtail.Total())
		}
		g, _ := json.Marshal(down)
		w, _ := json.Marshal(live)
		if string(g) != string(w) {
			t.Fatalf("cut at %d: the copy's accept tail differs from the live machine's", c)
		}
	}
}
