package ppa

import (
	"testing"
	"testing/quick"

	"ppa/internal/mutation"
)

// TestNestedFailureSmoke is the failure-during-recovery companion to
// TestCrashRecoverySmoke: power fails mid-run, then fails again (twice)
// while recovery is replaying the CSQ. Idempotent replay must make the
// re-entered protocol converge to the same consistent committed prefix.
func TestNestedFailureSmoke(t *testing.T) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 4000}
	p := TorturePoint{
		Cycle: 3_000,
		Fault: Fault{Kind: FaultNestedOutage, Param: 3},
		Depth: 2,
	}
	out, err := RunTorturePoint(rc, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("expected the failure to interrupt the run")
	}
	if !out.Injected {
		t.Fatal("nested outages did not strike")
	}
	if !out.Recovered {
		t.Fatalf("nested recovery did not converge (detected as %v)", out.Detected)
	}
	if out.Attempts != p.Depth+1 {
		t.Fatalf("recovery entered %d times, want %d", out.Attempts, p.Depth+1)
	}
	if out.Violation != "" {
		t.Fatalf("violation: %s", out.Violation)
	}
	if out.Inconsistencies != 0 {
		t.Fatalf("nested recovery lost %d committed words", out.Inconsistencies)
	}
}

// TestCorruptionIsDetected exercises one point of every corrupting fault
// class end-to-end: each must be flagged with a typed recovery error, and
// none may be silently recovered.
func TestCorruptionIsDetected(t *testing.T) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 4000}
	for _, k := range []FaultKind{FaultTornCheckpoint, FaultBitFlip, FaultTornWord, FaultDropTail} {
		p := TorturePoint{Cycle: 3_000, Fault: Fault{Kind: k, Param: 137, Seed: 99}}
		out, err := RunTorturePoint(rc, p)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !out.Injected {
			t.Fatalf("%v: fault did not strike", k)
		}
		if out.Detected == nil {
			t.Fatalf("%v: corruption was not detected (recovered=%v)", k, out.Recovered)
		}
		if out.Violation != "" {
			t.Fatalf("%v: violation: %s", k, out.Violation)
		}
		t.Logf("%v detected as: %s", k, out.Detected)
	}
}

// TestScheduleOutcomeConsistentProperty pins Consistent()'s definition:
// it holds exactly when no recovery's verdict has a violation, whatever
// the evidence beside it.
func TestScheduleOutcomeConsistentProperty(t *testing.T) {
	prop := func(violated []bool, lost []uint8) bool {
		o := &ScheduleOutcome{}
		want := true
		for i, bad := range violated {
			v := &CrashVerdict{Point: TorturePoint{Cycle: uint64(i)}, ArchConsistent: true}
			if i < len(lost) {
				v.Inconsistencies = int(lost[i])
			}
			if bad {
				v.fail("committed-prefix", "committed-prefix violation")
			}
			o.Verdicts = append(o.Verdicts, v)
			want = want && !bad
		}
		return o.Consistent() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTortureSweepSmoke runs a miniature version of the ppatorture CLI
// sweep — every fault class, many parameters — and requires a clean
// scorecard: all corrupting injections detected, all nested outages
// recovered, zero violations.
func TestTortureSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("torture sweep is slow")
	}
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 1000}
	points := TorturePoints(7, 40, 200, 2500)
	rep, err := RunTorture(rc, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("%d violations, first: %+v", len(rep.Violations), rep.Violations[0])
	}
	if rep.Injected == 0 || rep.Detected == 0 || rep.Recovered == 0 {
		t.Fatalf("sweep too weak: %+v", rep)
	}
	for kind, n := range rep.ByKind {
		if n == 0 {
			t.Fatalf("kind %s got no coverage", kind)
		}
	}
}

// TestTortureConvictsCheckpointDropCSQRegs: a dump that drops the CSQ's
// registers is undamaged by any fault, so recovery's typed refusal of it is
// a spurious detection, not a pass. The default sweep (mcf, 2 000 insts,
// 30 points, seed 1, lockstep) must report violations under the seeded
// bug, nested outages included, and none without it. Not parallel: the
// seeded-bug registry is process-global.
func TestTortureConvictsCheckpointDropCSQRegs(t *testing.T) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 2_000, Lockstep: true}
	points := TorturePoints(1, 30, 200, 8_000)
	clean, err := RunTorture(rc, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(clean.Violations); n != 0 {
		t.Fatalf("unmutated sweep: %d violations, first %q", n, clean.Violations[0].Violation)
	}
	mutation.Enable(mutation.CheckpointDropCSQRegs)
	defer mutation.Disable()
	rep, err := RunTorture(rc, points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatalf("sweep under checkpoint-drop-csq-regs passed every point (%d detected)", rep.Detected)
	}
	nested := 0
	for _, v := range rep.Violations {
		if v.Point.Fault.Kind == FaultNestedOutage {
			nested++
		}
	}
	if nested == 0 {
		t.Fatal("no nested-outage point convicted the refused undamaged dump")
	}
}
