package ppa

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ppa/internal/persist"
	"ppa/internal/pipeline"
)

// TestLockstepCleanAllWorkloads runs every workload profile under the
// differential oracle on the PPA scheme: the machine and the golden model
// must agree on every committed instruction, and the persist-ordering
// checker must see every barrier drain. This is the "lockstep clean on all
// seed workloads" half of the oracle gate.
func TestLockstepCleanAllWorkloads(t *testing.T) {
	for _, app := range Apps() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			res, err := Run(RunConfig{App: app, Scheme: SchemePPA, InstsPerThread: 2000, Lockstep: true})
			if err != nil {
				t.Fatalf("lockstep: %v", err)
			}
			if res.Cycles == 0 {
				t.Fatal("no cycles simulated")
			}
		})
	}
}

// TestLockstepCleanAcrossSchemes runs the oracle over every comparison
// scheme: the commit-stream check applies to all of them, and the persist
// checker must not raise false alarms on schemes with different durability
// paths (sync persists, redo logging, flush-on-failure, no persistence).
func TestLockstepCleanAcrossSchemes(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			if _, err := Run(RunConfig{App: "mcf", Scheme: s, InstsPerThread: 3000, Lockstep: true}); err != nil {
				t.Fatalf("lockstep on %s: %v", s, err)
			}
		})
	}
}

// TestLockstepCrashRecovery crashes an oracle-carrying run and demands the
// post-recovery checks engage and come back clean, through the resumed run.
func TestLockstepCrashRecovery(t *testing.T) {
	rc := RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 6000, Lockstep: true}
	out, err := RunWithFailure(rc, 4000)
	if err != nil {
		t.Fatalf("run with failure: %v", err)
	}
	if out.Completed {
		t.Fatal("workload completed before cycle 4000; failure never struck")
	}
	if !out.OracleChecked {
		t.Fatal("oracle recovery check did not engage")
	}
	if out.OracleErr != nil {
		t.Fatalf("oracle violation on healthy simulator: %v", out.OracleErr)
	}
	if out.Violation != "" {
		t.Fatalf("healthy recovery inconsistent: %+v", out)
	}
	if out.Resumed == nil {
		t.Fatal("no resumed result")
	}
}

// TestEagerFlushAblation covers PPA's eager pre-boundary flush, the one
// retire knob nothing else turns on: it must change timing, keep the
// lockstep oracle clean, and keep a crashed run's recovery consistent.
func TestEagerFlushAblation(t *testing.T) {
	eager := persist.PPADefault()
	eager.EagerFlush = true
	for _, app := range []string{"sjeng", "water-ns"} {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			base, err := Run(RunConfig{App: app, Scheme: SchemePPA, InstsPerThread: 8000})
			if err != nil {
				t.Fatal(err)
			}
			rc := RunConfig{App: app, SchemeOverride: &eager, InstsPerThread: 8000, Lockstep: true}
			res, err := Run(rc)
			if err != nil {
				t.Fatalf("lockstep with eager flush: %v", err)
			}
			if res.Cycles == base.Cycles {
				t.Fatalf("eager flush left cycles unchanged at %d", res.Cycles)
			}
			out, err := RunWithFailure(rc, res.Cycles/2)
			if err != nil {
				t.Fatalf("run with failure: %v", err)
			}
			if out.Completed {
				t.Fatal("failure never struck")
			}
			if out.Violation != "" {
				t.Fatalf("eager-flush recovery inconsistent: %+v", out)
			}
		})
	}
}

// mutationGateReportSHA256 is the SHA-256 of the default campaign's JSON
// report, which is also what `ppaverify -mutations -out` writes, compacted.
// The report quotes every catching check's message (each oracle
// Divergence.String() included) and each crash catch's first violating cut
// and count of violating cuts, so the pin holds the divergence text and the
// every-cycle campaign byte-identical end to end, not just between two runs
// of one binary. The litmus gate's verdicts are the lockstep oracle's
// wherever the oracle convicts: cache-coalesce-stale-word is the oracle's
// barrier-incomplete, at the cycle and state the recorder's own barrier
// check once reported.
const mutationGateReportSHA256 = "dcf4dbd80a915fca34a1059eb396ed81311d992ac82e80b426039a7e98552b28"

// TestMutationGate is the CI oracle gate: every seeded single-site bug must
// be caught by the lockstep oracle or the crash-consistency checks, with no
// false alarms on the unmutated simulator, and the report must match the
// pinned digest.
func TestMutationGate(t *testing.T) {
	rep, err := RunMutationCampaign(MutationCampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BaselineClean {
		t.Fatalf("false alarm on unmutated simulator: %s", rep.BaselineDetail)
	}
	for _, o := range rep.Outcomes {
		if o.Caught {
			t.Logf("caught %-38s by %-14s %s", o.Bug.ID, o.CaughtBy, o.Detail)
		}
	}
	if !rep.AllCaught() {
		t.Fatalf("%s", rep.String())
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != mutationGateReportSHA256 {
		t.Fatalf("campaign report digest %s, want %s:\n%s", got, mutationGateReportSHA256, b)
	}
}

// TestMutationCampaignDeterministic runs the same campaign twice and
// requires byte-identical JSON reports — divergence details, catch sites,
// first violating cuts and cut counts included. This is what makes a gate
// failure in CI reproducible verbatim on a laptop.
func TestMutationCampaignDeterministic(t *testing.T) {
	cc := MutationCampaignConfig{App: "gcc", InstsPerThread: 4000}
	run := func() []byte {
		rep, err := RunMutationCampaign(cc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("campaign reports differ between identical runs:\n%s\n%s", a, b)
	}
}

// TestTortureLockstepDeterministic runs an oracle-checked torture sweep
// twice from one seed and requires byte-identical reports, covering the
// torture path's oracle wiring (divergences as violations, the
// post-recovery image check) as well as the sweep's own determinism.
func TestTortureLockstepDeterministic(t *testing.T) {
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 4000, Lockstep: true}
	points := TorturePoints(11, 6, 2000, 12000)
	run := func() []byte {
		rep, err := RunTorture(rc, points, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("torture reports differ between identical runs:\n%s\n%s", a, b)
	}
	var rep TortureReport
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("oracle-checked torture sweep violated on healthy simulator: %+v", rep.Violations[0])
	}
}

// TestVerifyConsistencyRate pins the VerifyApp accounting fix: the
// consistency rate is over interrupted trials only, so trials scheduled
// after completion can no longer inflate it.
func TestVerifyConsistencyRate(t *testing.T) {
	rep, err := VerifyAppOpts(VerifyOptions{
		App: "gcc", Scheme: SchemePPA, InstsPerThread: 8000, Trials: 4, Seed: 99, Lockstep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != rep.Completed+rep.Interrupted {
		t.Fatalf("trials %d != completed %d + interrupted %d", rep.Trials, rep.Completed, rep.Interrupted)
	}
	if rep.Consistent > rep.Interrupted {
		t.Fatalf("consistent %d exceeds interrupted %d: post-completion trials are being counted again",
			rep.Consistent, rep.Interrupted)
	}
	if !rep.OK() || rep.ConsistencyRate() != 1 {
		t.Fatalf("PPA verification failed: %s (rate %.2f)", rep, rep.ConsistencyRate())
	}
	if rep.Interrupted > 0 && rep.OracleChecked != rep.Interrupted {
		t.Fatalf("oracle checked %d of %d interrupted trials", rep.OracleChecked, rep.Interrupted)
	}

	// An all-completed campaign proves nothing and must say so: rate 1 by
	// convention, but zero consistent trials — not Trials many.
	empty := &VerifyReport{Trials: 3, Completed: 3}
	if empty.ConsistencyRate() != 1 || empty.Consistent != 0 {
		t.Fatalf("empty campaign accounting wrong: %+v", empty)
	}
}

// TestRenamePartitionLiveMachine steps a real machine and checks the
// free/CRT/deferred/in-flight partition of every core's physical register
// file at cycle boundaries — the property test's invariant, on the actual
// pipeline's rename traffic instead of a modeled stream.
func TestRenamePartitionLiveMachine(t *testing.T) {
	sys, err := NewSystem(RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 6000})
	if err != nil {
		t.Fatal(err)
	}
	for !sys.Done() {
		done, err := sys.RunUntil(sys.Cycle() + 500)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		for i, core := range sys.Cores() {
			if perr := core.(*pipeline.Core).CheckRenamePartition(); perr != nil {
				t.Fatalf("core %d at cycle %d: %v", i, sys.Cycle(), perr)
			}
		}
		if done {
			break
		}
	}
}

// TestSeededBugRegistry sanity-checks the registry the gate iterates.
func TestSeededBugRegistry(t *testing.T) {
	bugs := SeededBugs()
	if len(bugs) != 14 {
		t.Fatalf("%d seeded bugs, want 14", len(bugs))
	}
	seen := map[string]bool{}
	for _, b := range bugs {
		if b.ID == "" || b.Site == "" || b.Description == "" {
			t.Fatalf("incomplete bug entry: %+v", b)
		}
		if seen[b.ID] {
			t.Fatalf("duplicate bug id %s", b.ID)
		}
		seen[b.ID] = true
	}
}
