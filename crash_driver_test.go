package ppa

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/mutation"
	"ppa/internal/workload"
)

// TestRunWithFailureResumesCustomizedMachine: the resumed tail of a crashed
// run must execute on the machine the caller customized, and the caller's
// hub must keep observing it. A slow machine (one-entry WPQ, 16-entry ROB)
// takes far longer than the Table 2 machine, so a tail that resumed on the
// default machine shows up as a run much shorter than the customized one.
func TestRunWithFailureResumesCustomizedMachine(t *testing.T) {
	const failCycle = 4_000
	custom := func(cfg *MachineConfig) {
		cfg.NVM.WPQEntries = 1
		cfg.Pipeline.ROBSize = 16
	}
	rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 8000, Customize: custom}
	full, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewObsHub(0)
	rc.Obs = hub
	out, err := RunWithFailure(rc, failCycle)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.Resumed == nil {
		t.Fatal("failure did not strike or the run did not resume")
	}
	// Crash plus tail re-executes at least the uncommitted work, so it
	// cannot be meaningfully faster than the uninterrupted customized run.
	if got := failCycle + out.Resumed.Cycles; got < full.Cycles*9/10 {
		t.Fatalf("crash at %d + resumed tail %d cycles = %d, customized full run %d: tail ran on another machine",
			failCycle, out.Resumed.Cycles, got, full.Cycles)
	}
	// The resumed machine restarts its clock at 0 and runs far past the
	// crash cycle; only a hub attached to it sees cycles that late.
	late := false
	for _, ev := range hub.Tracer().Events() {
		if ev.Cycle > failCycle {
			late = true
			break
		}
	}
	if !late {
		t.Fatalf("hub saw no event after the crash cycle %d: resumed run was not observed", failCycle)
	}
}

// TestFailureScheduleTxnSchemes: a multi-failure schedule must recover each
// outage under the scheme's own contract. The transaction schemes rebuild
// the image from their durable logs and resume at the last region-commit
// marker; replaying the checkpointed CSQ instead loses committed words.
func TestFailureScheduleTxnSchemes(t *testing.T) {
	for _, s := range []Scheme{SchemeUndoLog, SchemeRedoTxn, SchemeHTPM} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			out, err := RunWithFailureSchedule(
				RunConfig{App: "mcf", Scheme: s, InstsPerThread: 12_000, Lockstep: true},
				FailEvery(6_000, 5_000))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Completed {
				t.Fatal("workload did not complete across repeated failures")
			}
			if len(out.Verdicts) < 3 {
				t.Fatalf("expected several failures, got %d", len(out.Verdicts))
			}
			if !out.Consistent() {
				t.Fatalf("lost %d words across %d failures (violations %q)",
					lostWords(out), len(out.Verdicts), violations(out))
			}
		})
	}
}

// TestFailureScheduleHonoursLockstep: a schedule run with Lockstep attaches
// the oracle, so a seeded bug only the oracle sees (a stale commit-table
// tag, invisible to the NVM image) surfaces as an *OracleError rather than
// going unjudged. Not parallel: the seeded-bug
// registry is process-global.
func TestFailureScheduleHonoursLockstep(t *testing.T) {
	mutation.Enable(mutation.RenameCRTStaleTag)
	defer mutation.Disable()
	_, err := RunWithFailureSchedule(
		RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 12_000, Lockstep: true},
		FailEvery(6_000, 5_000))
	var oe *OracleError
	if !errors.As(err, &oe) {
		t.Fatalf("schedule under a seeded rename bug returned %v, want an *OracleError", err)
	}
}

// TestGatedBurstWaitsForWriteBuffer: a gated scheme's boundary burst retires
// its stores through the same write-buffer step as commit, so a full write
// buffer holds the boundary instead of dropping a store's persist. With a
// two-entry buffer the burst must stall (WBFullStalls > 0), the oracle must
// see every barrier complete with its region durable, and a power cut must
// recover to the committed prefix.
func TestGatedBurstWaitsForWriteBuffer(t *testing.T) {
	for _, s := range []Scheme{SchemeSBGate, SchemeHTPM} {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 4_000, Lockstep: true,
				Customize: func(cfg *MachineConfig) { cfg.Hierarchy.WBEntries = 2 }}
			res, err := Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			var stalls uint64
			for _, st := range res.PerCore {
				stalls += st.WBFullStalls
			}
			if stalls == 0 {
				t.Fatal("a two-entry write buffer never filled: the burst did not go through it")
			}
			out, err := RunWithFailure(rc, 3_000)
			if err != nil {
				t.Fatal(err)
			}
			if out.Inconsistencies != 0 {
				t.Fatalf("recovery lost %d committed words", out.Inconsistencies)
			}
		})
	}
}

// TestCrashRunGoldenMatchesRunGolden: the crash driver's golden model, which
// verify advances from one contract point to the next, must equal a fresh
// isa.RunGolden at every point, whether it steps forward, reruns for a
// point behind it, clamps a point past the program's end (or a negative
// one, as RunGolden does) or moves to another program.
func TestCrashRunGoldenMatchesRunGolden(t *testing.T) {
	load := func(app string) *workload.Workload {
		prof, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.New(prof, 3000)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w, other := load("mcf"), load("gcc")
	r := &crashRun{}
	steps := []struct {
		prog *isa.Program
		n    int
	}{
		{w.Threads[0], 0}, {w.Threads[0], 700}, {w.Threads[0], 700}, {w.Threads[0], 1900},
		{w.Threads[0], 300}, {w.Threads[0], 5000}, {w.Threads[0], -1}, {w.Threads[0], 10},
		{other.Threads[0], 10}, {other.Threads[0], 2500},
	}
	for _, s := range steps {
		got, want := r.golden(0, s.prog, s.n), isa.RunGolden(s.prog, s.n)
		if got.Executed != want.Executed || got.Regs != want.Regs ||
			!reflect.DeepEqual(got.Mem.Snapshot(), want.Mem.Snapshot()) ||
			!reflect.DeepEqual(got.StoreLog, want.StoreLog) {
			t.Fatalf("%s to %d: the advanced golden (%d insts) differs from RunGolden (%d insts)",
				s.prog.Name, s.n, got.Executed, want.Executed)
		}
	}
}

// TestCrashEntryPointsAgree: every crash entry point returns the driver's
// one record. At each golden cut of mcf under ppa, and under baseline,
// whose cuts violate the contract so that the records agree on violations
// too, RunWithFailure's record equals RunTorturePoint's for the fault-free
// point on every field but Resumed, and a one-failure schedule holds that
// same record. VerifyAppOpts's records then equal RunTorturePoint's at its
// cuts, and it fails exactly the trials whose record has a violation, on
// mcf and on a multi-threaded run.
func TestCrashEntryPointsAgree(t *testing.T) {
	for _, s := range []Scheme{SchemePPA, SchemeBaseline} {
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: goldenCrashInsts, Lockstep: true}
			violated := 0
			for _, c := range goldenFailCycles {
				failed, err := RunWithFailure(rc, c)
				if err != nil {
					t.Fatalf("RunWithFailure at %d: %v", c, err)
				}
				if failed.Completed || failed.Resumed == nil {
					t.Fatalf("cut at %d did not strike and resume", c)
				}
				if failed.Violation != "" {
					violated++
				}
				resumed := *failed
				resumed.Resumed = nil
				want := verdictRecord(t, &resumed)
				point, err := RunTorturePoint(rc, TorturePoint{Cycle: c})
				if err != nil {
					t.Fatalf("RunTorturePoint at %d: %v", c, err)
				}
				if got := verdictRecord(t, point); got != want {
					t.Errorf("cut at %d: RunTorturePoint's record\n%s\ndiffers from RunWithFailure's\n%s", c, got, want)
				}
				sched, err := RunWithFailureSchedule(rc, FailRandomly(0, 1, c, c+1))
				if err != nil {
					t.Fatalf("RunWithFailureSchedule at %d: %v", c, err)
				}
				if len(sched.Verdicts) != 1 || !reflect.DeepEqual(sched.FailCycles, []uint64{c}) {
					t.Fatalf("a schedule of cycle %d struck at %v", c, sched.FailCycles)
				}
				if got := verdictRecord(t, sched.Verdicts[0]); got != want {
					t.Errorf("cut at %d: the schedule's record\n%s\ndiffers from RunWithFailure's\n%s", c, got, want)
				}
			}
			if (violated > 0) != (s == SchemeBaseline) {
				t.Fatalf("%d of %d golden cuts violated the contract under %s", violated, len(goldenFailCycles), s)
			}

			rep := checkVerifyMatchesFresh(t, VerifyOptions{App: "mcf", Scheme: s, InstsPerThread: goldenCrashInsts, Trials: 6, Seed: 3, Lockstep: true})
			if (len(rep.Failed) > 0) != (s == SchemeBaseline) {
				t.Fatalf("%d of %d trials violated the contract under %s", len(rep.Failed), rep.Trials, s)
			}
		})
	}
	// VerifyApp's campaign resets its live machine for its first cut. A
	// multi-threaded run's interleaving depends on the step seed that reset
	// restores, so 8-thread water-ns's records must equal fresh machines'
	// too.
	t.Run("water-ns-undolog", func(t *testing.T) {
		t.Parallel()
		rep := checkVerifyMatchesFresh(t, VerifyOptions{App: "water-ns", Scheme: SchemeUndoLog, InstsPerThread: 2000, Trials: 6, Seed: 3, Lockstep: true})
		if last := rep.Verdicts[len(rep.Verdicts)-1]; rep.Interrupted < 2 || len(last.PerCore) < 2 {
			t.Fatalf("%d of %d trials interrupted the run, the last recovering %d cores: the case checks too little",
				rep.Interrupted, rep.Trials, len(last.PerCore))
		}
	})
}

// checkVerifyMatchesFresh runs VerifyAppOpts(o) and requires one record per
// trial in ascending cut order, each equal to RunTorturePoint's fault-free
// record at its cut on a fresh machine, with the report's counts and
// failed cycles tallied from those records.
func checkVerifyMatchesFresh(t *testing.T, o VerifyOptions) *VerifyReport {
	t.Helper()
	rep, err := VerifyAppOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != o.Trials || len(rep.Verdicts) != rep.Trials {
		t.Fatalf("%d trials with %d records, want %d", rep.Trials, len(rep.Verdicts), o.Trials)
	}
	rc := RunConfig{App: o.App, Scheme: o.Scheme, InstsPerThread: o.InstsPerThread, Lockstep: o.Lockstep}
	var failed []uint64
	completed := 0
	for i, v := range rep.Verdicts {
		if v.Point != (TorturePoint{Cycle: v.Point.Cycle}) || i > 0 && v.Point.Cycle <= rep.Verdicts[i-1].Point.Cycle {
			t.Fatalf("trial %d cuts at %v after %v, want fault-free cuts in ascending order", i, v.Point, rep.Verdicts[max(i-1, 0)].Point)
		}
		fresh, err := RunTorturePoint(rc, v.Point)
		if err != nil {
			t.Fatalf("RunTorturePoint at %d: %v", v.Point.Cycle, err)
		}
		if got, want := verdictRecord(t, v), verdictRecord(t, fresh); got != want {
			t.Errorf("trial %d: VerifyAppOpts's record\n%s\ndiffers from RunTorturePoint's on a fresh machine\n%s", i, got, want)
		}
		if v.Completed {
			completed++
		} else if v.Violation != "" {
			failed = append(failed, v.Point.Cycle)
		}
	}
	if !reflect.DeepEqual(rep.Failed, failed) || rep.Completed != completed || rep.Interrupted != rep.Trials-completed {
		t.Fatalf("report failed %v with %d completed and %d interrupted; its records fail %v with %d completed",
			rep.Failed, rep.Completed, rep.Interrupted, failed, completed)
	}
	return rep
}

// verdictRecord is v's JSON record.
func verdictRecord(t *testing.T, v *CrashVerdict) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
