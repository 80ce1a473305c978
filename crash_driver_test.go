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
// same record. VerifyAppOpts then fails exactly the trials whose
// RunWithFailure record has a violation.
func TestCrashEntryPointsAgree(t *testing.T) {
	for _, s := range []Scheme{SchemePPA, SchemeBaseline} {
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: goldenCrashInsts, Lockstep: true}
			record := func(v *CrashVerdict) string {
				t.Helper()
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
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
				want := record(&resumed)
				point, err := RunTorturePoint(rc, TorturePoint{Cycle: c})
				if err != nil {
					t.Fatalf("RunTorturePoint at %d: %v", c, err)
				}
				if got := record(point); got != want {
					t.Errorf("cut at %d: RunTorturePoint's record\n%s\ndiffers from RunWithFailure's\n%s", c, got, want)
				}
				sched, err := RunWithFailureSchedule(rc, FailAt(c))
				if err != nil {
					t.Fatalf("RunWithFailureSchedule at %d: %v", c, err)
				}
				if len(sched.Verdicts) != 1 || !reflect.DeepEqual(sched.FailCycles, []uint64{c}) {
					t.Fatalf("FailAt(%d) struck at %v", c, sched.FailCycles)
				}
				if got := record(sched.Verdicts[0]); got != want {
					t.Errorf("cut at %d: the schedule's record\n%s\ndiffers from RunWithFailure's\n%s", c, got, want)
				}
			}
			if (violated > 0) != (s == SchemeBaseline) {
				t.Fatalf("%d of %d golden cuts violated the contract under %s", violated, len(goldenFailCycles), s)
			}

			o := VerifyOptions{App: "mcf", Scheme: s, InstsPerThread: goldenCrashInsts, Trials: 6, Seed: 3, Lockstep: true}
			rep, err := VerifyAppOpts(o)
			if err != nil {
				t.Fatal(err)
			}
			// VerifyAppOpts's trials: o.Trials seeded cuts within its
			// probe run, at least 1000 cycles.
			probe, err := Run(rc)
			if err != nil {
				t.Fatal(err)
			}
			window := max(probe.Cycles, 1000)
			trials := FailRandomly(o.Seed, o.Trials, window/50, window)
			var want []uint64
			for after := uint64(0); ; {
				c, ok := trials.Next(after)
				if !ok {
					break
				}
				after = c
				v, err := RunWithFailure(rc, c)
				if err != nil {
					t.Fatal(err)
				}
				if v.Violation != "" {
					want = append(want, c)
				}
			}
			if rep.Trials != o.Trials || !reflect.DeepEqual(rep.Failed, want) {
				t.Fatalf("VerifyAppOpts failed %v of %d trials; the records of its cuts violate at %v", rep.Failed, rep.Trials, want)
			}
			if (len(want) > 0) != (s == SchemeBaseline) {
				t.Fatalf("%d of %d trials violated the contract under %s", len(want), rep.Trials, s)
			}
		})
	}
}
