package ppa

import "testing"

func TestFailureScheduleSingle(t *testing.T) {
	out, err := RunWithFailureSchedule(
		RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 8000},
		FailAt(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("workload did not complete")
	}
	if len(out.Verdicts) != 1 {
		t.Fatalf("failures = %d", len(out.Verdicts))
	}
	if !out.Consistent() {
		t.Fatalf("lost %d words", lostWords(out))
	}
}

// TestFailureSchedulePeriodic is the energy-harvesting torture test: power
// fails every few thousand cycles, repeatedly, and the workload must still
// complete with every recovery crash-consistent.
func TestFailureSchedulePeriodic(t *testing.T) {
	out, err := RunWithFailureSchedule(
		RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 12_000},
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
		t.Fatalf("lost %d words across %d failures", lostWords(out), len(out.Verdicts))
	}
	if len(out.FailCycles) != len(out.Verdicts) {
		t.Fatal("outcome bookkeeping inconsistent")
	}
	dumped := 0
	for _, v := range out.Verdicts {
		dumped += v.CheckpointBytes
	}
	t.Logf("%d failures, %d checkpoint bytes total, %d cycles",
		len(out.Verdicts), dumped, out.TotalCycles)
}

func TestFailureScheduleRandomMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out, err := RunWithFailureSchedule(
		RunConfig{App: "fft", Scheme: SchemePPA, InstsPerThread: 5_000},
		FailRandomly(42, 4, 2_000, 40_000))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("workload did not complete")
	}
	if !out.Consistent() {
		t.Fatalf("multi-core recovery lost %d words", lostWords(out))
	}
}

func TestFailureScheduleBaselineLosesData(t *testing.T) {
	out, err := RunWithFailureSchedule(
		RunConfig{App: "mcf", Scheme: SchemeBaseline, InstsPerThread: 12_000},
		FailAt(20_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Verdicts) == 0 {
		t.Skip("run finished before the failure")
	}
	if out.Consistent() {
		t.Fatal("the memory-mode baseline should lose data")
	}
	if lostWords(out) == 0 {
		t.Fatal("inconsistency accounting missing")
	}
}

func TestFailureScheduleNoFailures(t *testing.T) {
	out, err := RunWithFailureSchedule(
		RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 3000},
		FailAt(0)) // At(0) never fires (cycle must be strictly after 0... it fires only if >0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("must complete")
	}
}

func TestFailureScheduleResumeKeepsOneOracleLogObserver(t *testing.T) {
	// Every resume builds a lockstep machine with a fresh oracle around the
	// surviving device. The oracle of an earlier power-on period must stop
	// observing the device's log appends: the device ends with exactly one
	// log observer, the live oracle's.
	r := &crashRun{rc: RunConfig{App: "mcf", Scheme: SchemeUndoLog, InstsPerThread: 4000, Lockstep: true}}
	if err := r.rewind(0); err != nil {
		t.Fatal(err)
	}
	schedule := FailEvery(4000, 3000)
	var global uint64
	resumes := 0
	for resumes < 3 {
		next, ok := schedule.Next(global)
		if !ok {
			t.Fatal("periodic schedule ran out")
		}
		v, err := r.cut(TorturePoint{Cycle: next - global}, true)
		if err != nil {
			t.Fatal(err)
		}
		if v.Completed {
			break
		}
		if !v.Recovered {
			t.Fatalf("outage %d not recovered: %v", resumes+1, v.Detected)
		}
		global += v.Cycle
		resumes++
	}
	if resumes < 2 {
		t.Fatalf("only %d resumes before the run completed", resumes)
	}
	if n := r.sys.Device().LogObservers(); n != 1 {
		t.Fatalf("after %d resumes the device has %d log observers, want 1", resumes, n)
	}
}

// lostWords sums the committed-prefix words o's recoveries lost.
func lostWords(o *ScheduleOutcome) int {
	n := 0
	for _, v := range o.Verdicts {
		n += v.Inconsistencies
	}
	return n
}

// violations lists each of o's recoveries' violation, "" for a pass.
func violations(o *ScheduleOutcome) []string {
	var vs []string
	for _, v := range o.Verdicts {
		vs = append(vs, v.Violation)
	}
	return vs
}
