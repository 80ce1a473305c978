package ppa

import (
	"reflect"
	"testing"

	"ppa/internal/power"
)

func TestFailureScheduleSingle(t *testing.T) {
	out, err := RunWithFailureSchedule(
		RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 8000},
		power.At(10_000))
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
		power.At(20_000))
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
		power.At(0)) // At(0) never fires (cycle must be strictly after 0... it fires only if >0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("must complete")
	}
}

func TestFailureScheduleResumeKeepsOneOracleLogObserver(t *testing.T) {
	// Every resume restarts the recovered machine with its oracle reset on
	// the surviving device. The oracle of an earlier power-on period must
	// stop observing the device's log appends: the device ends with exactly
	// one log observer, the live oracle's.
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

// TestResumedDeviceKeepsOnlyLiveAcceptObservers: with a flight recorder,
// a device resumed after three recovered outages of mcf/ppa is tapped by
// the live machine's accept tail alone, plus the live oracle under
// lockstep. The tail of a crashed copy, or of an earlier power-on period,
// would be fed every accept of the resumed run.
func TestResumedDeviceKeepsOnlyLiveAcceptObservers(t *testing.T) {
	for _, lockstep := range []bool{false, true} {
		rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 4000, Lockstep: lockstep,
			Forensics: NewForensicsRecorder("", 1)}
		r := &crashRun{rc: rc}
		if err := r.rewind(0); err != nil {
			t.Fatal(err)
		}
		schedule := FailEvery(4000, 3000)
		var global uint64
		for resumes := 0; resumes < 3; resumes++ {
			next, ok := schedule.Next(global)
			if !ok {
				t.Fatal("periodic schedule ran out")
			}
			v, err := r.cut(TorturePoint{Cycle: next - global}, true)
			if err != nil {
				t.Fatal(err)
			}
			if v.Completed || !v.Recovered {
				t.Fatalf("outage %d: completed %v, recovered %v", resumes+1, v.Completed, v.Recovered)
			}
			global += v.Cycle
		}
		want := 1
		if lockstep {
			want = 2
		}
		// The device does not export its accept-observer count; read it
		// from the field.
		n := reflect.ValueOf(r.sys.Device()).Elem().FieldByName("acceptObs").Len()
		if n != want {
			t.Errorf("lockstep %v: the resumed device has %d accept observers, want %d", lockstep, n, want)
		}
	}
}

// goldenScheduleRegistryDigests pins the SHA-256 of the obs registry
// snapshot's JSON after mcf/ppa's lockstep run through FailEvery(period,
// 3000), by period: 4, 3 and 2 resumes. The per-core, device and hierarchy
// gauges read the machine that bound them last, so a resume that left them
// on a crashed copy moves a digest.
var goldenScheduleRegistryDigests = map[uint64]string{
	11_000: "295ef4916d7349f023319c4523d4e9fba5a53ec1c3dfce08d6ce832b36c83095",
	15_000: "c688ccf0b5939cbb3a9d155aca33eca4943298172bb66c498af46cde5f1e3387",
	20_000: "4b48fba9d8d10eb5319e6f43f0b4df697ec3fffb945142b38cca11b21a43fb01",
}

func TestFailureScheduleRegistryGoldenDigests(t *testing.T) {
	for period, want := range goldenScheduleRegistryDigests {
		hub := NewObsHub(0)
		rc := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 6000, Lockstep: true, Obs: hub}
		out, err := RunWithFailureSchedule(rc, FailEvery(period, 3000))
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonDigest(t, hub.Registry().Snapshot()); got != want {
			t.Errorf("period %d (%d resumes): registry digest %s, golden %s", period, len(out.FailCycles), got, want)
		}
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
