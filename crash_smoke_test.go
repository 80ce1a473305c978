package ppa

import "testing"

// TestCrashRecoverySmoke is the first end-to-end check of the
// checkpoint/recovery path: crash PPA mid-run, recover, verify the
// crash-consistency contract, and resume to completion.
func TestCrashRecoverySmoke(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 20000}, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("expected the failure to interrupt the run")
	}
	if out.Inconsistencies != 0 {
		t.Fatalf("PPA recovery left %d inconsistencies", out.Inconsistencies)
	}
	if !out.ArchConsistent {
		t.Fatal("recovered register state diverged from golden")
	}
	if out.Resumed == nil {
		t.Fatal("no resumed result")
	}
	t.Logf("checkpoint bytes=%d, replayed=%d words, resumed cycles=%d",
		out.CheckpointBytes, out.PerCore[0].ReplayedWords, out.Resumed.Cycles)
}

// TestBaselineIsInconsistent demonstrates the negative: the memory-mode
// baseline loses committed stores across a power failure.
func TestBaselineIsInconsistent(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "mcf", Scheme: SchemeBaseline, InstsPerThread: 20000}, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("expected the failure to interrupt the run")
	}
	if out.Inconsistencies == 0 {
		t.Fatal("baseline should NOT be crash consistent")
	}
	t.Logf("baseline lost %d committed words", out.Inconsistencies)
}
