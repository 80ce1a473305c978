package litmus

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ppa/internal/mutation"
	"ppa/internal/obs"
)

// TestConformanceCorpusClean is the litmus gate's soundness direction on
// the curated corpus: across perturbed schedules (step-order shuffling,
// WPQ accept jitter, crash legs) the simulator must never exhibit an NVM
// state, final state, or barrier completion the model forbids.
func TestConformanceCorpusClean(t *testing.T) {
	hub := obs.NewHub(0)
	rep, err := RunCorpus(ConformanceCorpus(), RunOptions{Schedules: 24, Seed: 11, Obs: hub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.FirstForbidden(); f != nil {
		t.Fatalf("forbidden outcome on healthy simulator: %s", f)
	}
	if rep.Coverage <= 0 {
		t.Fatalf("no allowed outcomes observed (coverage %f)", rep.Coverage)
	}
	counters := map[string]float64{}
	for _, s := range hub.Registry().Snapshot() {
		counters[s.Name] = s.Value
	}
	if counters["litmus.tests"] != float64(rep.TotalTests) || counters["litmus.schedules"] == 0 {
		t.Fatalf("litmus.* metrics did not tick: %v", counters)
	}
}

// TestGeneratedCorpusClean runs a generated sample end to end — the same
// path CI's litmus job takes, scaled down.
func TestGeneratedCorpusClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tests := Generate(GenOptions{Seed: 17, Count: 30})
	rep, err := RunCorpus(tests, RunOptions{Schedules: 10, Seed: 29}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f := rep.FirstForbidden(); f != nil {
		t.Fatalf("forbidden outcome on healthy simulator: %s", f)
	}
}

// TestRegressionCorpusLockstep replays the committed regression corpus —
// the coalescing-subsumption and idempotent-re-accept edge cases. Every
// schedule runs under the lockstep oracle, so the persist checker (the
// oracle's own rules, internal/oracle/persist.go) judges the streams whose
// states the harness checks against the model. Either layer
// false-alarming fails the run.
func TestRegressionCorpusLockstep(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.litmus"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed regression corpus found: %v", err)
	}
	sort.Strings(files)
	var parts []string
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, string(blob))
	}
	tests, err := DecodeCorpus(strings.Join(parts, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, lt := range tests {
		names[lt.Name] = true
	}
	for _, want := range []string{"reg-coalesce-subsume", "reg-idempotent-reaccept"} {
		if !names[want] {
			t.Fatalf("regression corpus lost %s (have %v)", want, Names(tests))
		}
	}
	for _, lt := range tests {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			res, err := RunTest(lt, RunOptions{Schedules: 16, Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Forbidden {
				t.Errorf("false alarm: %s", f)
			}
		})
	}
}

// TestLitmusGateCatchesSeededBugs is the completeness direction: the two
// mutations that only multicore runs expose (every intermediate NVM state
// individually plausible, single-core runs unaffected) must produce a
// forbidden outcome on the curated corpus. cache-coalesce-stale-word is
// convicted by the lockstep oracle's barrier-incomplete;
// pipeline-barrier-snapshot-cross-core first hangs split-chain past its
// cycle bound (run-error), and later tests convict it by barrier-incomplete
// too (see internal/mutation).
func TestLitmusGateCatchesSeededBugs(t *testing.T) {
	defer mutation.Disable()
	for _, m := range []mutation.Mutation{
		mutation.CacheCoalesceStaleWord,
		mutation.PipelineBarrierSnapshotCrossCore,
	} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			mutation.Enable(m)
			defer mutation.Disable()
			rep, err := RunCorpus(ConformanceCorpus(), RunOptions{Schedules: 16, Seed: 11}, nil)
			if err != nil {
				t.Fatal(err)
			}
			f := rep.FirstForbidden()
			if f == nil {
				t.Fatalf("seeded bug %s not caught by the litmus gate", m)
			}
			t.Logf("caught: %s", f)
		})
	}
}

// TestOracleVerdictCycle: an oracle verdict becomes a forbidden outcome
// under the oracle's own kind, and a check that carries no cycle of its own
// (the end-of-run durable-image check) is reported at the machine's cycle.
func TestOracleVerdictCycle(t *testing.T) {
	mutation.Enable(mutation.NVMCoalesceSkipImage)
	defer mutation.Disable()
	res, err := RunTest(findTestByName(t, "mp-fence"), RunOptions{Schedules: 1, Seed: 0xC0FFEE})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Forbidden {
		if f.Kind == "durable-image-mismatch" {
			if f.Cycle == 0 {
				t.Fatalf("oracle verdict reported at cycle 0: %s", f)
			}
			return
		}
	}
	t.Fatalf("no durable-image-mismatch among %d forbidden outcomes", len(res.Forbidden))
}

// TestShrinkMinimizesReproducer: under a seeded bug, the shrinker must
// return a test that still convicts — typically far smaller than the
// original.
func TestShrinkMinimizesReproducer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mutation.Enable(mutation.CacheCoalesceStaleWord)
	defer mutation.Disable()
	opt := RunOptions{Schedules: 8, Seed: 11}
	orig := findTestByName(t, "coalesce-subsume")
	min := Shrink(orig, opt)
	res, err := RunTest(min, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Forbidden) == 0 {
		t.Fatalf("shrunk test no longer reproduces:\n%s", Encode(min))
	}
	if ops(min) > ops(orig) {
		t.Fatalf("shrinker grew the test: %d -> %d ops", ops(orig), ops(min))
	}
	t.Logf("shrunk %d -> %d ops:\n%s", ops(orig), ops(min), Encode(min))
}

// TestHarnessDeterministic: one seed, one verdict — the gate's failures
// replay exactly.
func TestHarnessDeterministic(t *testing.T) {
	lt := findTestByName(t, "mp-fence")
	run := func() *TestResult {
		res, err := RunTest(lt, RunOptions{Schedules: 12, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Accepts != b.Accepts || len(a.Observed) != len(b.Observed) {
		t.Fatalf("identical runs diverged: %+v vs %+v", a, b)
	}
	for k, n := range a.Observed {
		if b.Observed[k] != n {
			t.Fatalf("outcome %q observed %d vs %d times", k, n, b.Observed[k])
		}
	}
}

func findTestByName(t *testing.T, name string) *Test {
	t.Helper()
	for _, lt := range ConformanceCorpus() {
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("built-in corpus lost %s", name)
	return nil
}

func ops(t *Test) int {
	n := 0
	for _, c := range t.Cores {
		n += len(c)
	}
	return n
}
