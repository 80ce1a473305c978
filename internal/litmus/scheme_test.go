package litmus

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ppa/internal/persist"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens (scheme-coverage.json, seeded-bug-verdicts.json) from this run")

// schemeZoo lists the schemes the litmus gate replays the regression corpus
// under: the reference PPA configuration plus the three log-based
// transaction schemes, whose durability carriers (in-place with undo
// pre-images, redo log with lazy apply, staged flush at commit) each
// exercise a different path through the conformance checks.
func schemeZoo() []struct {
	name string
	cfg  persist.Config
} {
	return []struct {
		name string
		cfg  persist.Config
	}{
		{"ppa", persist.PPADefault()},
		{"undolog", persist.UndoLogDefault()},
		{"redotxn", persist.RedoTxnDefault()},
		{"htpm", persist.HTPMDefault()},
	}
}

func loadRegressionCorpus(t *testing.T) []*Test {
	t.Helper()
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
	return tests
}

// schemeCoverage is the committed allowed-outcome coverage record for one
// test under one scheme: which allowed outcomes the machine exhibited and
// which stayed unreached (legal over-synchronization — e.g. a gated scheme
// whose region burst never interleaves mid-region states). Deltas to this
// file are reviewed like any behavior change.
type schemeCoverage struct {
	Allowed   int      `json:"allowed"`
	Observed  []string `json:"observed"`
	Unreached []string `json:"unreached,omitempty"`
}

// TestRegressionCorpusAcrossSchemes replays the committed regression corpus
// under every scheme in the zoo: no
// scheme may exhibit a forbidden outcome, and each scheme's allowed-outcome
// coverage must match the committed testdata/scheme-coverage.json (run with
// -update to accept a reviewed coverage change).
func TestRegressionCorpusAcrossSchemes(t *testing.T) {
	tests := loadRegressionCorpus(t)
	got := map[string]map[string]*schemeCoverage{}
	for _, zs := range schemeZoo() {
		cfg := zs.cfg
		got[zs.name] = map[string]*schemeCoverage{}
		for _, lt := range tests {
			res, err := RunTest(lt, RunOptions{Schedules: 16, Seed: 23, Scheme: &cfg})
			if err != nil {
				t.Fatalf("%s under %s: %v", lt.Name, zs.name, err)
			}
			for _, f := range res.Forbidden {
				t.Errorf("%s under %s: forbidden outcome: %s", lt.Name, zs.name, f)
			}
			observed := make([]string, 0, len(res.Observed))
			for k := range res.Observed {
				observed = append(observed, k)
			}
			sort.Strings(observed)
			got[zs.name][lt.Name] = &schemeCoverage{
				Allowed:   len(res.Allowed),
				Observed:  observed,
				Unreached: res.Unreached,
			}
		}
	}
	if t.Failed() {
		return
	}

	golden := filepath.Join("testdata", "scheme-coverage.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing coverage golden (generate with `go test -run AcrossSchemes ./internal/litmus -update`): %v", err)
	}
	var want map[string]map[string]*schemeCoverage
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt coverage golden: %v", err)
	}
	for scheme, tests := range got {
		for name, cov := range tests {
			wc, ok := want[scheme][name]
			if !ok {
				t.Errorf("%s/%s: no committed coverage entry (regenerate with -update)", scheme, name)
				continue
			}
			if !reflect.DeepEqual(cov, wc) {
				t.Errorf("%s/%s: coverage drifted from committed golden:\n  got  allowed=%d observed=%v unreached=%v\n  want allowed=%d observed=%v unreached=%v\n(accept intended changes with -update)",
					scheme, name, cov.Allowed, cov.Observed, cov.Unreached, wc.Allowed, wc.Observed, wc.Unreached)
			}
		}
	}
	for scheme, tests := range want {
		for name := range tests {
			if _, ok := got[scheme][name]; !ok {
				t.Errorf("%s/%s: committed coverage entry has no live test (regenerate with -update)", scheme, name)
			}
		}
	}
}
