package litmus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppa/internal/mutation"
)

// TestSeededBugVerdicts pins the first forbidden outcome, kind and detail,
// that the unmutated simulator and each seeded bug produce on the built-in
// conformance corpus (at the mutation gate's seed and schedule count) and on
// the committed regression corpus, under every scheme. A change to which
// check convicts a bug, or to what it reports, shows up as a diff of
// testdata/seeded-bug-verdicts.json (rewrite it with -update).
func TestSeededBugVerdicts(t *testing.T) {
	defer mutation.Disable()
	corpora := []struct {
		name  string
		tests []*Test
		seed  uint64
	}{
		{"conformance", ConformanceCorpus(), 0xC0FFEE},
		{"regression", loadRegressionCorpus(t), 23},
	}
	got := map[string]string{}
	for _, m := range append([]mutation.Mutation{mutation.None}, mutation.All()...) {
		mutation.Enable(m)
		for _, c := range corpora {
			for _, s := range digestSchemes {
				cfg := s.cfg
				r := newRunner(RunOptions{Schedules: 16, Seed: c.seed, Scheme: &cfg})
				verdict := "clean"
				for _, lt := range c.tests {
					res, err := r.runTest(lt)
					if err != nil {
						t.Fatalf("%s under %s with %s: %v", lt.Name, s.name, m, err)
					}
					if len(res.Forbidden) > 0 {
						verdict = res.Forbidden[0].String()
						break
					}
				}
				got[m.String()+"/"+c.name+"/"+s.name] = verdict
			}
		}
	}
	mutation.Disable()

	golden := filepath.Join("testdata", "seeded-bug-verdicts.json")
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
		t.Fatalf("missing verdict golden (generate with `go test -run SeededBugVerdicts ./internal/litmus -update`): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt verdict golden: %v", err)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	for key, v := range got {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no committed verdict (regenerate with -update)", key)
		} else if v != w {
			t.Errorf("%s:\n  got  %s\n  want %s", key, v, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: committed verdict has no live run (regenerate with -update)", key)
		}
	}
}
