package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// solverPinSeeds are the generator seeds whose 64-test corpora the solver
// pin covers, alongside ConformanceCorpus().
var solverPinSeeds = []uint64{1, 5, 9001, 0xC0FFEE}

// goldenSolverDigest is the SHA-256 of every pinned test's name, sorted
// allowed outcomes, sorted final outcomes and visited-configuration count,
// one JSON line per test.
const goldenSolverDigest = "43868694ae161471d80d6a7542b2e642a955ec7a18c22b40155617b13bb31d42"

// TestModelSolverDigests pins the px86 solver's output, outcome keys and
// all, on the built-in corpus and on generated corpora that reach the
// format's widest shapes (4 cores, 3 addresses). A change to how the model
// keys states or configurations must leave the digest unchanged.
func TestModelSolverDigests(t *testing.T) {
	tests := ConformanceCorpus()
	for _, seed := range solverPinSeeds {
		tests = append(tests, Generate(GenOptions{Seed: seed, Count: 64})...)
	}
	wide := false
	h := sha256.New()
	for _, lt := range tests {
		c, err := Compile(lt)
		if err != nil {
			t.Fatal(err)
		}
		wide = wide || len(lt.Cores) == MaxCores && lt.NAddrs == MaxAddrs
		line, err := json.Marshal(struct {
			Name    string   `json:"name"`
			Allowed []string `json:"allowed"`
			Final   []string `json:"final"`
			Configs int      `json:"configs"`
		}{lt.Name, c.Model.Outcomes(), c.Model.FinalOutcomes(), c.Model.Configs()})
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(line, '\n'))
	}
	if !wide {
		t.Fatal("no pinned test has 4 cores and 3 addresses")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSolverDigest {
		t.Errorf("solver digest %s, want %s", got, goldenSolverDigest)
	}
}
