package litmus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ppa/internal/persist"
)

// digestSchemes lists every scheme by name, negative controls included:
// their forbidden outcomes are part of the pinned reports.
var digestSchemes = []struct {
	name string
	cfg  persist.Config
}{
	{"baseline", persist.BaselineDefault()},
	{"ppa", persist.PPADefault()},
	{"replaycache", persist.ReplayCacheDefault()},
	{"capri", persist.CapriDefault()},
	{"eadr", persist.EADRDefault()},
	{"dram-only", persist.DRAMOnlyDefault()},
	{"sb-gate", persist.SBGateDefault()},
	{"undolog", persist.UndoLogDefault()},
	{"redotxn", persist.RedoTxnDefault()},
	{"htpm", persist.HTPMDefault()},
}

// goldenCorpusDigests maps "scheme/seed" (with a "/lockstep" suffix for
// oracle-checked runs) to the SHA-256 of the RunCorpus report JSON for a
// generated 12-test corpus at 12 schedules per test.
var goldenCorpusDigests = map[string]string{
	"baseline/1":         "16228a23884d6b09279142e78f26db8473dcae6be0b4b7877a15a827e7a556b2",
	"ppa/1":              "db1109151321715ba50034f9229a6e1ae0ed1520a4d6cc3dc17e377b960fe25b",
	"replaycache/1":      "7a53f747ad788de935e2b2f32610d373b7aa49818136ee32c660a1dfecad22a8",
	"capri/1":            "6534284dfcbbcf5b7e7a7c8f49739af0f19d5ec6653a207d52756225dc1130b7",
	"eadr/1":             "16228a23884d6b09279142e78f26db8473dcae6be0b4b7877a15a827e7a556b2",
	"dram-only/1":        "16228a23884d6b09279142e78f26db8473dcae6be0b4b7877a15a827e7a556b2",
	"sb-gate/1":          "1675571f8d3d7c3351a6db2ab5a494bdd51b0339228aaea8c348f3eb94a741a9",
	"undolog/1":          "db1109151321715ba50034f9229a6e1ae0ed1520a4d6cc3dc17e377b960fe25b",
	"redotxn/1":          "323dbcf45f23032c459cec6d692cb414f44ef078fd6cca0d41452cc52f1a3064",
	"htpm/1":             "1675571f8d3d7c3351a6db2ab5a494bdd51b0339228aaea8c348f3eb94a741a9",
	"baseline/9001":      "98936ce2876582cdce57d91dc5b3a70039fe2fd59329d105cc26e6ef5d4950fa",
	"ppa/9001":           "70f3d5cbc6200987e1db31e309a1207ef740e78bad3b70da9857a054ab235220",
	"replaycache/9001":   "36c7cfceb7100ac8982c8de41c49509b41ed12d5d526875cbdabd4282b31b90a",
	"capri/9001":         "6ecaa46594dc522bfcac8604cf36b42247d4a44cc8fee6723839bd13d752ef9e",
	"eadr/9001":          "98936ce2876582cdce57d91dc5b3a70039fe2fd59329d105cc26e6ef5d4950fa",
	"dram-only/9001":     "98936ce2876582cdce57d91dc5b3a70039fe2fd59329d105cc26e6ef5d4950fa",
	"sb-gate/9001":       "f9749138dba9fddb73475294a355bdd567311b37bf3db2ef5fcbf1aab6b909c6",
	"undolog/9001":       "70f3d5cbc6200987e1db31e309a1207ef740e78bad3b70da9857a054ab235220",
	"redotxn/9001":       "0c008491c85e9a45478952efefe40a7d6b2bc336c815bf88908aa6f2da3c2fe7",
	"htpm/9001":          "f9749138dba9fddb73475294a355bdd567311b37bf3db2ef5fcbf1aab6b909c6",
	"ppa/1/lockstep":     "db1109151321715ba50034f9229a6e1ae0ed1520a4d6cc3dc17e377b960fe25b",
	"undolog/1/lockstep": "db1109151321715ba50034f9229a6e1ae0ed1520a4d6cc3dc17e377b960fe25b",
}

func corpusReportDigest(t *testing.T, cfg persist.Config, seed uint64, lockstep bool) string {
	t.Helper()
	tests := Generate(GenOptions{Seed: seed, Count: 12})
	rep, err := RunCorpus(tests, RunOptions{Schedules: 12, Seed: seed, Scheme: &cfg, Lockstep: lockstep}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestCorpusReportDigests pins the litmus harness's full output: every
// observed outcome count, forbidden record, crash leg and accept count of a
// generated corpus under all ten schemes at two seeds, plus oracle-checked
// runs of ppa and undolog. A change to how the harness builds, perturbs or
// reuses machines must leave every report byte-identical.
func TestCorpusReportDigests(t *testing.T) {
	type run struct {
		key      string
		cfg      persist.Config
		seed     uint64
		lockstep bool
	}
	var runs []run
	for _, seed := range []uint64{1, 9001} {
		for _, s := range digestSchemes {
			runs = append(runs, run{fmt.Sprintf("%s/%d", s.name, seed), s.cfg, seed, false})
		}
	}
	runs = append(runs,
		run{"ppa/1/lockstep", persist.PPADefault(), 1, true},
		run{"undolog/1/lockstep", persist.UndoLogDefault(), 1, true})
	for _, r := range runs {
		got := corpusReportDigest(t, r.cfg, r.seed, r.lockstep)
		if want := goldenCorpusDigests[r.key]; got != want {
			t.Errorf("%s: report digest %s, want %s", r.key, got, want)
		}
	}
}
