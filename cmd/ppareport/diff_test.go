package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const snapOld = `[
  {"name": "torture.points", "kind": "counter", "value": 100},
  {"name": "store.commit-to-durable-cycles", "kind": "histogram", "value": 0,
   "count": 4, "sum": 160, "min": 20, "max": 80,
   "p50": 30, "p95": 60, "p99": 80}
]`

// snapRegressed doubles the commit-to-durable p99: a 100% regression on a
// lower-is-better key, past any reasonable threshold.
const snapRegressed = `[
  {"name": "torture.points", "kind": "counter", "value": 100},
  {"name": "store.commit-to-durable-cycles", "kind": "histogram", "value": 0,
   "count": 4, "sum": 160, "min": 20, "max": 80,
   "p50": 30, "p95": 60, "p99": 160}
]`

func TestDiffDetectsInjectedRegression(t *testing.T) {
	old := writeFile(t, "old.json", snapOld)
	bad := writeFile(t, "new.json", snapRegressed)
	out := filepath.Join(t.TempDir(), "diff.json")

	if code := runDiff([]string{"-threshold-pct", "50", "-out", out, old, bad}); code != 1 {
		t.Fatalf("runDiff with injected 100%% regression: exit %d, want 1", code)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("-out artifact not written: %v", err)
	}
	// The same pair passes when the threshold is looser than the injection.
	if code := runDiff([]string{"-threshold-pct", "150", old, bad}); code != 0 {
		t.Fatalf("runDiff with threshold above the regression: exit %d, want 0", code)
	}
	// And a self-diff is always clean.
	if code := runDiff([]string{old, old}); code != 0 {
		t.Fatalf("self-diff: exit %d, want 0", code)
	}
}

func TestDiffSeriesDirections(t *testing.T) {
	lower := regexp.MustCompile(defaultLowerBetter)
	higher := regexp.MustCompile(defaultHigherBetter)

	oldS := map[string]float64{
		"core_step/gcc/ns_per_cycle":   100, // lower-better
		"core_step/gcc/cycles_per_sec": 1e7, // higher-better
		"store.commit-to-durable/p99":  40,  // lower-better
		"region.insts/mean":            300, // info
		"gone":                         1,
	}
	newS := map[string]float64{
		"core_step/gcc/ns_per_cycle":   140,   // +40% -> regression at 20%
		"core_step/gcc/cycles_per_sec": 0.7e7, // -30% -> regression at 20%
		"store.commit-to-durable/p99":  44,    // +10% -> ok
		"region.insts/mean":            900,   // info: never gated
		"fresh":                        1,
	}
	rep := diffSeries(oldS, newS, 20, lower, higher, false)

	want := map[string]bool{
		"core_step/gcc/ns_per_cycle":   true,
		"core_step/gcc/cycles_per_sec": true,
		"store.commit-to-durable/p99":  false,
		"region.insts/mean":            false,
	}
	if rep.Regressions != 2 {
		t.Errorf("regressions = %d, want 2", rep.Regressions)
	}
	for _, r := range rep.Rows {
		if r.Regression != want[r.Key] {
			t.Errorf("%s: regression = %v, want %v (delta %+.1f%%, dir %s)",
				r.Key, r.Regression, want[r.Key], r.DeltaPct, r.Direction)
		}
	}
	if len(rep.OnlyOld) != 1 || rep.OnlyOld[0] != "gone" {
		t.Errorf("OnlyOld = %v, want [gone]", rep.OnlyOld)
	}
	if len(rep.OnlyNew) != 1 || rep.OnlyNew[0] != "fresh" {
		t.Errorf("OnlyNew = %v, want [fresh]", rep.OnlyNew)
	}
}

func TestDiffTwoSided(t *testing.T) {
	lower := regexp.MustCompile(defaultLowerBetter)
	higher := regexp.MustCompile(defaultHigherBetter)

	oldS := map[string]float64{
		"audit.gcc.ppa.cpi":         2.40, // +2.5% -> within 3%
		"audit.mcf.ppa.cpi":         6.00, // -5% improvement -> still gated two-sided
		"audit.mcf.ppa.persist-p95": 800,  // +10% -> regression
	}
	newS := map[string]float64{
		"audit.gcc.ppa.cpi":         2.46,
		"audit.mcf.ppa.cpi":         5.70,
		"audit.mcf.ppa.persist-p95": 880,
	}
	rep := diffSeries(oldS, newS, 3, lower, higher, true)
	want := map[string]bool{
		"audit.gcc.ppa.cpi":         false,
		"audit.mcf.ppa.cpi":         true,
		"audit.mcf.ppa.persist-p95": true,
	}
	if rep.Regressions != 2 {
		t.Errorf("regressions = %d, want 2", rep.Regressions)
	}
	for _, r := range rep.Rows {
		if r.Direction != "two-sided" {
			t.Errorf("%s: direction = %s, want two-sided", r.Key, r.Direction)
		}
		if r.Regression != want[r.Key] {
			t.Errorf("%s: regression = %v, want %v (delta %+.1f%%)",
				r.Key, r.Regression, want[r.Key], r.DeltaPct)
		}
	}
}

func TestDiffZeroBaselineNeverGates(t *testing.T) {
	lower := regexp.MustCompile(defaultLowerBetter)
	higher := regexp.MustCompile(defaultHigherBetter)
	rep := diffSeries(
		map[string]float64{"torture.violations": 0},
		map[string]float64{"torture.violations": 3},
		20, lower, higher, false)
	if rep.Regressions != 0 {
		t.Errorf("zero-baseline key gated: %+v", rep.Rows)
	}
}

func TestLoadSeriesFormats(t *testing.T) {
	snap := writeFile(t, "snap.json", `[
  {"name": "torture.points", "kind": "counter", "value": 100},
  {"name": "region.insts", "kind": "histogram", "value": 0,
   "count": 4, "sum": 1200, "min": 100, "max": 500,
   "p50": 280, "p95": 480, "p99": 500}
]`)
	s, err := loadSeries(snap)
	if err != nil {
		t.Fatal(err)
	}
	if s["torture.points"] != 100 {
		t.Errorf("counter = %v, want 100", s["torture.points"])
	}
	if s["region.insts/count"] != 4 || s["region.insts/mean"] != 300 || s["region.insts/p99"] != 500 {
		t.Errorf("histogram flatten = %v", s)
	}

	jsonl := writeFile(t, "metrics.jsonl",
		`{"name": "a", "kind": "counter", "value": 1}`+"\n"+
			`{"name": "b|core=0", "kind": "gauge", "value": 2}`+"\n")
	s, err = loadSeries(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if s["a"] != 1 || s["b|core=0"] != 2 {
		t.Errorf("jsonl flatten = %v", s)
	}

	// The retired benchmark trajectory format is an error, not an empty
	// series that would diff clean.
	trajectory := `{
  "schema": "ppa-bench/v1",
  "core_step": [{"app": "gcc", "ns_per_cycle": 100, "allocs_per_cycle": 0}]
}`
	if _, err := loadSeries(writeFile(t, "bench.json", trajectory)); err == nil {
		t.Error("benchmark trajectory accepted")
	}
	oneLine := strings.Join(strings.Fields(trajectory), " ")
	if _, err := loadSeries(writeFile(t, "bench1.json", oneLine)); err == nil {
		t.Error("single-line benchmark trajectory accepted")
	}

	if _, err := loadSeries(writeFile(t, "bad.json", `{"schema": "other/v9"}`)); err == nil {
		t.Error("unsupported schema accepted")
	}
	if _, err := loadSeries(writeFile(t, "empty.json", "")); err == nil {
		t.Error("empty file accepted")
	}
}
