package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRegistry builds a registry covering every exposition case: plain
// counters and gauges, a histogram, and labeled per-cause counter variants
// that must group into one Prometheus family.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("persist.acked-stores").Add(12345)
	reg.Counter("region.barrier-total|cause=csq-full").Add(7)
	reg.Counter("region.barrier-total|cause=prf-exhausted").Add(40)
	reg.Counter("region.barrier-total|cause=sync").Add(2)
	reg.Gauge("core0.wb-occupancy").Set(3.5)
	h := reg.Histogram("store.commit-to-durable-cycles")
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	return reg
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheusSamples(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_metrics.prom")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got\n%s\n--- want\n%s", buf.Bytes(), want)
	}

	// Structural checks independent of the golden bytes: one TYPE line per
	// family even with three labeled variants, and summary quantiles.
	out := buf.String()
	if n := strings.Count(out, "# TYPE ppa_region_barrier_total counter"); n != 1 {
		t.Errorf("barrier family TYPE lines = %d, want 1", n)
	}
	for _, want := range []string{
		`ppa_region_barrier_total{cause="csq-full"} 7`,
		`ppa_store_commit_to_durable_cycles{quantile="0.5"}`,
		`ppa_store_commit_to_durable_cycles{quantile="0.99"}`,
		"ppa_store_commit_to_durable_cycles_sum 5050\n",
		"ppa_store_commit_to_durable_cycles_count 100\n",
		"# TYPE ppa_store_commit_to_durable_cycles summary\n",
		"ppa_persist_acked_stores 12345\n",
		"ppa_core0_wb_occupancy 3.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestPromNameMangling(t *testing.T) {
	cases := map[string]string{
		"persist.acked-stores":  "ppa_persist_acked_stores",
		"core0.regions":         "ppa_core0_regions",
		"weird name/with:chars": "ppa_weird_name_with_chars",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := promLabels("cause=a b,kind=x\"y"); got != `cause="a b",kind="x\"y"` {
		t.Errorf("promLabels escaping = %q", got)
	}
}
