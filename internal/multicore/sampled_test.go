package multicore

import (
	"bytes"
	"encoding/json"
	"maps"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/obs"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// sampledSchemes is the equivalence coverage set: all ten schemes in
// internal/persist.
func sampledSchemes() map[string]persist.Config {
	return map[string]persist.Config{
		"baseline":    persist.BaselineDefault(),
		"ppa":         persist.PPADefault(),
		"replaycache": persist.ReplayCacheDefault(),
		"capri":       persist.CapriDefault(),
		"eadr":        persist.EADRDefault(),
		"sb-gate":     persist.SBGateDefault(),
		"dram-only":   persist.DRAMOnlyDefault(),
		"undolog":     persist.UndoLogDefault(),
		"redotxn":     persist.RedoTxnDefault(),
		"htpm":        persist.HTPMDefault(),
	}
}

// TestSampledVsFullEquivalence is the committed-trajectory audit at unit
// scale: for every scheme, on single-threaded mcf and 8-thread water-ns, a
// sampled run must leave the exact golden architectural memory in the NVM
// image (byte-identical final state — the fast-forward engine executes
// every instruction functionally), with the lockstep oracle green inside
// every detailed window, and the extrapolated CPI within a loose bound of
// the full run's. Each sampled run goes twice and must replay to the same
// SampledResult JSON and NVM image. The tight 3% bound is enforced at the
// canonical window=50k/period=1M configuration by the CI sample-audit job;
// at this test's tiny scale (short windows over a short trace) sampling
// noise is structurally larger.
func TestSampledVsFullEquivalence(t *testing.T) {
	apps := []struct {
		prefix, app string
		insts       int
		sc          SampleConfig
	}{
		{"", "mcf", 12_000, SampleConfig{Window: 1500, Period: 6000}},
		{"water-ns/", "water-ns", 6000, SampleConfig{Window: 1000, Period: 3000}},
	}
	for _, a := range apps {
		for name, scheme := range sampledSchemes() {
			t.Run(a.prefix+name, func(t *testing.T) {
				p, err := workload.ByName(a.app)
				if err != nil {
					t.Fatal(err)
				}
				w, err := workload.New(p, a.insts)
				if err != nil {
					t.Fatal(err)
				}

				cfg := DefaultConfig(len(w.Threads), scheme)
				cfg.Lockstep = true
				sampledRun := func() (*SampledResult, map[uint64]uint64, *obs.Hub) {
					cfg.Obs = obs.NewHub(0)
					ss, err := NewSampled(cfg, w, a.sc)
					if err != nil {
						t.Fatal(err)
					}
					for !ss.Done() {
						if err := ss.RunWindow(); err != nil {
							t.Fatalf("sampled run: %v", err)
						}
					}
					return ss.Result(), ss.Device().Image().Snapshot(), cfg.Obs
				}
				sampled, img, hub := sampledRun()
				if sampled.Insts != uint64(w.TotalInsts()) {
					t.Fatalf("sampled executed %d insts, trace has %d", sampled.Insts, w.TotalInsts())
				}

				// Determinism: a second run of the same windows must replay
				// to the same result and the same image.
				again, img2, _ := sampledRun()
				j1, err := json.Marshal(sampled)
				if err != nil {
					t.Fatal(err)
				}
				j2, err := json.Marshal(again)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(j1, j2) {
					t.Fatalf("sampled replay diverged:\n%s\n%s", j1, j2)
				}
				if !maps.Equal(img, img2) {
					t.Fatalf("sampled replay left a different NVM image (%d vs %d words)", len(img), len(img2))
				}

				// Architectural final state: the NVM image must hold the
				// golden value of every word any thread ever wrote.
				for tid, prog := range w.Threads {
					g := isa.RunGolden(prog, -1)
					g.Mem.Range(func(addr, want uint64) bool {
						if got := img[addr]; got != want {
							t.Fatalf("thread %d: image[%#x] = %#x, golden %#x", tid, addr, got, want)
						}
						return true
					})
				}

				// Timing: extrapolated CPI within a loose factor of the full
				// detailed run (tight bounds are CI's job at real scale).
				fullCfg := DefaultConfig(len(w.Threads), scheme)
				fullCfg.Lockstep = true
				fullCfg.Obs = obs.NewHub(0)
				sys, err := NewSystem(fullCfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Run(CycleBudget(a.insts)); err != nil {
					t.Fatalf("full run: %v", err)
				}
				full := sys.Collect()
				fullCPI := float64(full.Cycles) / float64(full.Insts)
				relErr := (sampled.CPI() - fullCPI) / fullCPI
				if relErr < 0 {
					relErr = -relErr
				}
				if relErr > 0.25 {
					t.Errorf("sampled CPI %.3f vs full %.3f: %.1f%% error", sampled.CPI(), fullCPI, relErr*100)
				}

				// Persist latency: where the scheme produces a
				// commit-to-durable distribution, the sampled windows must
				// see one too, with p95 in the same ballpark.
				fp95, fn := histP95(t, fullCfg.Obs, "store.commit-to-durable-cycles")
				sp95, sn := histP95(t, hub, "store.commit-to-durable-cycles")
				if fn > 0 {
					if sn == 0 {
						t.Fatalf("full run observed %d persists, sampled none", fn)
					}
					if fp95 > 0 {
						r := sp95 / fp95
						if r < 0.5 || r > 2.0 {
							t.Errorf("persist p95: sampled %.0f vs full %.0f", sp95, fp95)
						}
					}
				}
			})
		}
	}
}

// histP95 reads one histogram's p95 and count from a hub snapshot.
func histP95(t *testing.T, hub *obs.Hub, name string) (p95 float64, count uint64) {
	t.Helper()
	for _, s := range hub.Registry().Snapshot() {
		if s.Name == name {
			return s.P95, s.Count
		}
	}
	return 0, 0
}

// TestSampledMarksObsSamples: the extrapolated gauges and the in-window
// persist histogram must carry the Sampled flag in snapshots.
func TestSampledMarksObsSamples(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(p, 4000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(len(w.Threads), persist.PPADefault())
	cfg.Obs = obs.NewHub(0)
	if _, err := RunSampled(cfg, w, SampleConfig{Window: 1000, Period: 2000}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"sampled.cpi": false, "sampled.est-cycles": false, "store.commit-to-durable-cycles": false}
	for _, s := range cfg.Obs.Registry().Snapshot() {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = s.Sampled
		}
	}
	for name, sampled := range want {
		if !sampled {
			t.Errorf("%s not marked sampled in snapshot", name)
		}
	}
}

// TestSampleConfigValidate rejects degenerate regimes.
func TestSampleConfigValidate(t *testing.T) {
	if err := (SampleConfig{Window: 0, Period: 100}).Validate(); err == nil {
		t.Error("zero window accepted")
	}
	if err := (SampleConfig{Window: 100, Period: 50}).Validate(); err == nil {
		t.Error("period shorter than window accepted")
	}
	if err := (SampleConfig{Window: 100, Period: 100}).Validate(); err != nil {
		t.Errorf("window == period (all-detailed) rejected: %v", err)
	}
}
