package multicore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// goldenSampledDigests pins every scheme's lockstep sampled run of mcf
// (12 000 insts, window 1 500, period 6 000) and 8-thread water-ns (6 000
// insts, window 1 000, period 3 000): the SHA-256 of its SampledResult JSON,
// of its final NVM image snapshot's JSON, and of the engine's commit and
// accepted-word counts after each window. Each run has several windows,
// so a restart between windows that leaves anything behind moves a digest,
// and so does one that stops checking a window or resets the engine.
var goldenSampledDigests = map[string][3]string{
	"mcf/baseline":         {"81e34e863dc72348678c205f8d62a2f33dc012351befc27cb6a72bfbb6f2593f", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "e234aea2d9dc9de3efbfb5f9d9203fbb8b70d6b8954d9855c6b1e2b34ce17059"},
	"mcf/capri":            {"cdbf64c589337eb6db5507065d995b7d0a8a34e47606a5ed79be94f7596365f4", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "e234aea2d9dc9de3efbfb5f9d9203fbb8b70d6b8954d9855c6b1e2b34ce17059"},
	"mcf/dram-only":        {"6300d703d54083185e7d86c82a588b78f9bec44a297ff66e1e11e24be7fb142d", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "e234aea2d9dc9de3efbfb5f9d9203fbb8b70d6b8954d9855c6b1e2b34ce17059"},
	"mcf/eadr":             {"919b60f805f77a8561b6b54713c45735a3c28178109561466a249117626760fd", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "e234aea2d9dc9de3efbfb5f9d9203fbb8b70d6b8954d9855c6b1e2b34ce17059"},
	"mcf/htpm":             {"d5e328302a9888a777b23c9b354c879d537d8a8e3950434f8779147fe449e469", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "917d4c9dd39536d383cc0268ed0f6d1c2383ba74b9ebd9483d01ccdf95cc9469"},
	"mcf/ppa":              {"e3c3c118714d3e16ef287ac0d81975633cad9be8aaa9d06879fa7dadf8601608", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "c40e5436f97be2131e9affc9a224e22edecc1cfc31957bcbd7579ee25e2b2215"},
	"mcf/redotxn":          {"02817d518b584931d7ac2b4cd37d23e84f583f3ff515aa89c555465ca98ab2e0", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "e234aea2d9dc9de3efbfb5f9d9203fbb8b70d6b8954d9855c6b1e2b34ce17059"},
	"mcf/replaycache":      {"2bf2ace7a7ad6fd5536a3ec5774514bad82c5713aa5806d6e622eae735c47c0d", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "da2aa3e802789d4b2bf857493f08a10980fd98f9f3aa4cfb3dea11c219bdcd01"},
	"mcf/sb-gate":          {"c139c0a8304537203803b47b79101d748d24a3aec17df1a38551e2d1935db274", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "13bd72b81e6d40bd809cc0bfca413abc9d7a7b81f4846e9f8ea635c2f9ee10ef"},
	"mcf/undolog":          {"600c5da2664a4c86d8ee480f2225a17eb37b66ae7d0285da0b178f153f29dd69", "3979bc69a3ee4ee9ecaaf2eb7787b45a393729886381e9be6fb9bc51396c38c7", "917d4c9dd39536d383cc0268ed0f6d1c2383ba74b9ebd9483d01ccdf95cc9469"},
	"water-ns/baseline":    {"670c31d59982c3f838e8bf5e30e6d14998116c8751490244b5578aef3e73a9d1", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "53ba1b40b87390f9d65328544ebce4e3a1afa5570a6d34a47879eaac3ce324b9"},
	"water-ns/capri":       {"b98a048e3f616a1a7a4f6352decc5c377c4393c28c5b3a28cf1a7c88f954420a", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "53ba1b40b87390f9d65328544ebce4e3a1afa5570a6d34a47879eaac3ce324b9"},
	"water-ns/dram-only":   {"73772a1449c95f6ea597bfa1e5db6a7ca9bd15bf7195e67ae8deae778ece0c31", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "53ba1b40b87390f9d65328544ebce4e3a1afa5570a6d34a47879eaac3ce324b9"},
	"water-ns/eadr":        {"2f10d52f059c0c58bd1986e2f9f80be99830a049bf51bdc6b9ce33bef8e735b7", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "53ba1b40b87390f9d65328544ebce4e3a1afa5570a6d34a47879eaac3ce324b9"},
	"water-ns/htpm":        {"1c9bf5da450c293d6f83ac88561974788b6705efc4cd595facd072fa28089aa8", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "76c4eb6eabacc0a427b8f21d1728994c2509c2a8aa2560268e06e649393578e2"},
	"water-ns/ppa":         {"fe6e9d76e1007ede72d8c86b8e81f1bdb597c9bae836949a1dfe79f7921f9518", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "bf1f95d35a505f6f64c224e1ad4c24b2b680fd10cb4e87df3eac9b8c9f92935a"},
	"water-ns/redotxn":     {"efdcd8e0343a9ed463d173c84e0f2e68120e9bc74f2df4ebe15b1342c15fe80e", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "53ba1b40b87390f9d65328544ebce4e3a1afa5570a6d34a47879eaac3ce324b9"},
	"water-ns/replaycache": {"ca98836b7f59d15574f6410cc734e4fd918b91e3bb74a96af0c8ccf12492cf11", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "e15df883b8d955e1a2a647fcf8c96c9286d835a921b377b5aa71027c7ec342a7"},
	"water-ns/sb-gate":     {"1e36dbc7a3a1cfa964a9f13d743df1527770ac0e6e3b4f0feb77e99899829eed", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "161f8fa6354324821b3f5ffd31d8b3513f876f3dc94d4cd75624b9a27b58b98c"},
	"water-ns/undolog":     {"db98bd35f2afc262bd8163fdfd199e43cf81973f0616c5adadc0db2df03042b6", "ffb053bc620a4b5212bcecf190e78b734aabfbbb77bdded2798a58d77c4bd8c2", "30f4c85343f51391942ba00751144f7d41f3ae34a4ae25abcb18c5255eac9500"},
}

// TestSampledGoldenDigests holds multi-window sampled runs byte for byte:
// the per-window machine restart must leave every window as a freshly
// built window would.
func TestSampledGoldenDigests(t *testing.T) {
	digest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, a := range []struct {
		app   string
		insts int
		sc    SampleConfig
	}{
		{"mcf", 12_000, SampleConfig{Window: 1500, Period: 6000}},
		{"water-ns", 6000, SampleConfig{Window: 1000, Period: 3000}},
	} {
		p, err := workload.ByName(a.app)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.New(p, a.insts)
		if err != nil {
			t.Fatal(err)
		}
		for name, scheme := range sampledSchemes() {
			t.Run(a.app+"/"+name, func(t *testing.T) {
				cfg := DefaultConfig(len(w.Threads), scheme)
				cfg.Lockstep = true
				ss, err := NewSampled(cfg, w, a.sc)
				if err != nil {
					t.Fatal(err)
				}
				var engine [][2]uint64 // commits and accepted words after each window
				for !ss.Done() {
					if err := ss.RunWindow(); err != nil {
						t.Fatal(err)
					}
					r := ss.engine.Report()
					engine = append(engine, [2]uint64{r.Commits, r.AcceptedWords})
				}
				if ss.Windows() < 2 {
					t.Fatalf("%d windows: the pin needs a restart between windows", ss.Windows())
				}
				got := [3]string{digest(ss.Result()), digest(ss.Device().Image().Snapshot()), digest(engine)}
				if want := goldenSampledDigests[a.app+"/"+name]; got != want {
					t.Errorf("digests (result, image, engine) %q, golden %q", got, want)
				}
			})
		}
	}
}
