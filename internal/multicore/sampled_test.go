package multicore

import (
	"bytes"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/obs"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// sampledSchemes is the equivalence coverage set: every scheme family in
// internal/persist that runs on the standard hierarchy.
func sampledSchemes() map[string]persist.Config {
	return map[string]persist.Config{
		"baseline":    persist.BaselineDefault(),
		"ppa":         persist.PPADefault(),
		"replaycache": persist.ReplayCacheDefault(),
		"capri":       persist.CapriDefault(),
	}
}

// TestSampledVsFullEquivalence is the committed-trajectory audit at unit
// scale: for every scheme, a sampled run must leave the exact golden
// architectural memory in the NVM image (byte-identical final state — the
// fast-forward engine executes every instruction functionally), with the
// lockstep oracle green inside every detailed window, and the extrapolated
// CPI within a loose bound of the full run's. The tight 3% bound is
// enforced at the canonical window=50k/period=1M configuration by the CI
// sample-audit job; at this test's tiny scale (short windows over a short
// trace) sampling noise is structurally larger.
func TestSampledVsFullEquivalence(t *testing.T) {
	const insts = 12_000
	sc := SampleConfig{Window: 1500, Period: 6000}
	for name, scheme := range sampledSchemes() {
		t.Run(name, func(t *testing.T) {
			p, err := workload.ByName("mcf")
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.New(p, insts)
			if err != nil {
				t.Fatal(err)
			}

			cfg := DefaultConfig(len(w.Threads), scheme)
			cfg.Lockstep = true
			cfg.Obs = obs.NewHub(0)
			ss, err := NewSampled(cfg, w, sc)
			if err != nil {
				t.Fatal(err)
			}
			for !ss.Done() {
				if err := ss.RunWindow(); err != nil {
					t.Fatalf("sampled run: %v", err)
				}
			}
			sampled := ss.Result()
			if sampled.Insts != uint64(w.TotalInsts()) {
				t.Fatalf("sampled executed %d insts, trace has %d", sampled.Insts, w.TotalInsts())
			}

			// Architectural final state: the NVM image must hold the golden
			// value of every word any thread ever wrote.
			img := ss.Device().Image()
			for tid, prog := range w.Threads {
				g := isa.RunGolden(prog, -1)
				g.Mem.Range(func(addr, want uint64) bool {
					if got := img.ReadWord(addr); got != want {
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
			w2, err := workload.New(p, insts)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(fullCfg, w2)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Run(CycleBudget(insts)); err != nil {
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

			// Persist latency: where the scheme produces a commit-to-durable
			// distribution, the sampled windows must see one too, with p95
			// in the same ballpark.
			fp95, fn := histP95(t, fullCfg.Obs, "store.commit-to-durable-cycles")
			sp95, sn := histP95(t, cfg.Obs, "store.commit-to-durable-cycles")
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

// TestWindowReplayDeterminism: a window snapshot must encode canonically,
// survive a decode round trip, and replay to identical results every time,
// in isolation from the system it was captured from. Runs under -race in
// CI's internal-package pass.
func TestWindowReplayDeterminism(t *testing.T) {
	p, err := workload.ByName("water-ns") // multi-threaded: exercises per-core sections
	if err != nil {
		t.Fatal(err)
	}
	const insts = 6000
	w, err := workload.New(p, insts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(len(w.Threads), persist.PPADefault())
	cfg.Lockstep = true
	sc := SampleConfig{Window: 1000, Period: 3000}
	ss, err := NewSampled(cfg, w, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Advance past one full period so the snapshot has non-trivial state
	// (warm lines, advanced positions, populated image).
	if err := ss.RunWindow(); err != nil {
		t.Fatal(err)
	}

	ws := ss.SnapshotWindow()
	blob := ws.Encode()
	if blob2 := ws.Encode(); !bytes.Equal(blob, blob2) {
		t.Fatal("snapshot encoding is not canonical")
	}
	dec, err := DecodeWindowSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), blob) {
		t.Fatal("decode/encode round trip changed the snapshot")
	}

	// Corruption must be refused, not absorbed.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x40
	if _, err := DecodeWindowSnapshot(bad); err == nil {
		t.Fatal("corrupted snapshot decoded without error")
	}

	r1, err := RestoreWindow(cfg, w, dec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreWindow(cfg, w, dec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Insts != r2.Insts {
		t.Fatalf("window replay diverged: %d cycles/%d insts vs %d cycles/%d insts",
			r1.Cycles, r1.Insts, r2.Cycles, r2.Insts)
	}
	if r1.NVMLineWrites != r2.NVMLineWrites || r1.WBEnqueuedLines != r2.WBEnqueuedLines {
		t.Fatalf("window replay memory traffic diverged: NVM %d vs %d, WB %d vs %d",
			r1.NVMLineWrites, r2.NVMLineWrites, r1.WBEnqueuedLines, r2.WBEnqueuedLines)
	}
	wantInsts := 0
	for i := range dec.Positions {
		wantInsts += dec.Stops[i] - dec.Positions[i]
	}
	if r1.Insts != uint64(wantInsts) {
		t.Fatalf("window replay committed %d insts, window spans %d", r1.Insts, wantInsts)
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
