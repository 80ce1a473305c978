package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"ppa"
	"ppa/internal/workload"
)

// shortSpecs are small zoo configs: one single-thread and one 8-thread app
// under a scheme without a backend, a log scheme, and Capri's redo path.
func shortSpecs(t *testing.T) []runSpec {
	t.Helper()
	var out []runSpec
	for _, app := range []string{"gcc", "water-ns"} {
		p, err := seededProfile(app, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []ppa.Scheme{ppa.SchemePPA, ppa.SchemeUndoLog, ppa.SchemeCapri} {
			out = append(out, runSpec{app: app, scheme: s, prof: p, insts: 1_500})
		}
	}
	return out
}

// TestLedgerClosesOnShortRun checks the traced split adds up on a short run
// and that trace.overhead_frac is measured against the untraced run of the
// same inputs.
func TestLedgerClosesOnShortRun(t *testing.T) {
	all := newLoopStats()
	var plain, traced float64
	for _, s := range shortSpecs(t) {
		led := newLedger()
		t0 := led.now()
		if _, _, err := runDetailed(s); err != nil {
			t.Fatal(err)
		}
		t1 := led.now()
		res, _, r, _, err := zooTrace(s)
		if err != nil {
			t.Fatal(err)
		}
		t2 := led.now()
		plain += float64(t1 - t0)
		traced += float64(t2 - t1)
		if _, err := r.led.closure(); err != nil {
			t.Errorf("%s: %v", s.key(), err)
		}
		all.addReplica(r, res)
	}
	if _, err := all.led.closure(); err != nil {
		t.Fatalf("aggregate ledger: %v", err)
	}
	var sum int64
	for i := 0; i < numLayers; i++ {
		sum += all.led.self(i)
	}
	if sum != all.led.total || all.led.total <= 0 {
		t.Fatalf("self times sum to %d ns, loop total %d ns", sum, all.led.total)
	}
	for _, l := range []int{layerCache, layerBackend, layerPipeline, layerGlue} {
		if all.led.self(l) <= 0 {
			t.Errorf("layer %s has no self time", layerNames[l])
		}
	}
	overhead := traced/plain - 1
	if math.IsNaN(overhead) || math.IsInf(overhead, 0) || overhead <= -0.9 {
		t.Fatalf("trace overhead %v is not a measurement", overhead)
	}
	v := make(layerValues)
	all.fill(v, "")
	if v[mStepNs] <= 0 || v[mTickNs] <= 0 || v[mIPC] <= 0 {
		t.Fatalf("cycle-loop metrics not filled: step %v tick %v ipc %v", v[mStepNs], v[mTickNs], v[mIPC])
	}
}

// TestLockstepReplicaTimesOracle checks the oracle sink and observers are
// timed as children of the loop layers and the split still closes.
func TestLockstepReplicaTimesOracle(t *testing.T) {
	for _, s := range []ppa.Scheme{ppa.SchemePPA, ppa.SchemeUndoLog} {
		p, err := seededProfile("mcf", 3)
		if err != nil {
			t.Fatal(err)
		}
		spec := runSpec{app: "mcf", scheme: s, prof: p, insts: 1_000}
		w, err := workload.New(spec.prof, spec.insts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newReplica(w, spec.persistConfig(), true, newLedger())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.run(^uint64(0), runBound(spec.insts)); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if _, err := r.led.closure(); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.led.calls[layerOracleCommit] != uint64(spec.insts) {
			t.Errorf("%s: %d timed commits, want %d", s, r.led.calls[layerOracleCommit], spec.insts)
		}
		if r.led.calls[layerOracleAccept] == 0 {
			t.Errorf("%s: no timed accept or log observer calls", s)
		}
	}
}

// TestReplicaMatchesRun checks the traced replica is the same program as
// ppa.Run for every scheme: same Result fields and final NVM image.
func TestReplicaMatchesRun(t *testing.T) {
	for _, app := range []string{"mcf", "rb"} {
		p, err := seededProfile(app, 11)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ppa.Schemes() {
			spec := runSpec{app: app, scheme: s, prof: p, insts: 1_000}
			res, img, err := runDetailed(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := outputDigest(res, img)
			if err != nil {
				t.Fatal(err)
			}
			tres, timg, _, _, err := zooTrace(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := outputDigest(tres, timg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || tres.Cycles != res.Cycles || tres.Insts != res.Insts {
				t.Errorf("%s: replica %s (%d cycles, %d insts), ppa.Run %s (%d cycles, %d insts)",
					spec.key(), got, tres.Cycles, tres.Insts, want, res.Cycles, res.Insts)
			}
		}
	}
}

// TestReferenceDigests replays seed 0 of zoo-detailed and sampled against
// the recorded reference: a change meant to keep simulated results must
// reproduce every digest.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full zoo round")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(int64) (map[string]string, error){
		"zoo-detailed": zooDigests,
		"sampled":      sampledDigests,
	} {
		want := ref[name]["0"]
		if len(want) == 0 {
			t.Fatalf("%s: no reference recorded for seed 0", name)
		}
		got, err := run(0)
		if err != nil {
			t.Fatal(err)
		}
		for k, d := range want {
			if got[k] != d {
				t.Errorf("%s %s: digest %s, reference %s", name, k, got[k], d)
			}
		}
	}
}

// TestSeedsDriveInputs checks every generator follows the seed.
func TestSeedsDriveInputs(t *testing.T) {
	a, _ := seededProfile("gcc", 1)
	b, _ := seededProfile("gcc", 2)
	if a.Seed == b.Seed {
		t.Error("trace seed ignores the benchmark seed")
	}
	ca, _ := crashSweeps(1)
	cb, _ := crashSweeps(2)
	if ca[0].points[0] == cb[0].points[0] {
		t.Error("torture points ignore the benchmark seed")
	}
	la, _ := litmusCorpus(1)
	lb, _ := litmusCorpus(2)
	if la.opts[0].Seed == lb.opts[0].Seed || sameOps(la, lb) {
		t.Error("litmus corpus or schedules ignore the benchmark seed")
	}
	again, _ := litmusCorpus(1)
	if !sameOps(la, again) {
		t.Error("litmus corpus is not a function of the seed")
	}
}

func sameOps(a, b *litmusInputs) bool {
	x, _ := json.Marshal(a.tests)
	y, _ := json.Marshal(b.tests)
	return string(x) == string(y)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json declares exactly the workloads
// and metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	e2e := endToEndMetrics()
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		d := spec.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound != m.bound {
			t.Errorf("end_to_end %d: declared %+v, reported %+v", i, d, m)
		}
	}
	pl := perLayerMetrics()
	if len(spec.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(spec.PerLayer), len(pl))
	}
	for i, m := range pl {
		d := spec.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per_layer %d: declared %+v, reported %+v", i, d, m)
		}
	}
}
