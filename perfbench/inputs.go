package main

import (
	"fmt"

	"ppa"
	"ppa/internal/litmus"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// heldOutSeed is never used while tuning the benchmark or a change: a
// claimed gain must also hold on it.
const heldOutSeed = 9001

// Workload rationale, also written into BENCHMARK.json.
const (
	whyZoo     = "full detailed runs of 3 single-thread and 2 8-thread apps under all 10 schemes: the cycle loop does the work"
	whySampled = "sampled runs of 1M-inst gcc and mcf: trace generation and oracle fast-forward dominate, the cycle loop does not"
	whyCrash   = "oracle-checked torture sweep, 2 workers, ppa and undolog: machine assembly, lockstep oracle and recovery"
	whyLitmus  = "generated Px86 litmus corpus under perturbed schedules, ppa and redotxn: tiny machines, assembly-bound"
)

// Workload sizes. Each round of a workload repeats the same inputs, so
// per-round throughput varies only with the host.
const (
	zooInsts          = 10_000 // per thread
	zooWarmInsts      = 1_000
	sampledInsts      = 1_000_000
	crashInsts        = 2_000
	crashPoints       = 300 // per scheme and batch
	crashMin          = 200
	crashMax          = 8_000 // ppatorture's default failure-cycle range
	crashWorkers      = 2
	crashWarmPoints   = 6
	tracedCrashPoints = 100 // per scheme and traced round
	probeCrashPoints  = 10  // per scheme, when probing from another workload
	probeLitmusTests  = 4
	litmusTests       = 16
	litmusScheds      = 8
	litmusWarmTests   = 3
	setupReps         = 5
)

var (
	zooApps        = []string{"gcc", "mcf", "lbm", "water-ns", "rb"}
	sampledApps    = []string{"gcc", "mcf"}
	sampledConfig  = ppa.SampleConfig{Window: 50_000, Period: 1_000_000}
	crashApp       = "mcf"
	crashSchemes   = []ppa.Scheme{ppa.SchemePPA, ppa.SchemeUndoLog}
	litmusSchemes  = []ppa.Scheme{ppa.SchemePPA, ppa.SchemeRedoTxn}
	sampledSchemes = []ppa.Scheme{ppa.SchemePPA}
)

// mix folds the benchmark seed into a generator seed (splitmix64), so
// each generator gets its own stream from the one --seed argument.
func mix(seed int64, salt uint64) uint64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// runSpec is one simulated configuration: an app trace under a scheme.
type runSpec struct {
	app    string
	scheme ppa.Scheme
	prof   workload.Profile
	insts  int
}

func (s runSpec) key() string { return s.app + "/" + string(s.scheme) }

func (s runSpec) runConfig() ppa.RunConfig {
	p := s.prof
	return ppa.RunConfig{Profile: &p, Scheme: s.scheme, InstsPerThread: s.insts}
}

func (s runSpec) persistConfig() persist.Config {
	cfg, err := ppa.SchemeConfig(s.scheme)
	if err != nil {
		panic(err) // scheme names come from ppa.Schemes
	}
	return cfg
}

// seededProfile returns the app's profile with its trace seed derived from
// the benchmark seed: the same seed gives the same traces.
func seededProfile(app string, seed int64) (workload.Profile, error) {
	p, err := workload.ByName(app)
	if err != nil {
		return p, err
	}
	p.Seed = int64(mix(seed, uint64(p.Seed)) >> 1)
	return p, nil
}

func specs(apps []string, schemes []ppa.Scheme, insts int, seed int64) ([]runSpec, error) {
	var out []runSpec
	for _, app := range apps {
		p, err := seededProfile(app, seed)
		if err != nil {
			return nil, err
		}
		for _, s := range schemes {
			out = append(out, runSpec{app: app, scheme: s, prof: p, insts: insts})
		}
	}
	return out, nil
}

func zooSpecs(seed int64) ([]runSpec, error) {
	return specs(zooApps, ppa.Schemes(), zooInsts, seed)
}

func sampledSpecs(seed int64) ([]runSpec, error) {
	return specs(sampledApps, sampledSchemes, sampledInsts, seed)
}

// crashSweep is one scheme's torture batch.
type crashSweep struct {
	spec   runSpec
	points []ppa.TorturePoint
}

func (c crashSweep) runConfig() ppa.RunConfig {
	rc := c.spec.runConfig()
	rc.Lockstep = true
	return rc
}

func crashSweeps(seed int64) ([]crashSweep, error) {
	ss, err := specs([]string{crashApp}, crashSchemes, crashInsts, seed)
	if err != nil {
		return nil, err
	}
	out := make([]crashSweep, len(ss))
	for i, s := range ss {
		pts, err := ppa.TorturePointsChecked(int64(mix(seed, 0x70+uint64(i))>>1), crashPoints, crashMin, crashMax)
		if err != nil {
			return nil, err
		}
		out[i] = crashSweep{spec: s, points: pts}
	}
	return out, nil
}

// litmusInputs is the generated corpus and per-scheme run options.
type litmusInputs struct {
	tests []*litmus.Test
	opts  []litmus.RunOptions
}

func litmusCorpus(seed int64) (*litmusInputs, error) {
	in := &litmusInputs{tests: litmus.Generate(litmus.GenOptions{Seed: mix(seed, 0x117), Count: litmusTests})}
	if len(in.tests) != litmusTests {
		return nil, fmt.Errorf("litmus generator returned %d tests, want %d", len(in.tests), litmusTests)
	}
	for _, s := range litmusSchemes {
		cfg, err := ppa.SchemeConfig(s)
		if err != nil {
			return nil, err
		}
		in.opts = append(in.opts, litmus.RunOptions{Schedules: litmusScheds, Seed: mix(seed, 0x5c4ed), Scheme: &cfg})
	}
	return in, nil
}
