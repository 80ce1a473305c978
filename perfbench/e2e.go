package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"ppa"
	"ppa/internal/isa"
	"ppa/internal/litmus"
	"ppa/internal/multicore"
	"ppa/internal/stats"
	"ppa/internal/workload"
)

// runDetailed is ppa.Run's body (NewSystem, Run with the same cycle
// bound, Collect), kept open so the final NVM image can be digested.
func runDetailed(s runSpec) (*ppa.Result, *isa.MapMemory, error) {
	sys, err := ppa.NewSystem(s.runConfig())
	if err != nil {
		return nil, nil, err
	}
	if err := sys.Run(runBound(s.insts)); err != nil {
		return nil, nil, err
	}
	return sys.Collect(), sys.Device().Image(), nil
}

// runBound is ppa.Run's cycle limit.
func runBound(insts int) uint64 { return uint64(insts)*4000 + 1_000_000 }

// runSampledSpec is ppa.RunSampled's body (trace generation, the default
// machine, the window loop), kept open for the final NVM image.
func runSampledSpec(s runSpec) (*ppa.SampledResult, *isa.MapMemory, error) {
	w, err := workload.New(s.prof, s.insts)
	if err != nil {
		return nil, nil, err
	}
	ss, err := multicore.NewSampled(multicore.DefaultConfig(len(w.Threads), s.persistConfig()), w, sampledConfig)
	if err != nil {
		return nil, nil, err
	}
	for !ss.Done() {
		if err := ss.RunWindow(); err != nil {
			return nil, nil, err
		}
	}
	return ss.Result(), ss.Device().Image(), nil
}

// timeSetup runs prepare setupReps times and returns the median CPU
// time; the inputs of the last repetition are the ones measured.
func timeSetup(prepare func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c0 := cpuTime()
		if err := prepare(); err != nil {
			return 0, err
		}
		ts = append(ts, (cpuTime() - c0).Seconds())
	}
	return median(ts), nil
}

// meter accumulates one round's operations and the wall and process CPU
// time of the calls that did them.
type meter struct {
	ops       float64
	wall, cpu time.Duration
}

// measure times one call into the simulator. It starts from a collected
// heap, as testing.B does, so garbage an earlier call or the benchmark's
// own checks left is not collected on this call's time. The call returns
// the operations it completed; a failed call is not timed.
func (m *meter) measure(call func() (float64, error)) error {
	runtime.GC()
	w0, c0 := time.Now(), cpuTime()
	ops, err := call()
	c, w := cpuTime()-c0, time.Since(w0)
	if err != nil {
		return err
	}
	m.ops += ops
	m.wall += w
	m.cpu += c
	return nil
}

// rates is the per-round throughput, per CPU second and per wall second.
type rates struct{ cpu, wall []float64 }

// timedRounds repeats round until seconds of wall time have passed (and at
// least minRounds times), recording the rate of each round that completed
// any operation.
func timedRounds(seconds float64, minRounds int, round func(m *meter)) rates {
	var r rates
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start).Seconds() < seconds; n++ {
		var m meter
		round(&m)
		if m.ops > 0 && m.cpu > 0 && m.wall > 0 {
			r.cpu = append(r.cpu, m.ops/m.cpu.Seconds())
			r.wall = append(r.wall, m.ops/m.wall.Seconds())
		}
	}
	return r
}

// finish assembles the contract line and prints the workload's ledger.
// named holds the workload's throughput under its own name (per wall
// second) and any deterministic outputs.
func finish(name string, c *checker, setup float64, r rates, named map[string]any) *Result {
	ops := median(r.cpu)
	rss := peakRSSMB()
	q1, q3 := quartiles(r.cpu)
	ledger := map[string]any{
		"workload":            name,
		"rounds":              len(r.cpu),
		"ops_per_cpu_s":       ops,
		"ops_per_cpu_s_q1_q3": []float64{q1, q3},
		"ops_per_wall_s":      median(r.wall),
		"setup_s":             setup,
		"peak_rss_mb":         rss,
		"checks":              c.report(),
	}
	for k, v := range named {
		ledger[k] = v
	}
	printLine("ledger", ledger)
	return &Result{
		Correct:   c.correct() && len(r.cpu) > 0,
		Attempted: max(c.attempted, 1),
		Failed:    c.failed,
		Metrics: map[string]Metric{
			"ops_per_cpu_s": {Value: ops, Unit: "1/s"},
			"setup_s":       {Value: setup, Unit: "s"},
			"peak_rss_mb":   {Value: rss, Unit: "MB"},
		},
	}
}

// zooInputs are zoo-detailed's prepared configs.
type zooInputs struct {
	specs []runSpec
	ref   referenceTable
}

func zooSetup(seed int64) (*zooInputs, error) {
	ss, err := zooSpecs(seed)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	// Warm-up: every config once on a short trace.
	for _, s := range ss {
		s.insts = zooWarmInsts
		if _, _, err := runDetailed(s); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", s.key(), err)
		}
	}
	return &zooInputs{specs: ss, ref: ref}, nil
}

func runZoo(o options) (*Result, error) {
	var in *zooInputs
	setup, err := timeSetup(func() (err error) { in, err = zooSetup(o.seed); return err })
	if err != nil {
		return nil, err
	}
	c := newChecker(in.ref, "zoo-detailed", o.seed)
	var simCycles uint64
	first := true
	r := timedRounds(o.seconds, 3, func(m *meter) {
		for _, s := range in.specs {
			c.attempted++
			var res *ppa.Result
			var img *isa.MapMemory
			if err := m.measure(func() (_ float64, err error) {
				if res, img, err = runDetailed(s); err != nil {
					return 0, err
				}
				return float64(res.Insts), nil
			}); err != nil {
				c.fail(s.key(), err)
				continue
			}
			if first {
				simCycles += res.Cycles
			}
			dig, err := outputDigest(res, img)
			if err != nil {
				c.problem("%s: %v", s.key(), err)
				continue
			}
			c.observe(s.key(), dig)
		}
		first = false
	})
	return finish("zoo-detailed", c, setup, r, map[string]any{
		"sim_insts_per_s": median(r.wall),
		"sim_cycles":      simCycles,
	}), nil
}

// sampledInputs are the sampled workload's prepared configs.
type sampledInputs struct {
	specs []runSpec
	ref   referenceTable
}

func sampledSetup(seed int64) (*sampledInputs, error) {
	ss, err := sampledSpecs(seed)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	// Warm-up: one short sampled run per app.
	for _, s := range ss {
		s.insts = sampledConfig.Period / 10
		w, err := workload.New(s.prof, s.insts)
		if err != nil {
			return nil, err
		}
		if _, err := multicore.RunSampled(multicore.DefaultConfig(len(w.Threads), s.persistConfig()), w,
			ppa.SampleConfig{Window: sampledConfig.Window / 10, Period: sampledConfig.Period / 10}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", s.key(), err)
		}
	}
	return &sampledInputs{specs: ss, ref: ref}, nil
}

func runSampled(o options) (*Result, error) {
	var in *sampledInputs
	setup, err := timeSetup(func() (err error) { in, err = sampledSetup(o.seed); return err })
	if err != nil {
		return nil, err
	}
	c := newChecker(in.ref, "sampled", o.seed)
	images := make(map[string]*isa.MapMemory)
	cpis := make(map[string]float64)
	r := timedRounds(o.seconds, 3, func(m *meter) {
		for _, s := range in.specs {
			c.attempted++
			var res *ppa.SampledResult
			var img *isa.MapMemory
			if err := m.measure(func() (_ float64, err error) {
				if res, img, err = runSampledSpec(s); err != nil {
					return 0, err
				}
				return float64(res.Insts), nil
			}); err != nil {
				c.fail(s.key(), err)
				continue
			}
			dig, err := outputDigest(res, img)
			if err != nil {
				c.problem("%s: %v", s.key(), err)
				continue
			}
			c.observe(s.key(), dig)
			if _, ok := images[s.key()]; !ok {
				images[s.key()] = img
				cpis[s.key()] = res.CPI()
			}
		}
	})
	// Output check: the sampled final image must hold the golden memory;
	// the full detailed run's CPI is the accuracy reference.
	cpiErr, err := sampledAccuracy(in.specs, images, cpis, c)
	if err != nil {
		return nil, err
	}
	return finish("sampled", c, setup, r, map[string]any{
		"sim_insts_per_s":     median(r.wall),
		"sampled_cpi_err_pct": cpiErr,
	}), nil
}

// sampledAccuracy checks each spec's sampled final image against the
// golden architectural memory (every word any thread wrote, as
// ppa.SampleAudit checks it), runs the spec once in full detail, and
// returns the mean CPI error of the sampled estimate in percent.
func sampledAccuracy(ss []runSpec, images map[string]*isa.MapMemory, cpis map[string]float64, c *checker) (float64, error) {
	var errs []float64
	for _, s := range ss {
		img, ok := images[s.key()]
		if !ok {
			continue // the sampled run failed and was counted
		}
		w, err := workload.New(s.prof, s.insts)
		if err != nil {
			return 0, err
		}
		if err := goldenMismatch(img, w); err != nil {
			c.problem("%s: %v", s.key(), err)
		}
		res, _, err := runDetailed(s)
		if err != nil {
			c.problem("full reference run %s: %v", s.key(), err)
			continue
		}
		ref := float64(res.Cycles) / float64(res.Insts)
		errs = append(errs, math.Abs(cpis[s.key()]-ref)/ref*100)
	}
	return stats.Mean(errs), nil
}

// goldenMismatch reports the first word a thread's golden execution wrote
// that the image does not hold.
func goldenMismatch(img *isa.MapMemory, w *workload.Workload) error {
	var bad error
	for tid, prog := range w.Threads {
		isa.RunGolden(prog, -1).Mem.Range(func(addr, want uint64) bool {
			if got := img.ReadWord(addr); got != want {
				bad = fmt.Errorf("sampled final NVM image diverged from golden: thread %d addr %#x got %#x want %#x", tid, addr, got, want)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// crashInputs are the prepared torture batches.
type crashInputs struct{ sweeps []crashSweep }

func crashSetup(seed int64) (*crashInputs, error) {
	sw, err := crashSweeps(seed)
	if err != nil {
		return nil, err
	}
	// Warm-up: the first few points of each scheme, sequentially.
	for _, s := range sw {
		if _, err := ppa.RunTorture(s.runConfig(), s.points[:crashWarmPoints], nil); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", s.spec.key(), err)
		}
	}
	return &crashInputs{sweeps: sw}, nil
}

func runCrash(o options) (*Result, error) {
	var in *crashInputs
	setup, err := timeSetup(func() (err error) { in, err = crashSetup(o.seed); return err })
	if err != nil {
		return nil, err
	}
	c := newChecker(nil, "crash-sweep", o.seed)
	r := timedRounds(o.seconds, 3, func(m *meter) {
		for _, s := range in.sweeps {
			c.attempted += len(s.points)
			var rep *ppa.TortureReport
			if err := m.measure(func() (_ float64, err error) {
				rep, err = ppa.RunTortureParallel(context.Background(), s.runConfig(), s.points, crashWorkers, nil)
				return float64(len(s.points)), err
			}); err != nil {
				c.failed += len(s.points) - 1
				c.fail(s.spec.key(), err)
				continue
			}
			for _, v := range rep.Violations {
				c.fail(s.spec.key()+" "+v.Point.String(), fmt.Errorf("%s", v.Violation))
			}
			dig, err := outputDigest(rep, nil)
			if err != nil {
				c.problem("%s: %v", s.spec.key(), err)
				continue
			}
			c.observe(s.spec.key(), dig)
		}
	})
	return finish("crash-sweep", c, setup, r, map[string]any{
		"torture_points_per_s": median(r.wall),
		"workers":              crashWorkers,
	}), nil
}

func litmusSetup(seed int64) (*litmusInputs, error) {
	in, err := litmusCorpus(seed)
	if err != nil {
		return nil, err
	}
	// Warm-up: the first few tests under each scheme.
	for _, opt := range in.opts {
		if _, err := litmus.RunCorpus(in.tests[:litmusWarmTests], opt, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return in, nil
}

func runLitmus(o options) (*Result, error) {
	var in *litmusInputs
	setup, err := timeSetup(func() (err error) { in, err = litmusSetup(o.seed); return err })
	if err != nil {
		return nil, err
	}
	c := newChecker(nil, "litmus", o.seed)
	r := timedRounds(o.seconds, 3, func(m *meter) {
		for i, opt := range in.opts {
			key := string(litmusSchemes[i])
			c.attempted += len(in.tests) * opt.Schedules
			var rep *litmus.CorpusReport
			if err := m.measure(func() (_ float64, err error) {
				rep, err = litmus.RunCorpus(in.tests, opt, nil)
				return float64(len(in.tests) * opt.Schedules), err
			}); err != nil {
				c.failed += len(in.tests)*opt.Schedules - 1
				c.fail(key, err)
				continue
			}
			countForbidden(c, key, rep)
			dig, err := outputDigest(rep, nil)
			if err != nil {
				c.problem("%s: %v", key, err)
				continue
			}
			c.observe(key, dig)
		}
	})
	return finish("litmus", c, setup, r, map[string]any{
		"litmus_execs_per_s": median(r.wall),
	}), nil
}

// countForbidden counts each schedule with a forbidden outcome as one
// failed execution.
func countForbidden(c *checker, key string, rep *litmus.CorpusReport) {
	for _, tr := range rep.Tests {
		seen := make(map[int]bool)
		for _, f := range tr.Forbidden {
			if !seen[f.Schedule] {
				seen[f.Schedule] = true
				b, _ := json.Marshal(f) // plain struct; cannot fail
				c.fail(key, fmt.Errorf("forbidden: %s", b))
			}
		}
	}
}
