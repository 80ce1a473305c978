package main

import (
	"context"
	"fmt"
	"time"

	"ppa"
	"ppa/internal/cache"
	"ppa/internal/isa"
	"ppa/internal/litmus"
	"ppa/internal/multicore"
	"ppa/internal/nvm"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/stats"
	"ppa/internal/workload"
)

// The traced runs time calls into each layer's public functions from this
// package. Each alternates untraced and traced passes over the same inputs
// for the measurement time, so trace.overhead_frac compares like with like.

// loopStats aggregates what a traced replica loop counted.
type loopStats struct {
	led                        *ledger
	cycles, insts, steps, idle uint64
	backlog                    uint64
	accepts, rejects           uint64
	nvmWrites, nvmReads        uint64
	wpqOccCycles               float64
	cacheNew, assemble         []float64 // ms per machine
}

func newLoopStats() *loopStats { return &loopStats{led: newLedger()} }

// addReplica folds one finished replica run into the aggregate.
func (s *loopStats) addReplica(r *replica, res *multicore.Result) {
	s.led.add(r.led)
	s.cycles += res.Cycles
	s.insts += res.Insts
	s.steps += r.steps
	s.idle += r.idleSteps
	s.backlog += r.backlogSum
	a, j := r.backendCounts()
	s.accepts += a
	s.rejects += j
	s.nvmWrites += res.NVMLineWrites
	s.nvmReads += res.NVMReads
	s.wpqOccCycles += res.NVMAvgWPQOccupancy * float64(res.Cycles)
	s.cacheNew = append(s.cacheNew, float64(r.cacheNewNs)/1e6)
	s.assemble = append(s.assemble, float64(r.assembleNs)/1e6)
}

// fill writes the cycle-loop metrics; suffix selects the per-scheme names.
func (s *loopStats) fill(v layerValues, suffix string) {
	cyc := float64(s.cycles)
	v[mStepNs+suffix] = stats.Ratio(float64(s.led.self(layerPipeline)), float64(s.steps))
	v[mIdleFrac+suffix] = stats.Ratio(float64(s.idle), float64(s.steps))
	v[mIPC+suffix] = stats.Ratio(float64(s.insts), cyc)
	v[mBackendTick+suffix] = stats.Ratio(float64(s.led.self(layerBackend)), cyc)
	v[mBackendReject+suffix] = stats.Ratio(float64(s.rejects), float64(s.accepts+s.rejects))
	if suffix != "" {
		return
	}
	v[mTickNs] = stats.Ratio(float64(s.led.self(layerCache)), cyc)
	v[mGlue] = stats.Ratio(float64(s.led.self(layerGlue)), cyc)
	v[mBacklog] = stats.Ratio(float64(s.backlog), cyc)
	v[mNVMWrites] = stats.Ratio(float64(s.nvmWrites), float64(s.insts)/1000)
	v[mNVMReads] = stats.Ratio(float64(s.nvmReads), float64(s.insts)/1000)
	v[mWPQOcc] = stats.Ratio(s.wpqOccCycles, cyc)
	v[mCacheNew] = median(s.cacheNew)
	v[mAssemble] = median(s.assemble)
	if c := s.led.calls[layerOracleCommit]; c > 0 {
		v[mOracleCommit] = float64(s.led.incl[layerOracleCommit]) / float64(c)
	}
	if c := s.led.calls[layerOracleAccept]; c > 0 {
		v[mOracleAccept] = float64(s.led.incl[layerOracleAccept]) / float64(c)
	}
}

// tracedPart is one workload's traced pass: the per-layer metrics it
// measured, its output checks, and extra figures for the ledger line.
type tracedPart struct {
	values layerValues
	checks *checker
	extra  map[string]any
}

// runTraced runs the workload's traced pass for o.seconds, then one short
// probe pass of every other workload, so that each per-layer metric is a
// measurement even on a workload that never calls that layer. The
// workload's own figures take precedence; the ledger line lists the
// metrics each probe supplied.
func runTraced(def workloadDef, o options) (*Result, error) {
	own, err := def.traced(o)
	if err != nil {
		return nil, err
	}
	c := own.checks
	type probe struct {
		name   string
		values layerValues
	}
	var probes []probe
	for _, w := range workloads() {
		if w.name == def.name {
			continue
		}
		p, err := w.traced(options{workload: w.name, seed: o.seed, probe: true})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", w.name, err)
		}
		c.add(w.name, p.checks)
		probes = append(probes, probe{w.name, p.values})
	}
	v := make(layerValues)
	probed := make(map[string][]string)
metrics:
	for _, m := range perLayerMetrics() {
		if x, ok := own.values[m.name]; ok {
			v[m.name] = x
			continue
		}
		for _, p := range probes {
			if x, ok := p.values[m.name]; ok {
				v[m.name] = x
				probed[p.name] = append(probed[p.name], m.name)
				continue metrics
			}
		}
		return nil, fmt.Errorf("per-layer metric %s measured by no traced pass", m.name)
	}
	line := map[string]any{"workload": def.name, "traced": true, "checks": c.report(), "probed": probed}
	for k, x := range own.extra {
		line[k] = x
	}
	printLine("ledger", line)
	return &Result{Correct: c.correct(), Attempted: max(c.attempted, 1), Failed: c.failed, Metrics: v.result()}, nil
}

// zooTrace runs one traced replica of a zoo config and returns its result,
// final image and replica.
func zooTrace(s runSpec) (*multicore.Result, *isa.MapMemory, *replica, int64, error) {
	led := newLedger()
	t0 := led.now()
	w, err := workload.New(s.prof, s.insts)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	gen := led.now() - t0
	r, err := newReplica(w, s.persistConfig(), false, led)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := r.run(^uint64(0), runBound(s.insts)); err != nil {
		return nil, nil, nil, 0, err
	}
	return r.collect(), r.dev.Image(), r, gen, nil
}

func tracedZoo(o options) (*tracedPart, error) {
	in, err := zooSetup(o.seed)
	if err != nil {
		return nil, err
	}
	c := newChecker(in.ref, "zoo-detailed", o.seed)
	v := make(layerValues)
	all := newLoopStats()
	byScheme := make(map[ppa.Scheme]*loopStats)
	untracedNs := make(map[ppa.Scheme]int64)
	untracedInsts := make(map[ppa.Scheme]uint64)
	var genNs int64
	var genInsts, simCycles uint64
	var overheads []float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		var plain, traced int64
		for _, s := range in.specs {
			c.attempted++
			t0 := time.Now()
			res, img, err := runDetailed(s)
			d := time.Since(t0).Nanoseconds()
			if err != nil {
				c.fail(s.key(), err)
				continue
			}
			plain += d
			untracedNs[s.scheme] += d
			untracedInsts[s.scheme] += res.Insts
			want, err := outputDigest(res, img)
			if err != nil {
				return nil, err
			}

			t0 = time.Now()
			tres, timg, r, gen, err := zooTrace(s)
			traced += time.Since(t0).Nanoseconds()
			if err != nil {
				c.fail(s.key()+" replica", err)
				continue
			}
			got, err := outputDigest(tres, timg)
			if err != nil {
				return nil, err
			}
			// The replica must be the same program: same cycles, commits
			// and NVM image as the ppa.Run path.
			if got != want {
				c.problem("%s: replica digest %s (cycles %d, insts %d) differs from ppa.Run's %s (cycles %d, insts %d)",
					s.key(), got, tres.Cycles, tres.Insts, want, res.Cycles, res.Insts)
			}
			c.observe(s.key(), got)
			if round == 0 {
				simCycles += tres.Cycles
			}
			genNs += gen
			genInsts += uint64(r.w.TotalInsts())
			all.addReplica(r, tres)
			if byScheme[s.scheme] == nil {
				byScheme[s.scheme] = newLoopStats()
			}
			byScheme[s.scheme].addReplica(r, tres)
		}
		if plain > 0 {
			overheads = append(overheads, float64(traced)/float64(plain)-1)
		}
	}
	all.fill(v, "")
	var acceptNs []float64
	for _, sch := range ppa.Schemes() {
		st := byScheme[sch]
		if st == nil {
			continue
		}
		sfx := "." + string(sch)
		st.fill(v, sfx)
		v[mSimInsts+sfx] = stats.Ratio(float64(untracedInsts[sch]), float64(untracedNs[sch])/1e9)
		cfg, err := ppa.SchemeConfig(sch)
		if err != nil {
			return nil, err
		}
		if ns := acceptNsPerCall(cfg); ns > 0 {
			v[mBackendAccept+sfx] = ns
			acceptNs = append(acceptNs, ns)
		}
	}
	v[mBackendAccept] = stats.Mean(acceptNs)
	v[mGen] = stats.Ratio(float64(genNs), float64(genInsts))
	v[mSimCycles] = float64(simCycles)
	v[mTraceOverhead] = median(overheads)
	return &tracedPart{values: v, checks: c, extra: map[string]any{
		"layers": all.led.report(),
		"rounds": len(overheads),
	}}, nil
}

// acceptNsPerCall times a scheme backend's TryAccept standalone, on a
// fresh backend, in batches of 16 calls between region closes (marker and
// drain). Inside the cycle loop TryAccept is reached only through
// Core.Step, which this benchmark does not instrument.
func acceptNsPerCall(sch persist.Config) float64 {
	const calls, region = 20_000, 16
	dev := nvm.NewDevice(nvm.DefaultConfig())
	b := persist.SchemeFor(sch).NewBackend(1, dev)
	if b == nil {
		return 0
	}
	lp, _ := b.(*persist.LogPath)
	led := newLedger()
	var ns int64
	var cycle uint64
	n := 0
	for n < calls {
		t := led.now()
		for j := 0; j < region && n < calls; j++ {
			b.TryAccept(0, 0x10000+uint64(n%512)*8, uint64(n))
			n++
		}
		ns += led.now() - t
		if lp != nil {
			if sch.Kind == persist.HTPM {
				lp.FlushBuffered(0)
			}
			lp.AppendMarker(0, n)
		}
		for k := 0; k < 100_000 && b.PendingOf(0) > 0; k++ {
			b.Tick(cycle)
			cycle++
		}
	}
	return float64(ns) / float64(n)
}

func tracedSampled(o options) (*tracedPart, error) {
	in, err := sampledSetup(o.seed)
	if err != nil {
		return nil, err
	}
	c := newChecker(in.ref, "sampled", o.seed)
	v := make(layerValues)
	var genNs, windowNs, ffNs int64
	var genInsts, ffInsts, simCycles uint64
	var windows int
	var overheads []float64
	images := make(map[string]*isa.MapMemory)
	cpis := make(map[string]float64)
	led := newLedger()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		var plain, traced int64
		for _, s := range in.specs {
			c.attempted++
			t0 := time.Now()
			res, img, err := runSampledSpec(s)
			d := time.Since(t0).Nanoseconds()
			if err != nil {
				c.fail(s.key(), err)
				continue
			}
			plain += d
			want, err := outputDigest(res, img)
			if err != nil {
				return nil, err
			}
			if _, ok := images[s.key()]; !ok {
				images[s.key()] = img
				cpis[s.key()] = res.CPI()
			}

			t := led.now()
			wl, err := workload.New(s.prof, s.insts)
			if err != nil {
				return nil, err
			}
			tg := led.now()
			genNs += tg - t
			genInsts += uint64(wl.TotalInsts())
			ss, err := multicore.NewSampled(multicore.DefaultConfig(len(wl.Threads), s.persistConfig()), wl, sampledConfig)
			if err != nil {
				return nil, err
			}
			for !ss.Done() {
				tw := led.now()
				if err := ss.RunWindow(); err != nil {
					return nil, fmt.Errorf("%s window: %w", s.key(), err)
				}
				windowNs += led.now() - tw
				windows++
			}
			tres := ss.Result()
			traced += led.now() - t
			got, err := outputDigest(tres, ss.Device().Image())
			if err != nil {
				return nil, err
			}
			if got != want {
				c.problem("%s: traced sampled digest %s differs from the untraced %s", s.key(), got, want)
			}
			c.observe(s.key(), got)
			if round == 0 {
				simCycles += tres.DetailedCycles
			}

			// Fast-forward alone: the functional engine over the whole trace.
			eng := oracle.New(wl.Threads, nil)
			img2 := isa.NewMapMemory()
			tf := led.now()
			for core, prog := range wl.Threads {
				if err := eng.FastForward(core, prog.Len(), img2, oracle.NewWarmth(sampledConfig.WarmLines)); err != nil {
					return nil, err
				}
				ffInsts += uint64(prog.Len())
			}
			ffNs += led.now() - tf
		}
		if plain > 0 {
			overheads = append(overheads, float64(traced)/float64(plain)-1)
		}
	}
	cpiErr, err := sampledAccuracy(in.specs, images, cpis, c)
	if err != nil {
		return nil, err
	}
	v[mGen] = stats.Ratio(float64(genNs), float64(genInsts))
	v[mWindow] = stats.Ratio(float64(windowNs)/1e6, float64(windows))
	v[mFastForward] = stats.Ratio(float64(ffNs), float64(ffInsts))
	v[mSimCycles] = float64(simCycles)
	v[mCPIErr] = cpiErr
	v[mTraceOverhead] = median(overheads)
	return &tracedPart{values: v, checks: c, extra: map[string]any{
		"rounds":  len(overheads),
		"windows": windows,
		"split_ms": map[string]float64{
			"workload.New":  float64(genNs) / 1e6,
			"RunWindow":     float64(windowNs) / 1e6,
			"FastForward*":  float64(ffNs) / 1e6,
			"sampled_total": float64(genNs+windowNs) / 1e6,
		},
	}}, nil
}

func tracedCrash(o options) (*tracedPart, error) {
	in, err := crashSetup(o.seed)
	if err != nil {
		return nil, err
	}
	c := newChecker(nil, "crash-sweep", o.seed)
	v := make(layerValues)
	all := newLoopStats()
	var assemble, recovery []float64
	var runNs, replicaNs, seqNs, obsNs, parNs int64
	var simCycles uint64
	led := newLedger()
	start := time.Now()
	// Each round takes the next tracedCrashPoints points of every scheme,
	// so a round stays short and the whole sweep is covered over time.
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		for _, sw := range in.sweeps {
			rc := sw.runConfig()
			n := tracedCrashPoints
			if o.probe {
				n = probeCrashPoints
			}
			lo := (round * n) % len(sw.points)
			pts := sw.points[lo:min(lo+n, len(sw.points))]
			for _, p := range pts {
				c.attempted++
				t0 := led.now()
				wl, err := workload.New(sw.spec.prof, sw.spec.insts)
				if err != nil {
					return nil, err
				}
				t1 := led.now()
				sys, err := ppa.NewSystem(rc)
				if err != nil {
					return nil, err
				}
				t2 := led.now()
				if _, err := sys.RunUntil(p.Cycle); err != nil {
					c.fail(sw.spec.key()+" "+p.String(), err)
					continue
				}
				t3 := led.now()
				out, err := ppa.RunTorturePoint(rc, p)
				t4 := led.now()
				if err != nil {
					c.fail(sw.spec.key()+" "+p.String(), err)
					continue
				}
				if out.Violation != "" {
					c.fail(sw.spec.key()+" "+p.String(), fmt.Errorf("%s", out.Violation))
				}
				assemble = append(assemble, float64((t2-t1)-(t1-t0))/1e6)
				recovery = append(recovery, float64((t4-t3)-(t2-t1)-(t3-t2))/1e6)
				runNs += t3 - t2

				// The same pre-crash run on the traced replica, with the
				// oracle's sink and observers timed.
				r, err := newReplica(wl, sw.spec.persistConfig(), true, newLedger())
				if err != nil {
					return nil, err
				}
				tr := r.led.now()
				if err := r.run(p.Cycle, runBound(sw.spec.insts)); err != nil {
					c.fail(sw.spec.key()+" "+p.String()+" replica", err)
					continue
				}
				replicaNs += r.led.now() - tr
				if r.cycle != sys.Cycle() || fmt.Sprint(committed(r)) != fmt.Sprint(committedSys(sys)) {
					c.problem("%s %v: replica stopped at cycle %d with %v committed, ppa.NewSystem at %d with %v",
						sw.spec.key(), p, r.cycle, committed(r), sys.Cycle(), committedSys(sys))
				}
				if round == 0 {
					simCycles += r.cycle
				}
				all.addReplica(r, r.collect())
			}
			// Obs cost and worker scaling on the same points.
			t0 := led.now()
			if _, err := ppa.RunTorture(rc, pts, nil); err != nil {
				return nil, err
			}
			t1 := led.now()
			orc := rc
			orc.Obs = ppa.NewObsHub(0)
			if _, err := ppa.RunTorture(orc, pts, nil); err != nil {
				return nil, err
			}
			t2 := led.now()
			if _, err := ppa.RunTortureParallel(context.Background(), rc, pts, crashWorkers, nil); err != nil {
				return nil, err
			}
			t3 := led.now()
			seqNs += t1 - t0
			obsNs += t2 - t1
			parNs += t3 - t2
		}
	}
	all.fill(v, "")
	v[mAssemble] = median(assemble)
	v[mCrashRecover] = median(recovery)
	v[mObsOverhead] = stats.Ratio(float64(obsNs), float64(seqNs)) - 1
	v[mSpeedup2w] = stats.Ratio(float64(seqNs), float64(parNs))
	v[mTraceOverhead] = stats.Ratio(float64(replicaNs), float64(runNs)) - 1
	v[mSimCycles] = float64(simCycles)
	return &tracedPart{values: v, checks: c, extra: map[string]any{
		"layers":            all.led.report(),
		"seq_ms":            float64(seqNs) / 1e6,
		"seq_obs_hub_ms":    float64(obsNs) / 1e6,
		"parallel_2w_ms":    float64(parNs) / 1e6,
		"pre_crash_run_ms":  float64(runNs) / 1e6,
		"replica_run_ms":    float64(replicaNs) / 1e6,
		"oracle_commit_ms":  float64(all.led.incl[layerOracleCommit]) / 1e6,
		"oracle_accept_ms":  float64(all.led.incl[layerOracleAccept]) / 1e6,
		"oracle_call_count": all.led.calls[layerOracleCommit] + all.led.calls[layerOracleAccept],
	}}, nil
}

func committed(r *replica) []int {
	out := make([]int, len(r.cores))
	for i, c := range r.cores {
		out[i] = c.Committed()
	}
	return out
}

func committedSys(s *multicore.System) []int {
	out := make([]int, len(s.Cores()))
	for i, c := range s.Cores() {
		out[i] = c.Committed()
	}
	return out
}

func tracedLitmus(o options) (*tracedPart, error) {
	in, err := litmusSetup(o.seed)
	if err != nil {
		return nil, err
	}
	if o.probe {
		in.tests = in.tests[:probeLitmusTests]
	}
	c := newChecker(nil, "litmus", o.seed)
	v := make(layerValues)
	var compile, exec, cacheNew, assemble []float64
	var plainNs, tracedNs int64
	led := newLedger()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < o.seconds; round++ {
		for i, opt := range in.opts {
			key := string(litmusSchemes[i])
			t0 := led.now()
			if _, err := litmus.RunCorpus(in.tests, opt, nil); err != nil {
				return nil, err
			}
			t1 := led.now()
			plainNs += t1 - t0
			var comps []*litmus.Compiled
			for _, t := range in.tests {
				c.attempted += opt.Schedules
				t0 := led.now()
				comp, err := litmus.Compile(t)
				if err != nil {
					return nil, err
				}
				t1 := led.now()
				res, err := litmus.RunTest(t, opt)
				t2 := led.now()
				if err != nil {
					c.fail(key+" "+t.Name, err)
					continue
				}
				countForbidden(c, key, &litmus.CorpusReport{Tests: []*litmus.TestResult{res}})
				compile = append(compile, float64(t1-t0)/1e6)
				exec = append(exec, float64((t2-t1)-(t1-t0))/1e6/float64(opt.Schedules))
				comps = append(comps, comp)
			}
			tracedNs += led.now() - t1

			// Machine assembly alone, as the harness configures it: one
			// machine per schedule, back to back, so the collector runs as
			// often as it does inside RunTest.
			for _, comp := range comps {
				cfg := multicore.DefaultConfig(len(comp.Progs), *opt.Scheme)
				cfg.Hierarchy.PersistTransit = 24
				cfg.Hierarchy.PersistLag = 60
				wl := &workload.Workload{
					Profile: workload.Profile{Name: "litmus", DepDistance: 1, Threads: len(comp.Progs), SyncContention: 1},
					Threads: comp.Progs,
				}
				t3 := led.now()
				for k := 0; k < opt.Schedules; k++ {
					cache.New(cfg.Hierarchy, nvm.NewDevice(cfg.NVM), workload.WarmResident, workload.L2Resident)
				}
				t4 := led.now()
				for k := 0; k < opt.Schedules; k++ {
					if _, err := multicore.NewSystem(cfg, wl); err != nil {
						return nil, err
					}
				}
				t5 := led.now()
				cacheNew = append(cacheNew, float64(t4-t3)/1e6/float64(opt.Schedules))
				assemble = append(assemble, float64(t5-t4)/1e6/float64(opt.Schedules))
			}
		}
	}
	v[mCompile] = median(compile)
	v[mExec] = median(exec)
	v[mCacheNew] = median(cacheNew)
	v[mAssemble] = median(assemble)
	v[mTraceOverhead] = stats.Ratio(float64(tracedNs), float64(plainNs)) - 1
	return &tracedPart{values: v, checks: c, extra: map[string]any{
		"corpus_ms":           float64(plainNs) / 1e6,
		"per_test_pass_ms":    float64(tracedNs) / 1e6,
		"tests":               len(in.tests),
		"schedules":           litmusScheds,
		"compile_share":       stats.Ratio(median(compile), median(compile)+median(exec)*litmusScheds),
		"assemble_share_exec": stats.Ratio(median(assemble), median(exec)),
	}}, nil
}
