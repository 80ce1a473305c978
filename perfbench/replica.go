package main

import (
	"fmt"

	"ppa/internal/cache"
	"ppa/internal/isa"
	"ppa/internal/multicore"
	"ppa/internal/nvm"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
	"ppa/internal/workload"
)

// replica is the traced copy of multicore.System: the same machine built
// from the public constructors (nvm.NewDevice, cache.New,
// persist.SchemeFor(...).NewBackend, pipeline.New, oracle.New), stepped in
// System.step's order — Hierarchy.Tick, Backend.Tick, each Core.Step — with
// a timestamp around every call. Nothing inside the simulator is
// instrumented: Core.Step's time includes its backend TryAccept calls, and
// Hierarchy.Tick's includes the NVM device tick and accept.
type replica struct {
	cfg     multicore.Config
	w       *workload.Workload
	dev     *nvm.Device
	hier    *cache.Hierarchy
	backend persist.Backend
	cores   []*pipeline.Core
	orc     *oracle.Machine
	led     *ledger
	cycle   uint64
	done    bool

	// Counts the loop samples: Core.Step calls, those after which the
	// core's Committed() had not moved, and PersistBacklog() summed once
	// per cycle.
	steps, idleSteps, backlogSum uint64

	// Build-time splits, in ns.
	cacheNewNs, assembleNs int64
}

// newReplica assembles the machine multicore.NewSystem would for the same
// workload and scheme (Obs off; lockstep attaches the oracle through timed
// wrappers of the sink and observers it installs).
func newReplica(w *workload.Workload, sch persist.Config, lockstep bool, led *ledger) (*replica, error) {
	t0 := led.now()
	cfg := multicore.DefaultConfig(len(w.Threads), sch)
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	cfg.Hierarchy.Cores = len(w.Threads)
	r := &replica{cfg: cfg, w: w, led: led}
	r.dev = nvm.NewDevice(cfg.NVM)
	tc := led.now()
	r.hier = cache.New(cfg.Hierarchy, r.dev, workload.WarmResident, workload.L2Resident)
	r.cacheNewNs = led.now() - tc
	if lockstep {
		r.orc = oracle.New(w.Threads, nil)
		orc := r.orc
		r.dev.SetAcceptObserver(func(cycle, line uint64, words *isa.LineWords) {
			t := led.now()
			orc.ObserveAccept(cycle, line, words)
			led.nested(layerOracleAccept, led.now()-t)
			led.calls[layerOracleAccept]++
		})
		if sch.UndoLogStores || sch.RedoLogStores {
			undo := sch.UndoLogStores
			r.dev.AddLogObserver(func(core int, rec nvm.LogRecord) {
				t := led.now()
				orc.ObserveLogAppend(core, rec, undo)
				led.nested(layerOracleAccept, led.now()-t)
				led.calls[layerOracleAccept]++
			})
		}
	}
	r.backend = persist.SchemeFor(cfg.Scheme).NewBackend(len(w.Threads), r.dev)
	for i, prog := range w.Threads {
		pcfg := cfg.Pipeline
		pcfg.CoreID = i
		pcfg.Scheme = cfg.Scheme
		pcfg.Threads = len(w.Threads)
		pcfg.SyncContention = w.Profile.SyncContention
		core, err := pipeline.New(pcfg, prog, r.hier, r.backend)
		if err != nil {
			return nil, err
		}
		if r.orc != nil {
			core.SetCommitSink(timedSink{r.orc, led})
		}
		r.cores = append(r.cores, core)
	}
	r.refreshDone()
	r.assembleNs = led.now() - t0
	return r, nil
}

func (r *replica) refreshDone() {
	r.done = true
	for _, c := range r.cores {
		r.done = r.done && c.Done()
	}
}

// step is multicore.System.step with each call timed.
func (r *replica) step() error {
	l := r.led
	t0 := l.now()
	l.cur = layerCache
	err := r.hier.Tick(r.cycle)
	t1 := l.now()
	l.span(layerCache, t0, t1)
	if err != nil {
		return err
	}
	if r.backend != nil {
		l.cur = layerBackend
		r.backend.Tick(r.cycle)
		t2 := l.now()
		l.span(layerBackend, t1, t2)
		t1 = t2
	}
	l.cur = layerPipeline
	done := true
	for _, c := range r.cores {
		before := c.Committed()
		c.Step(r.cycle)
		t2 := l.now()
		l.span(layerPipeline, t1, t2)
		t1 = t2
		if c.Committed() == before {
			r.idleSteps++
		}
		done = done && c.Done()
	}
	l.cur = layerGlue
	r.steps += uint64(len(r.cores))
	r.backlogSum += uint64(r.hier.PersistBacklog())
	r.done = done
	r.cycle++
	if r.orc != nil {
		return r.orc.Err()
	}
	return nil
}

// run is multicore.System.RunUntil(until) followed, on completion, by
// Run's timeout check; the loop's wall time goes to the ledger total.
func (r *replica) run(until, bound uint64) error {
	start := r.led.now()
	defer func() { r.led.total += r.led.now() - start }()
	for !r.done && r.cycle < until {
		if r.cycle >= bound {
			return fmt.Errorf("replica: exceeded %d cycles", bound)
		}
		if err := r.step(); err != nil {
			return err
		}
	}
	if r.done && r.orc != nil && persist.SchemeFor(r.cfg.Scheme).ImageFromAcceptStream() {
		return r.orc.CheckFinal(r.dev.Image())
	}
	return nil
}

// collect is multicore.System.Collect over the replica.
func (r *replica) collect() *multicore.Result {
	res := &multicore.Result{
		Scheme:   r.cfg.Scheme,
		Workload: r.w.Profile.Name,
		Cores:    len(r.cores),
		Cycles:   r.cycle,
	}
	for _, c := range r.cores {
		st := c.Stats()
		res.PerCore = append(res.PerCore, st)
		res.Insts += st.Insts
	}
	res.L2MissRate = r.hier.L2MissRate()
	res.DRAMCacheMissRate = r.hier.DRAMCacheMissRate()
	res.NVMReads = r.dev.Reads
	res.NVMLineWrites = r.dev.LineWrites
	res.NVMMediaWrites = r.dev.MediaWrites
	res.NVMMaxLineWear = r.dev.MaxLineWear()
	res.NVMWPQCoalesced = r.dev.Coalesced
	res.NVMRejectedFull = r.dev.RejectedFull
	res.NVMAvgWPQOccupancy = r.dev.AvgWPQOccupancy()
	res.WBEnqueuedLines, res.WBCoalescedStores = r.hier.WBStats()
	return res
}

// backendCounts returns the scheme backend's accepted and rejected
// TryAccept calls (zero when the scheme has no backend).
func (r *replica) backendCounts() (accepts, rejects uint64) {
	switch b := r.backend.(type) {
	case *persist.LogPath:
		return b.Accepts, b.Rejects
	case *persist.RedoPath:
		return b.Accepts, b.Rejects
	}
	return 0, 0
}

// timedSink wraps the oracle's commit sink. Barrier events are timed into
// the same layer; only commits count as calls.
type timedSink struct {
	inner pipeline.CommitSink
	led   *ledger
}

func (s timedSink) ObserveCommit(ev *pipeline.CommitEvent) {
	t := s.led.now()
	s.inner.ObserveCommit(ev)
	s.led.nested(layerOracleCommit, s.led.now()-t)
	s.led.calls[layerOracleCommit]++
}

func (s timedSink) ObserveBarrierArm(core int, cycle uint64) {
	t := s.led.now()
	s.inner.ObserveBarrierArm(core, cycle)
	s.led.nested(layerOracleCommit, s.led.now()-t)
}

func (s timedSink) ObserveBarrierComplete(core int, cycle uint64, cause pipeline.BoundaryCause) {
	t := s.led.now()
	s.inner.ObserveBarrierComplete(core, cycle, cause)
	s.led.nested(layerOracleCommit, s.led.now()-t)
}
