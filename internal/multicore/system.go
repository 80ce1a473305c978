// Package multicore assembles the full simulated machine: N cores, all
// out-of-order or all Section 6 in-order (Config.InOrder), over a shared
// cache hierarchy, a shared NVM device with its WPQ,
// the scheme's persist backend (a persist.LogPath: Capri's battery-backed
// redo buffers or the log schemes' persist logs), and the power-failure /
// checkpoint / recovery orchestration. Section 6's multi-core recovery
// argument (DRF programs have address-disjoint CSQs, so per-core replay
// order does not matter) is directly testable through this package.
package multicore

import (
	"fmt"
	"math"

	"ppa/internal/cache"
	"ppa/internal/checkpoint"
	"ppa/internal/inorder"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/obs"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
	"ppa/internal/stats"
	"ppa/internal/workload"
)

// Config assembles a machine.
type Config struct {
	Hierarchy cache.Params
	NVM       nvm.Config
	Pipeline  pipeline.Config // template; CoreID/Threads are set per core
	Scheme    persist.Config

	// InOrder builds Section 6's in-order cores (internal/inorder), which
	// read the Pipeline template's Width, SyncBaseCost and TraceRegions.
	// NewSystem refuses a scheme they do not model.
	InOrder bool `json:",omitempty"`

	// Obs is the optional observability hub, propagated to every component
	// of the machine. Excluded from JSON so machine configs stay
	// serializable.
	Obs *obs.Hub `json:"-"`

	// Lockstep attaches the differential oracle (internal/oracle): every
	// commit is cross-checked against an independent ISA-level golden model
	// and the NVM accept stream is checked against PPA's persist-ordering
	// invariants. A divergence aborts the run with a *oracle.DivergenceError.
	Lockstep bool

	// StepSeed, when nonzero, perturbs the per-cycle core service order:
	// each cycle the cores step in a fresh seeded Fisher–Yates
	// permutation instead of ascending index. Two runs with the same
	// seed are identical; different seeds explore different commit /
	// persist interleavings (the litmus engine's schedule perturbation).
	StepSeed uint64

	// PersistPerturb, when non-nil, is handed to the hierarchy as its
	// write-buffer accept-timing perturbation (see
	// cache.Hierarchy.SetPersistPerturb). It must be a pure function of
	// (core, cycle) so runs stay deterministic. Excluded from JSON.
	PersistPerturb func(core int, cycle uint64) bool `json:"-"`

	// Sampled-mode injection, set only by this package's sampled runner:
	// the detailed-window system reuses the run-long oracle engine instead
	// of building a fresh one, starts each core's frontend from a golden
	// clone positioned at the window start, and caps each core at the
	// window end. Unexported so the public (and JSON) config surface is
	// unchanged.
	engine *oracle.Machine
	fronts []*isa.GoldenResult
	stops  []int
}

// DefaultConfig returns the Table 2 machine for n cores under a scheme. The
// memory system is configured from the scheme's own HierarchyTuning rather
// than per-Kind switches here.
func DefaultConfig(n int, scheme persist.Config) Config {
	hp := cache.DefaultParams(n)
	tun := persist.SchemeFor(scheme).Tuning()
	switch tun.Mode {
	case persist.MemDRAMOnly:
		hp.Mode = cache.DRAMOnly
	case persist.MemAppDirect:
		hp.Mode = cache.AppDirect
	}
	if tun.SlowPersistAck {
		// ReplayCache's clwb pushes each store's line down the whole
		// hierarchy (L1 -> L2 -> DRAM cache -> memory controller) rather
		// than using PPA's direct non-temporal writeback path: the persist
		// acknowledgment is far slower, there is no lazy coalescing
		// window, and each clwb writes back its own line (write
		// amplification, Section 2.4).
		hp.PersistTransit = 250
		hp.PersistLag = 0
		hp.CoalesceWB = false
	}
	return Config{
		Hierarchy: hp,
		NVM:       nvm.DefaultConfig(),
		Pipeline:  pipeline.DefaultConfig(scheme),
		Scheme:    scheme,
	}
}

// Core is one hardware thread of the machine: a *pipeline.Core, or an
// *inorder.Core when Config.InOrder is set.
type Core interface {
	checkpoint.Core
	Step(cycle uint64)
	Done() bool
	Program() *isa.Program
	Stats() *pipeline.Stats
	Reset(cfg pipeline.Config, prog *isa.Program) error
	SetCommitSink(s pipeline.CommitSink)
	// NextEvent and ChargeIdle are the core's part of the advance loop's
	// cycle skipping (see System.advance).
	NextEvent(cycle uint64) uint64
	ChargeIdle(before *pipeline.Stats, k uint64)
}

// System is one simulated machine bound to a workload.
type System struct {
	cfg    Config
	w      *workload.Workload
	dev    *nvm.Device
	hier   *cache.Hierarchy
	cores  []Core
	scheme persist.Scheme
	// backends holds the scheme's persist backend (the log path, in
	// Capri's battery mode or a log discipline) when it has one; the
	// machine ticks and power-fails it.
	backends []persist.Backend

	cycle     uint64
	lastFlush int
	// allDone caches "every core retired its trace": it is recomputed by
	// step()'s existing core loop, so the per-cycle Done() probe in the run
	// loops costs a field read instead of another walk over the cores.
	allDone bool

	// stepOrder is the reusable core-index permutation for seeded
	// step-order perturbation (nil when Config.StepSeed is zero).
	stepOrder []int

	// oracle is the lockstep checker (nil unless Config.Lockstep).
	// observeAccept and observeLog hand it the device's accept and log
	// streams: bound once per machine, they read oracle at each call, so a
	// reset attaches them without building them again.
	oracle        *oracle.Machine
	observeAccept func(cycle, line uint64, words *isa.LineWords)
	observeLog    func(core int, rec nvm.LogRecord)

	// idleMarks holds each core's statistics before the idle step of a
	// skip (see skipTo); skipped counts the cycles skips charged, on the
	// obs registry as multicore.skipped-cycles (nil without a hub).
	idleMarks []pipeline.Stats
	skipped   *obs.Counter
	// quietUntil is the cycle before which, by the last report, no skip
	// can start.
	quietUntil uint64

	// resumed marks a machine built around a surviving device (a resumed
	// machine or a sampled window): Reset has no fresh state to return to.
	resumed bool

	// images and dump are the last power failure's captures and encoded
	// dump, storage the next one reuses.
	images []*checkpoint.Image
	dump   []byte
}

// NewSystemResumed builds a machine around a surviving NVM device (post
// power failure) with every core resuming at its committed-prefix index —
// the recovery protocol's "resume right after LCPC" step at system scale.
func NewSystemResumed(cfg Config, w *workload.Workload, dev *nvm.Device, startAt []int) (*System, error) {
	if len(startAt) != len(w.Threads) {
		return nil, fmt.Errorf("multicore: %d resume points for %d threads", len(startAt), len(w.Threads))
	}
	return newSystem(cfg, w, dev, startAt)
}

// NewSystem builds the machine and binds each thread of the workload to a
// core.
func NewSystem(cfg Config, w *workload.Workload) (*System, error) {
	return newSystem(cfg, w, nil, nil)
}

func newSystem(cfg Config, w *workload.Workload, dev *nvm.Device, startAt []int) (*System, error) {
	if len(w.Threads) == 0 {
		return nil, fmt.Errorf("multicore: workload has no threads")
	}
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	cfg.Hierarchy.Cores = len(w.Threads)

	resumed := dev != nil
	if dev == nil {
		dev = nvm.NewDevice(cfg.NVM)
	}
	hier := cache.New(cfg.Hierarchy, dev, workload.WarmResident, workload.L2Resident)
	if cfg.Obs != nil {
		dev.SetObs(cfg.Obs)
		hier.SetObs(cfg.Obs)
		cfg.Pipeline.Obs = cfg.Obs
	}

	s := &System{
		dev:       dev,
		hier:      hier,
		scheme:    persist.SchemeFor(cfg.Scheme),
		idleMarks: make([]pipeline.Stats, len(w.Threads)),
		skipped:   cfg.Obs.Registry().Counter("multicore.skipped-cycles"),
		resumed:   resumed,
	}
	backend := s.scheme.NewBackend(len(w.Threads), dev)
	if backend != nil {
		s.backends = append(s.backends, backend)
	}
	for i, prog := range w.Threads {
		var core Core
		var err error
		if pcfg := coreConfig(cfg, w, i, startAt); cfg.InOrder {
			core, err = inorder.New(pcfg, prog, hier)
		} else {
			core, err = pipeline.New(pcfg, prog, hier, backend)
		}
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, core)
	}
	s.reset(cfg, w, startAt)
	return s, nil
}

// Reset turns the machine into the one NewSystem would build from its
// build configuration with StepSeed replaced by stepSeed and bound to w,
// keeping the storage every layer already holds: the NVM device's queues,
// the cache tag chunks and write-buffer rings, the persist backend's
// buffers, and each core's ROB, queues and register files. Observers and
// commit sinks attached since the machine was built are dropped; a lockstep
// oracle is reset in place for w and hooked up again.
//
// Slices read from the machine before a Reset, such as a core's CSQ, share
// storage the machine goes on to reuse; copy what must outlive the reset.
// Results from Collect are copies, and the device's image is replaced, not
// reused.
//
// w must have one thread per core. A machine built by NewSystemResumed
// cannot be reset: it starts from a surviving device, not from a fresh
// machine. Reset refuses it, and a workload of another thread count, before
// changing anything. After any other error the machine is unusable until a
// Reset succeeds.
func (s *System) Reset(w *workload.Workload, stepSeed uint64) error {
	switch {
	case s.resumed:
		return fmt.Errorf("multicore: a resumed machine cannot be reset")
	case len(w.Threads) != len(s.cores):
		return fmt.Errorf("multicore: reset onto %d threads, machine has %d cores", len(w.Threads), len(s.cores))
	}
	cfg := s.cfg
	cfg.StepSeed = stepSeed
	s.dev.Reset()
	s.hier.Reset()
	for _, b := range s.backends {
		b.Reset()
	}
	for i, c := range s.cores {
		if err := c.Reset(coreConfig(cfg, w, i, nil), w.Threads[i]); err != nil {
			return err
		}
	}
	s.reset(cfg, w, nil)
	return nil
}

// CrashCopy makes the machine what src would be right after losing power
// at its cycle with opt, and reports what the outage persisted: the same
// device, dump, oracle report and collected Result as src's own outage in
// place (CrashWithOptions with opt), for less, and without changing src.
// Each layer's CrashCopyFrom copies only what survives the outage or what
// the dump and Collect read: the device's image, checkpoint and log areas
// and counters (not its channels' queues), the hierarchy's writeback
// counts, the cores' CSQs, register files, counts and
// statistics (not their in-flight instructions or frontends), the
// oracle's golden models and counters (not its accept-stream tracking);
// the clock is copied too. The volatile hierarchy and the persist
// backends are left to the outage, which clears them; a flush-on-failure
// scheme (eADR) writes src's dirty words into the machine's device
// instead of copying src's hierarchy. The machine keeps its obs hub and
// handles, its observers and commit sinks, and shares no mutable storage
// with src.
//
// The crashed machine must not be stepped: a run resumes on a machine
// built around its device, as the crash driver does. CrashCopy refuses a
// machine of another shape (core count, in-order or out-of-order cores,
// scheme, hierarchy and device geometry, ROB and register-file sizes,
// free-register sampling and lockstep) and a sampled window (which borrows
// its oracle and frontends from the sampled runner), either way, before
// changing anything. After any other error the machine is unusable until a
// Reset succeeds.
func (s *System) CrashCopy(src *System, opt CrashOptions) (*CrashReport, error) {
	a, b := s.cfg, src.cfg
	switch {
	case len(s.cores) != len(src.cores):
		return nil, fmt.Errorf("multicore: copy of a %d-core machine onto %d cores", len(src.cores), len(s.cores))
	case a.InOrder != b.InOrder:
		return nil, fmt.Errorf("multicore: copy between in-order and out-of-order cores")
	case a.Scheme != b.Scheme:
		return nil, fmt.Errorf("multicore: copy of a %s machine onto %s", b.Scheme.Kind, a.Scheme.Kind)
	case a.Hierarchy != b.Hierarchy || a.NVM != b.NVM:
		return nil, fmt.Errorf("multicore: copy onto another hierarchy or device geometry")
	case a.Pipeline.ROBSize != b.Pipeline.ROBSize || a.Pipeline.Rename != b.Pipeline.Rename ||
		a.Pipeline.SampleFreeRegs != b.Pipeline.SampleFreeRegs:
		return nil, fmt.Errorf("multicore: copy onto another ROB or register-file size, or free-register sampling")
	case a.Lockstep != b.Lockstep:
		return nil, fmt.Errorf("multicore: copy between lockstep and unchecked machines")
	case a.sampled() || b.sampled():
		return nil, fmt.Errorf("multicore: a sampled window cannot be copied")
	}
	s.dev.CrashCopyFrom(src.dev)
	s.hier.CrashCopyFrom(src.hier)
	for i, c := range s.cores {
		var err error
		switch c := c.(type) {
		case *pipeline.Core:
			err = c.CrashCopyFrom(src.cores[i].(*pipeline.Core))
		case *inorder.Core:
			err = c.CrashCopyFrom(src.cores[i].(*inorder.Core))
		}
		if err != nil {
			return nil, err
		}
	}
	if s.oracle != nil {
		s.oracle.CrashCopyFrom(src.oracle)
	}
	order := s.stepOrder
	if src.stepOrder == nil {
		order = nil
	} else if order == nil {
		order = make([]int, len(s.cores))
	}
	hub, coreHub := s.cfg.Obs, s.cfg.Pipeline.Obs
	s.cfg = src.cfg
	s.cfg.Obs, s.cfg.Pipeline.Obs = hub, coreHub
	s.w = src.w
	s.cycle, s.lastFlush, s.allDone = src.cycle, src.lastFlush, src.allDone
	s.stepOrder = order
	s.resumed = src.resumed
	return s.crash(opt, src.hier), nil
}

// sampled reports whether cfg builds a sampled runner's detailed window.
func (cfg *Config) sampled() bool { return cfg.engine != nil || cfg.fronts != nil || cfg.stops != nil }

// coreConfig is core i's pipeline configuration under cfg for w.
func coreConfig(cfg Config, w *workload.Workload, i int, startAt []int) pipeline.Config {
	pcfg := cfg.Pipeline
	pcfg.CoreID = i
	pcfg.Scheme = cfg.Scheme
	pcfg.Threads = len(w.Threads)
	pcfg.SyncContention = w.Profile.SyncContention
	if startAt != nil {
		pcfg.StartAt = startAt[i]
	}
	if cfg.fronts != nil {
		pcfg.Front = cfg.fronts[i]
	}
	if cfg.stops != nil {
		pcfg.StopAt = cfg.stops[i]
	}
	return pcfg
}

// reset sets the machine's own state to its just-built value over layers
// that are already built or reset: cycle zero, the step order, the persist
// perturbation, and the lockstep oracle with its hookups. It carries over
// only the layers, the scheme, the step-order storage, the oracle, which
// it resets in place, and the oracle's observers.
func (s *System) reset(cfg Config, w *workload.Workload, startAt []int) {
	order, orc := s.stepOrder, s.oracle
	if cfg.StepSeed == 0 || len(s.cores) < 2 {
		order = nil
	} else if order == nil {
		order = make([]int, len(s.cores))
	}
	*s = System{
		cfg:       cfg,
		w:         w,
		dev:       s.dev,
		hier:      s.hier,
		cores:     s.cores,
		scheme:    s.scheme,
		backends:  s.backends,
		stepOrder: order,
		idleMarks: s.idleMarks,
		skipped:   s.skipped,
		resumed:   s.resumed,
		images:    s.images,
		dump:      s.dump,

		observeAccept: s.observeAccept,
		observeLog:    s.observeLog,
	}
	if cfg.Lockstep {
		switch {
		case cfg.engine != nil:
			orc = cfg.engine
		case orc != nil:
			orc.Reset(w.Threads, startAt)
		default:
			orc = oracle.New(w.Threads, startAt)
		}
		s.oracle = orc
		if s.observeAccept == nil {
			s.observeAccept = func(cycle, line uint64, words *isa.LineWords) {
				s.oracle.ObserveAccept(cycle, line, words)
			}
		}
		s.dev.SetAcceptObserver(s.observeAccept)
		// A log scheme's records reach the oracle as the device logs them
		// (Capri's battery-mode RedoPath logs none).
		for _, b := range s.backends {
			if lp, ok := b.(*persist.LogPath); ok {
				if s.observeLog == nil {
					undo := lp.LogsPreImage()
					s.observeLog = func(core int, rec nvm.LogRecord) {
						s.oracle.ObserveLogAppend(core, rec, undo)
					}
				}
				s.dev.SetLogObserver(s.observeLog)
			}
		}
		for _, c := range s.cores {
			c.SetCommitSink(s.oracle)
		}
	}
	if cfg.PersistPerturb != nil {
		s.hier.SetPersistPerturb(cfg.PersistPerturb)
	}
	s.refreshDone() // a resumed system can start with every trace retired
}

// refreshDone recomputes the cached all-cores-done flag from scratch.
func (s *System) refreshDone() {
	done := true
	for _, c := range s.cores {
		done = done && c.Done()
	}
	s.allDone = done
}

// Cycle returns the current simulation cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// Config returns the configuration the machine was built from.
func (s *System) Config() Config { return s.cfg }

// Cores exposes the per-core pipelines.
func (s *System) Cores() []Core { return s.cores }

// Hierarchy exposes the memory system.
func (s *System) Hierarchy() *cache.Hierarchy { return s.hier }

// Device exposes the NVM device.
func (s *System) Device() *nvm.Device { return s.dev }

// Done reports whether every core has retired its whole trace.
func (s *System) Done() bool { return s.allDone }

// Oracle returns the lockstep checker, or nil when Config.Lockstep is off.
func (s *System) Oracle() *oracle.Machine { return s.oracle }

// Scheme returns the machine's persistence scheme.
func (s *System) Scheme() persist.Scheme { return s.scheme }

// step advances the machine one cycle: the memory system and the scheme
// backends tick, then, with cores, every core steps. A typed memory-system
// error (state corruption, e.g. an unaligned word reaching the WPQ) aborts
// the cycle.
func (s *System) step(cores bool) error {
	if err := s.hier.Tick(s.cycle); err != nil {
		return err
	}
	for _, b := range s.backends {
		b.Tick(s.cycle)
	}
	if !cores {
		s.cycle++
		return s.oracleErr()
	}
	done := true
	if s.stepOrder != nil {
		// Seeded per-cycle service order: a fresh Fisher–Yates shuffle of
		// the core indices, splitmix64-keyed on (StepSeed, cycle). In-order
		// stepping is just one point of the interleaving space; litmus
		// schedules walk the rest deterministically.
		for i := range s.stepOrder {
			s.stepOrder[i] = i
		}
		r := stepRng{state: s.cfg.StepSeed ^ (s.cycle * 0x9E3779B97F4A7C15)}
		for i := len(s.stepOrder) - 1; i > 0; i-- {
			j := int(r.next() % uint64(i+1))
			s.stepOrder[i], s.stepOrder[j] = s.stepOrder[j], s.stepOrder[i]
		}
		for _, idx := range s.stepOrder {
			c := s.cores[idx]
			c.Step(s.cycle)
			done = done && c.Done()
		}
	} else {
		for _, c := range s.cores {
			c.Step(s.cycle)
			done = done && c.Done()
		}
	}
	s.allDone = done
	s.cycle++
	return s.oracleErr()
}

// oracleErr reports what the lockstep oracle latched, at the machine's
// clock.
func (s *System) oracleErr() error {
	if s.oracle != nil {
		return s.oracle.ErrAt(s.cycle)
	}
	return nil
}

// nextEvent is the earliest cycle, no earlier than the clock, at which a
// step may do more than an idle step: the minimum of every unit's
// NextEvent, the cores' only when they step. Once the minimum so far is at
// or below limit it returns that instead, since a skip needs more. It
// asks the backends and the hierarchy, which answer cheaply, first.
func (s *System) nextEvent(cores bool, limit uint64) uint64 {
	now := s.cycle
	next := uint64(math.MaxUint64)
	for _, b := range s.backends {
		if next = min(next, b.NextEvent(now)); next <= limit {
			return next
		}
	}
	if next = min(next, s.hier.NextEvent(now)); next <= limit || !cores {
		return next
	}
	for _, c := range s.cores {
		if next = min(next, c.NextEvent(now)); next <= limit {
			return next
		}
	}
	return next
}

// skipTo runs one idle step and then accounts the cycles up to next
// without stepping them: every unit reported, through nextEvent, that
// nothing changes before next, so each of those cycles would bump exactly
// the counters the idle step bumped, by as much. The cores and the
// hierarchy charge them (the backends count nothing when idle), and the
// clock moves to next.
func (s *System) skipTo(next uint64, cores bool) error {
	if cores {
		for i, c := range s.cores {
			s.idleMarks[i] = *c.Stats()
		}
	}
	rejected := s.dev.RejectedFull
	if err := s.step(cores); err != nil {
		return err
	}
	k := next - s.cycle
	if cores {
		for i, c := range s.cores {
			c.ChargeIdle(&s.idleMarks[i], k)
		}
	}
	s.hier.ChargeIdle(k, s.dev.RejectedFull-rejected)
	s.cycle = next
	s.skipped.Add(k)
	return nil
}

// stepRng is a splitmix64 stream for the step-order shuffle: cheap,
// deterministic, and free of package-global random state.
type stepRng struct{ state uint64 }

func (r *stepRng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// checkOracleFinal runs the end-of-run durable-image cross-check for
// schemes whose only image-write path is the observed WPQ accept stream
// (asynchronous persistence without a redo or log-replay path), and reports
// what the oracle latched since the last step, such as a redo log record
// drained after the cores stopped, at the machine's clock.
func (s *System) checkOracleFinal() error {
	if s.oracle == nil {
		return nil
	}
	if s.scheme.ImageFromAcceptStream() {
		_ = s.oracle.CheckFinal(s.dev.Image()) // latched; ErrAt reports it
	}
	return s.oracle.ErrAt(s.cycle)
}

// CycleBudget bounds a run of insts dynamic instructions per thread. The
// bound is generous, since no sane run needs 4000 cycles per instruction: a
// machine still running past it is deadlocked or grossly miscalibrated.
func CycleBudget(insts int) uint64 { return uint64(insts)*4000 + 1_000_000 }

// advanceMode is what the advance loop steps and when it stops.
type advanceMode int

const (
	// untilDone steps every unit until every core has retired its trace.
	untilDone advanceMode = iota
	// untilDrained ticks the memory system and the backends, cores idle,
	// until no persist is pending.
	untilDrained
	// untilReleased ticks them until every core has released its gated
	// stores (pipeline.Core.ReleaseGated, asked once per cycle).
	untilReleased
)

// minSkip is the fewest cycles a skip charges: a shorter one costs more
// than stepping them.
const minSkip = 4

// advance is the machine's one cycle loop. It runs until mode's condition
// holds, reporting true, or the clock reaches bound, reporting false. Each
// cycle whose every unit reports, through NextEvent, that nothing can
// change before a later cycle is stepped once and the stretch up to that
// cycle, clamped to bound, is charged without stepping (skipTo), so a run
// ends at the same cycle, with the same state and counters, as stepping
// every cycle would. A machine that waits forever jumps to bound at once.
// untilReleased asks the cores every cycle, so it never skips.
func (s *System) advance(bound uint64, mode advanceMode) (bool, error) {
	cores := mode == untilDone
	for !s.settled(mode) {
		if s.cycle >= bound {
			return false, nil
		}
		if mode != untilReleased && s.cycle >= s.quietUntil {
			next := min(s.nextEvent(cores, s.cycle+minSkip), bound)
			if next > s.cycle+minSkip {
				if err := s.skipTo(next, cores); err != nil {
					return false, err
				}
				continue
			}
			s.quietUntil = next
		}
		if err := s.step(cores); err != nil {
			return false, err
		}
	}
	return true, nil
}

// settled reports whether mode's stopping condition holds at the clock.
// For untilReleased that is each core's ReleaseGated, which also does the
// cycle's release work, so it runs exactly once per cycle.
func (s *System) settled(mode advanceMode) bool {
	switch mode {
	case untilDrained:
		if s.hier.PersistBacklog() > 0 || !s.dev.Drained(s.cycle) {
			return false
		}
		for _, b := range s.backends {
			for c := range s.cores {
				if b.PendingOf(c) > 0 {
					return false
				}
			}
		}
		return true
	case untilReleased:
		released := true
		for _, c := range s.cores {
			released = c.(*pipeline.Core).ReleaseGated(s.cycle) && released
		}
		return released
	}
	return s.allDone
}

// Run executes until completion or maxCycles, returning an error on
// timeout (which indicates a deadlock or a grossly miscalibrated model).
func (s *System) Run(maxCycles uint64) error {
	done, err := s.advance(maxCycles, untilDone)
	switch {
	case err != nil:
		return err
	case !done:
		return fmt.Errorf("multicore: exceeded %d cycles with %d/%d insts committed",
			maxCycles, s.committedInsts(), s.totalInsts())
	}
	return s.checkOracleFinal()
}

// RunUntil executes until the given cycle or completion, whichever first,
// and reports whether the workload completed.
func (s *System) RunUntil(cycle uint64) (bool, error) {
	done, err := s.advance(cycle, untilDone)
	if err != nil {
		return false, err
	}
	if done {
		if err := s.checkOracleFinal(); err != nil {
			return true, err
		}
	}
	return done, nil
}

// DrainPersists keeps ticking the memory system and the scheme backends
// (cores idle) until every write-buffer entry and pending eviction has been
// accepted by the NVM device, the device itself reports drained, and the
// backend (the log path: Capri's battery-backed entries, or the transaction
// schemes' records with their lazy image applications) has no outstanding
// entries — the fully-persisted machine state the litmus engine's
// final-outcome check inspects. budget bounds the extra cycles; exceeding
// it reports a stuck persist path. A lockstep oracle's verdict, such as a
// redo record that disagrees with the golden model, ends the drain as it
// ends a run.
func (s *System) DrainPersists(budget uint64) error {
	drained, err := s.advance(s.cycle+budget, untilDrained)
	switch {
	case err != nil:
		return err
	case !drained:
		return fmt.Errorf("multicore: persist backlog of %d entries not drained within %d cycles",
			s.hier.PersistBacklog(), budget)
	}
	return nil
}

func (s *System) committedInsts() int {
	n := 0
	for _, c := range s.cores {
		n += c.Committed()
	}
	return n
}

func (s *System) totalInsts() int { return s.w.TotalInsts() }

// CrashOptions controls fault injection at power-failure time.
type CrashOptions struct {
	// ShortfallPermille is how far the residual-energy reservoir at
	// Power_Fail falls short of the JIT dump's energy demand, in permille
	// of that demand. The dump is cut at the byte where the reservoir runs
	// dry, leaving a torn image in the NVM checkpoint area; 1000 (or more)
	// is an empty reservoir. <= 0 models a correctly sized reservoir (the
	// dump always completes).
	ShortfallPermille int
}

// CrashReport describes what one power failure managed to persist.
type CrashReport struct {
	// Images are the in-memory captures, one per core, pre-truncation.
	// They are the machine's own storage, which its next power failure
	// rewrites: copy what must outlive it.
	Images []*checkpoint.Image
	// CheckpointBytes is how many encoded bytes reached the NVM area.
	CheckpointBytes int
	// FullBytes is the encoded dump size absent any brownout.
	FullBytes int
	// Torn reports that the reservoir ran dry mid-dump.
	Torn bool
	// StructuresCovered counts the leading dump units (header + five
	// structures) of the image the cut landed in that are fully durable;
	// -1 when the dump completed.
	StructuresCovered int
}

// CrashWithOptions models a power failure at the current cycle: each
// core's recovery state is JIT-checkpointed (PPA only persists its five
// structures; other schemes get an empty image), then all volatile state
// is lost, and the encoded checkpoint blobs are written to the NVM
// checkpoint area. With fault injection, an undersized reservoir
// truncates the dump at the brownout byte, modeling
// failure-during-checkpoint. For the eADR/BBB scheme the defining
// behaviour happens first: the battery flushes every dirty byte from the
// volatile hierarchy to NVM — the energy-hungry alternative PPA's 2 KB
// checkpoint replaces. The flushed byte count is retrievable via
// LastCrashFlushBytes.
func (s *System) CrashWithOptions(opt CrashOptions) *CrashReport {
	return s.crash(opt, s.hier)
}

// crash is the power failure of CrashWithOptions and CrashCopy; dirty is
// the hierarchy whose volatile words the outage finds: the machine's own,
// or a crash copy's source. The power-fail event reports their count, and
// a flush-on-failure scheme writes them into the machine's device.
func (s *System) crash(opt CrashOptions, dirty *cache.Hierarchy) *CrashReport {
	tr := s.cfg.Obs.Tracer()
	tr.Emit(obs.Event{
		Cycle: s.cycle,
		Type:  obs.EvInstant,
		Core:  obs.SystemTrack,
		Name:  "power-fail",
		Cat:   "checkpoint",
		Args:  [obs.MaxEventArgs]obs.Arg{{Key: "dirty-words", Val: int64(dirty.DirtyWordCount())}},
	})
	s.lastFlush = 0
	if s.scheme.FlushOnFailure() {
		s.lastFlush = dirty.WriteDirty(s.dev.Image())
		tr.Emit(obs.Event{
			Cycle: s.cycle,
			Type:  obs.EvInstant,
			Core:  obs.SystemTrack,
			Name:  "eadr-flush",
			Cat:   "checkpoint",
			Args:  [obs.MaxEventArgs]obs.Arg{{Key: "bytes", Val: int64(s.lastFlush)}},
		})
	}
	for len(s.images) < len(s.cores) {
		s.images = append(s.images, new(checkpoint.Image))
	}
	images := s.images[:len(s.cores)]
	for i, c := range s.cores {
		im := images[i]
		im.CaptureFrom(c)
		im.CoreID = i
		tr.Emit(obs.Event{
			Cycle: s.cycle,
			Type:  obs.EvInstant,
			Core:  i,
			Name:  "checkpoint-capture",
			Cat:   "checkpoint",
			Args: [obs.MaxEventArgs]obs.Arg{
				{Key: "bytes", Val: int64(im.EncodedLen())},
				{Key: "csq", Val: int64(len(im.CSQ))},
			},
		})
	}
	s.dump = checkpoint.EncodeAll(s.dump, images)
	blob := s.dump
	rep := &CrashReport{Images: images, FullBytes: len(blob), StructuresCovered: -1}
	// Checkpoint-size distribution across crashes: the torture sweep crashes
	// thousands of times per run, and the per-core byte histogram is the
	// evidence behind the paper's ~2 KB dump-size claim.
	if reg := s.cfg.Obs.Registry(); reg != nil {
		ckptBytes := reg.Histogram("checkpoint.bytes")
		for _, im := range images {
			ckptBytes.Observe(float64(im.EncodedLen()))
		}
	}
	if short := min(opt.ShortfallPermille, 1000); short > 0 {
		// The reservoir holds 1000-short permille of the dump's energy and
		// streams bytes at checkpoint.EnergyPerByteNJ until it runs dry.
		// The budget is priced in energy, as the hardware spends it: the
		// exact byte quotient full×permille/1000 is a byte higher on some
		// dump sizes.
		uj := checkpoint.DefaultCostModel().EnergyUJ(len(blob)) * float64(1000-short) / 1000
		budget := int(uj * 1e3 / checkpoint.EnergyPerByteNJ)
		if budget < len(blob) {
			rep.Torn = true
			cut := budget
			for _, im := range images {
				sz := im.EncodedLen()
				if cut < sz {
					rep.StructuresCovered = im.StructuresCovered(cut)
					break
				}
				cut -= sz
			}
			blob = blob[:budget]
			tr.Emit(obs.Event{
				Cycle: s.cycle,
				Type:  obs.EvInstant,
				Core:  obs.SystemTrack,
				Name:  "checkpoint-torn",
				Cat:   "checkpoint",
				Args: [obs.MaxEventArgs]obs.Arg{
					{Key: "full", Val: int64(rep.FullBytes)},
					{Key: "structs", Val: int64(rep.StructuresCovered)},
					{Key: "written", Val: int64(budget)},
				},
			})
		}
	}
	rep.CheckpointBytes = len(blob)
	s.dev.WriteCheckpoint(blob)
	for _, b := range s.backends {
		b.PowerFail()
	}
	s.hier.PowerFail()
	if s.oracle != nil {
		s.oracle.ObserveCrash()
	}
	return rep
}

// LastCrashFlushBytes returns how many bytes the last Crash had to flush on
// residual energy (non-zero only for flush-on-failure schemes like eADR).
func (s *System) LastCrashFlushBytes() int { return s.lastFlush }

// Result aggregates a completed run.
type Result struct {
	Scheme   persist.Config
	Workload string
	Cores    int

	Cycles uint64
	Insts  uint64

	PerCore []*pipeline.Stats

	// Memory-system aggregates.
	L2MissRate         float64
	DRAMCacheMissRate  float64
	NVMReads           uint64
	NVMLineWrites      uint64
	NVMMediaWrites     uint64
	NVMMaxLineWear     uint64
	NVMWPQCoalesced    uint64
	NVMRejectedFull    uint64
	NVMAvgWPQOccupancy float64
	WBCoalescedStores  uint64
	WBEnqueuedLines    uint64
}

// Collect snapshots the run's results.
func (s *System) Collect() *Result {
	r := &Result{
		Scheme:   s.cfg.Scheme,
		Workload: s.w.Profile.Name,
		Cores:    len(s.cores),
		Cycles:   s.cycle,
	}
	for _, c := range s.cores {
		st := *c.Stats() // a copy: a later Reset rewrites the core's stats
		r.PerCore = append(r.PerCore, &st)
		r.Insts += st.Insts
	}
	r.L2MissRate = s.hier.L2MissRate()
	r.DRAMCacheMissRate = s.hier.DRAMCacheMissRate()
	r.NVMReads = s.dev.Reads
	r.NVMLineWrites = s.dev.LineWrites
	r.NVMMediaWrites = s.dev.MediaWrites
	r.NVMMaxLineWear = s.dev.MaxLineWear()
	r.NVMWPQCoalesced = s.dev.Coalesced
	r.NVMRejectedFull = s.dev.RejectedFull
	r.NVMAvgWPQOccupancy = s.dev.AvgWPQOccupancy()
	r.WBEnqueuedLines, r.WBCoalescedStores = s.hier.WBStats()
	return r
}

// IPC returns system instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// AvgRegionLen returns the mean region length across cores (instructions).
func (r *Result) AvgRegionLen() float64 {
	var xs []float64
	for _, st := range r.PerCore {
		if st.Regions > 0 {
			xs = append(xs, st.AvgRegionLen())
		}
	}
	return stats.Mean(xs)
}

// AvgRegionStores returns the mean stores per region across cores.
func (r *Result) AvgRegionStores() float64 {
	var xs []float64
	for _, st := range r.PerCore {
		if st.Regions > 0 {
			xs = append(xs, st.RegionStores.Mean())
		}
	}
	return stats.Mean(xs)
}

// RegionEndStallFrac returns region-end stall cycles as a fraction of
// execution cycles (Figure 11's metric).
func (r *Result) RegionEndStallFrac() float64 {
	var stall, cyc float64
	for _, st := range r.PerCore {
		stall += float64(st.RegionEndStalls)
		cyc += float64(st.Cycles)
	}
	return stats.Ratio(stall, cyc)
}

// RenameStallFrac returns rename out-of-registers stall cycles as a
// fraction of execution cycles (Figure 12's metric).
func (r *Result) RenameStallFrac() float64 {
	var stall, cyc float64
	for _, st := range r.PerCore {
		stall += float64(st.RenameNoRegStalls)
		cyc += float64(st.Cycles)
	}
	return stats.Ratio(stall, cyc)
}
