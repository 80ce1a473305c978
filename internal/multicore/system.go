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
	oracle *oracle.Machine

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

	s := &System{dev: dev, hier: hier, scheme: persist.SchemeFor(cfg.Scheme), resumed: resumed}
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

// CopyFrom turns the machine into a copy of src, a machine of the same
// shape, at src's cycle: the device, the cache hierarchy, the persist
// backend, every core, the lockstep oracle and the clock, bound to src's
// workload and configuration. Each layer copies into the storage it
// already holds; the machine keeps its obs hub and handles, its observers
// and commit sinks, and shares no mutable storage with src, so either
// machine can go on (or lose power) without disturbing the other.
//
// The shape is what the machine was built for: its core count, in-order
// or out-of-order cores, scheme, hierarchy and device geometry, ROB and
// register-file sizes, free-register sampling and lockstep. CopyFrom refuses a machine of another
// shape, and a sampled window (which borrows its oracle and frontends from
// the sampled runner), before changing anything. After any other error the
// machine is unusable until a CopyFrom or Reset succeeds.
func (s *System) CopyFrom(src *System) error {
	return s.copyFrom(src, false)
}

// CrashCopy makes the machine what src would be right after losing power
// at its cycle with opt, and reports what the outage persisted: the same
// device, dump, oracle report and collected Result as CopyFrom followed by
// CrashWithOptions, for less. Each layer copies only what survives the
// outage or what the dump and Collect read: the device's image,
// checkpoint and log areas and counters (not its channels' queues), the
// persist backends, the cores' CSQs, register files, counts and statistics
// (not their in-flight instructions or frontends), the oracle's golden
// models and counters (not its accept-stream tracking) and the clock; the
// volatile hierarchy is left for the outage to clear. A flush-on-failure
// scheme (eADR) drains the hierarchy's dirty words to NVM first, so under
// it the hierarchy is copied too. src is not changed. The crashed machine
// must not be stepped: a run resumes on a machine built around its device,
// as the crash driver does. CrashCopy refuses what CopyFrom refuses, before
// changing anything.
func (s *System) CrashCopy(src *System, opt CrashOptions) (*CrashReport, error) {
	if err := s.copyFrom(src, true); err != nil {
		return nil, err
	}
	return s.crash(opt, src.hier.DirtyWordCount()), nil
}

// copyFrom is CopyFrom, or with crash the part of it CrashCopy needs: each
// layer's CrashCopyFrom, and the cache hierarchy's statistics only, for a
// power failure to clear, unless the scheme flushes it on failure.
func (s *System) copyFrom(src *System, crash bool) error {
	a, b := s.cfg, src.cfg
	switch {
	case len(s.cores) != len(src.cores):
		return fmt.Errorf("multicore: copy of a %d-core machine onto %d cores", len(src.cores), len(s.cores))
	case a.InOrder != b.InOrder:
		return fmt.Errorf("multicore: copy between in-order and out-of-order cores")
	case a.Scheme != b.Scheme:
		return fmt.Errorf("multicore: copy of a %s machine onto %s", b.Scheme.Kind, a.Scheme.Kind)
	case a.Hierarchy != b.Hierarchy || a.NVM != b.NVM:
		return fmt.Errorf("multicore: copy onto another hierarchy or device geometry")
	case a.Pipeline.ROBSize != b.Pipeline.ROBSize || a.Pipeline.Rename != b.Pipeline.Rename ||
		a.Pipeline.SampleFreeRegs != b.Pipeline.SampleFreeRegs:
		return fmt.Errorf("multicore: copy onto another ROB or register-file size, or free-register sampling")
	case a.Lockstep != b.Lockstep:
		return fmt.Errorf("multicore: copy between lockstep and unchecked machines")
	case a.sampled() || b.sampled():
		return fmt.Errorf("multicore: a sampled window cannot be copied")
	}
	if crash {
		s.dev.CrashCopyFrom(src.dev)
	} else {
		s.dev.CopyFrom(src.dev)
	}
	if !crash || s.scheme.FlushOnFailure() {
		s.hier.CopyFrom(src.hier)
	} else {
		s.hier.CopyStatsFrom(src.hier)
	}
	for i, be := range s.backends {
		be.CopyFrom(src.backends[i])
	}
	for i, c := range s.cores {
		var err error
		switch c := c.(type) {
		case *pipeline.Core:
			if crash {
				err = c.CrashCopyFrom(src.cores[i].(*pipeline.Core))
			} else {
				err = c.CopyFrom(src.cores[i].(*pipeline.Core))
			}
		case *inorder.Core:
			if crash {
				err = c.CrashCopyFrom(src.cores[i].(*inorder.Core))
			} else {
				err = c.CopyFrom(src.cores[i].(*inorder.Core))
			}
		}
		if err != nil {
			return err
		}
	}
	if s.oracle != nil {
		if crash {
			s.oracle.CrashCopyFrom(src.oracle)
		} else {
			s.oracle.CopyFrom(src.oracle)
		}
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
	return nil
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
// only the layers, the scheme, the step-order storage and the oracle, which
// it resets in place.
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
		resumed:   s.resumed,
		images:    s.images,
		dump:      s.dump,
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
		s.dev.SetAcceptObserver(s.oracle.ObserveAccept)
		// A log scheme's records reach the oracle as the device logs them
		// (Capri's battery-mode RedoPath logs none).
		for _, b := range s.backends {
			if lp, ok := b.(*persist.LogPath); ok {
				undo := lp.LogsPreImage()
				orc := s.oracle
				s.dev.SetLogObserver(func(core int, rec nvm.LogRecord) {
					orc.ObserveLogAppend(core, rec, undo)
				})
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

// step advances the machine one cycle. A typed memory-system error (state
// corruption, e.g. an unaligned word reaching the WPQ) aborts the cycle.
func (s *System) step() error {
	if err := s.hier.Tick(s.cycle); err != nil {
		return err
	}
	for _, b := range s.backends {
		b.Tick(s.cycle)
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
	if s.oracle != nil {
		if err := s.oracle.ErrAt(s.cycle); err != nil {
			return err
		}
	}
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

// Run executes until completion or maxCycles, returning an error on
// timeout (which indicates a deadlock or a grossly miscalibrated model).
func (s *System) Run(maxCycles uint64) error {
	for !s.Done() {
		if s.cycle >= maxCycles {
			return fmt.Errorf("multicore: exceeded %d cycles with %d/%d insts committed",
				maxCycles, s.committedInsts(), s.totalInsts())
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	return s.checkOracleFinal()
}

// RunUntil executes until the given cycle or completion, whichever first,
// and reports whether the workload completed.
func (s *System) RunUntil(cycle uint64) (bool, error) {
	for !s.Done() && s.cycle < cycle {
		if err := s.step(); err != nil {
			return false, err
		}
	}
	if s.Done() {
		if err := s.checkOracleFinal(); err != nil {
			return true, err
		}
	}
	return s.Done(), nil
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
	deadline := s.cycle + budget
	for {
		pending := s.hier.PersistBacklog() > 0 || !s.dev.Drained(s.cycle)
		for _, b := range s.backends {
			for c := 0; c < len(s.cores); c++ {
				if b.PendingOf(c) > 0 {
					pending = true
				}
			}
		}
		if !pending {
			return nil
		}
		if s.cycle >= deadline {
			return fmt.Errorf("multicore: persist backlog of %d entries not drained within %d cycles",
				s.hier.PersistBacklog(), budget)
		}
		if err := s.tickIdle(); err != nil {
			return err
		}
	}
}

// tickIdle advances the memory system and the scheme backends one cycle
// with the cores idle, and reports what the lockstep oracle latched.
func (s *System) tickIdle() error {
	if err := s.hier.Tick(s.cycle); err != nil {
		return err
	}
	for _, b := range s.backends {
		b.Tick(s.cycle)
	}
	s.cycle++
	if s.oracle != nil {
		return s.oracle.ErrAt(s.cycle)
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
	return s.crash(opt, s.hier.DirtyWordCount())
}

// crash is the power failure of CrashWithOptions and CrashCopy; dirty is
// the count of volatile words the outage finds, which the power-fail event
// reports.
func (s *System) crash(opt CrashOptions, dirty int) *CrashReport {
	tr := s.cfg.Obs.Tracer()
	tr.Emit(obs.Event{
		Cycle: s.cycle,
		Type:  obs.EvInstant,
		Core:  obs.SystemTrack,
		Name:  "power-fail",
		Cat:   "checkpoint",
		Args:  [obs.MaxEventArgs]obs.Arg{{Key: "dirty-words", Val: int64(dirty)}},
	})
	s.lastFlush = 0
	if s.scheme.FlushOnFailure() {
		s.lastFlush = s.hier.FlushAllDirty()
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
