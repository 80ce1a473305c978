// Package pipeline implements the cycle-level out-of-order core model and
// every persistence scheme's interaction with it: register renaming with
// store-integrity masking, dynamic region formation on PRF exhaustion
// (Section 4.2), the committed store queue (CSQ) and last-committed-PC
// (LCPC) registers (Section 4.4), asynchronous store persistence
// (Section 4.3), and the fixed-region compiler schemes used as baselines
// (ReplayCache, Capri).
//
// The model is trace-driven and speculation-free: branch mispredictions
// cost frontend stall cycles but no wrong-path instructions execute, so
// every renamed instruction eventually commits. Functional values are
// computed in program order at rename time (an oracle frontend), which
// makes the physical register file carry exactly the values a real core
// would hold — the property PPA's store replay depends on.
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"ppa/internal/cache"
	"ppa/internal/isa"
	"ppa/internal/mutation"
	"ppa/internal/obs"
	"ppa/internal/persist"
	"ppa/internal/rename"
	"ppa/internal/stats"
)

// Config parameterizes one core.
//
// The machine assembler sets CoreID, Threads, SyncContention, Scheme,
// StartAt and StopAt per core, so they are excluded from JSON: a machine
// config file that names them would set nothing.
type Config struct {
	CoreID int `json:"-"`
	Width  int // fetch/rename/commit width (Table 2: 4)

	ROBSize int // Table 2: 224
	LQSize  int // Table 2: 72
	SQSize  int // Table 2: 56

	// PipeDepth is the rename-to-execute front latency; it is also the
	// refill bubble after a pipeline redirect.
	PipeDepth int

	// MispredictRate is the fraction of branches that mispredict;
	// MispredictPenalty adds redirect cycles beyond the resolve point.
	MispredictRate    float64
	MispredictPenalty int

	// SyncBaseCost and SyncContention model the serialization cost of
	// synchronization primitives in multi-threaded workloads; Threads
	// scales contention.
	SyncBaseCost   int
	SyncContention float64 `json:"-"`
	Threads        int     `json:"-"`

	Rename rename.Config
	Scheme persist.Config `json:"-"`

	// SampleFreeRegs enables the per-cycle free-register CDFs (Figure 5).
	SampleFreeRegs bool

	// TraceRegions records a RegionRecord for every region the core forms
	// (timeline analysis; costs memory proportional to region count).
	TraceRegions bool

	// StartAt begins execution at a dynamic instruction index (used to
	// resume a recovered program after LCPC).
	StartAt int `json:"-"`

	// StopAt, when positive, caps execution at a dynamic instruction index:
	// rename stops there and the core reports Done once everything up to it
	// has committed and the ROB is empty. Zero (or a value past the trace
	// end) means run to the end of the trace. The sampled runner uses this
	// to quiesce a core exactly at a detailed-window boundary.
	StopAt int `json:"-"`

	// Front, when non-nil, seeds the core's program-order functional
	// frontend from an existing golden state at StartAt instead of
	// re-executing the prefix. The caller must hand over an exclusive deep
	// copy (the core mutates it at dispatch) positioned exactly at StartAt.
	// Excluded from JSON so machine configs stay serializable.
	Front *isa.GoldenResult `json:"-"`

	// Obs is the optional observability hub (event tracing + metrics). A
	// nil hub disables instrumentation at nil-check cost. Excluded from
	// JSON so machine configs stay serializable.
	Obs *obs.Hub `json:"-"`
}

// DefaultConfig returns the Table 2 core with the given scheme.
func DefaultConfig(scheme persist.Config) Config {
	return Config{
		Width:             4,
		ROBSize:           224,
		LQSize:            72,
		SQSize:            56,
		PipeDepth:         8,
		MispredictRate:    0.04,
		MispredictPenalty: 6,
		SyncBaseCost:      30,
		SyncContention:    1.0,
		Threads:           1,
		Rename:            rename.DefaultConfig(),
		Scheme:            scheme,
	}
}

// BoundaryCause labels why a region ended.
type BoundaryCause int

const (
	// BoundaryPRF: the free list ran out at rename (PPA's dynamic trigger).
	BoundaryPRF BoundaryCause = iota
	// BoundaryCSQ: the committed store queue filled (implicit boundary).
	BoundaryCSQ
	// BoundarySync: a synchronization primitive committed (Section 6).
	BoundarySync
	// BoundaryFixed: a compiler-scheme fixed-length region ended.
	BoundaryFixed
	numBoundaryCauses
)

func (b BoundaryCause) String() string {
	switch b {
	case BoundaryPRF:
		return "prf-exhausted"
	case BoundaryCSQ:
		return "csq-full"
	case BoundarySync:
		return "sync"
	case BoundaryFixed:
		return "fixed"
	default:
		return "unknown"
	}
}

// CSQEntry is one committed store tracked for replay (Section 4.4). The
// hardware entry is (physical register index, physical address); Val
// additionally records the store's value for the ValueCSQ variant and for
// invariant checking. RMW entries always carry their value (ValueBearing):
// an atomic's old+data result is produced in the LSU and no physical
// register holds it, so PPA latches it into the 8-byte CSQ data field the
// Section 6 in-order variant already provides.
type CSQEntry struct {
	Phys rename.PhysRef
	Addr uint64
	Val  uint64
	Seq  int
	// ValueBearing marks entries replayed from Val rather than the PRF.
	ValueBearing bool
}

// Stats aggregates one core's measurements.
type Stats struct {
	Cycles uint64
	Insts  uint64
	Stores uint64

	// Region accounting.
	Regions        uint64
	RegionOther    stats.Histogram // non-store instructions per region
	RegionStores   stats.Histogram // stores per region
	BoundaryCounts [numBoundaryCauses]uint64

	// Stall accounting (cycles).
	RegionEndStalls   uint64 // waiting for persists at a boundary (Fig 11)
	PersistDrainWaits uint64 // subset of RegionEndStalls: boundary armed, persists not yet durable
	RenameNoRegStalls uint64 // free list empty, no boundary taken (Fig 12)
	ROBFullStalls     uint64
	SQFullStalls      uint64
	LQFullStalls      uint64
	WBFullStalls      uint64 // commit blocked: write buffer full
	RedoFullStalls    uint64 // commit blocked: redo buffer full
	LogFullStalls     uint64 // commit blocked: persist-log buffer full
	FrontendStalls    uint64 // branch redirects
	SyncStalls        uint64

	// CSQ behaviour.
	CSQMaxDepth int

	// Occupancy sampling.
	ROBOccupancySum uint64

	// Free-register CDFs (only when sampling is enabled).
	FreeInt *stats.CDF
	FreeFP  *stats.CDF

	// RegionTrace holds one record per region when TraceRegions is set.
	RegionTrace []RegionRecord
}

// RegionRecord is one region's timeline entry.
type RegionRecord struct {
	// EndCycle is the cycle at which the region's boundary resolved.
	EndCycle uint64
	// Cause is why the region ended.
	Cause BoundaryCause
	// Insts and Stores are the region's committed instruction counts.
	Insts  int
	Stores int
	// StallCycles is how long the boundary waited for persistence.
	StallCycles uint64
}

// IPC returns committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// CloseRegion counts the region rec describes, keeping rec when trace is
// set. Both core models close their regions through it.
func (s *Stats) CloseRegion(rec RegionRecord, trace bool) {
	s.Regions++
	s.BoundaryCounts[rec.Cause]++
	s.RegionOther.Add(int64(rec.Insts - rec.Stores))
	s.RegionStores.Add(int64(rec.Stores))
	if trace {
		s.RegionTrace = append(s.RegionTrace, rec)
	}
}

// CopyFrom makes s a copy of src, keeping s's free-register CDFs. The
// region trace is copied into new storage: a Result collected earlier
// shares the old one.
func (s *Stats) CopyFrom(src *Stats) {
	freeInt, freeFP := s.FreeInt, s.FreeFP
	*s = *src
	s.FreeInt, s.FreeFP = freeInt, freeFP
	if src.FreeInt != nil {
		s.FreeInt.CopyFrom(src.FreeInt)
		s.FreeFP.CopyFrom(src.FreeFP)
	}
	if src.RegionTrace != nil {
		s.RegionTrace = append([]RegionRecord(nil), src.RegionTrace...)
	}
}

// ChargeIdle adds k more cycles like the idle one that took the statistics
// from before to s: the cycle count moves k on, and each stall and
// occupancy counter gains k times what that cycle added. Both core models
// charge skipped cycles through it.
func (s *Stats) ChargeIdle(before *Stats, k uint64) {
	s.Cycles += k
	s.ROBOccupancySum += (s.ROBOccupancySum - before.ROBOccupancySum) * k
	s.RegionEndStalls += (s.RegionEndStalls - before.RegionEndStalls) * k
	s.PersistDrainWaits += (s.PersistDrainWaits - before.PersistDrainWaits) * k
	s.RenameNoRegStalls += (s.RenameNoRegStalls - before.RenameNoRegStalls) * k
	s.ROBFullStalls += (s.ROBFullStalls - before.ROBFullStalls) * k
	s.SQFullStalls += (s.SQFullStalls - before.SQFullStalls) * k
	s.LQFullStalls += (s.LQFullStalls - before.LQFullStalls) * k
	s.WBFullStalls += (s.WBFullStalls - before.WBFullStalls) * k
	s.RedoFullStalls += (s.RedoFullStalls - before.RedoFullStalls) * k
	s.LogFullStalls += (s.LogFullStalls - before.LogFullStalls) * k
	s.FrontendStalls += (s.FrontendStalls - before.FrontendStalls) * k
	s.SyncStalls += (s.SyncStalls - before.SyncStalls) * k
}

// AvgRegionLen returns the mean instructions per region (stores + others).
func (s *Stats) AvgRegionLen() float64 { return s.RegionOther.Mean() + s.RegionStores.Mean() }

// robEntry is one in-flight instruction.
type robEntry struct {
	idx        int
	completeAt uint64
	op         isa.Op
	pc         uint64

	dst  isa.Reg
	phys rename.PhysRef

	addr     uint64
	storeVal uint64
	preVal   uint64         // memory word before this store (undo-log pre-image)
	dataPhys rename.PhysRef // store data register (masked on commit)
	srcPhys1 rename.PhysRef // for the mask-all-operands ablation
	srcPhys2 rename.PhysRef

	persistEnqueued bool
	persistTok      int64
	logEnqueued     bool

	// regionStart marks the first instruction of a fixed-length compiler
	// region (ReplayCache/Capri): it may not commit until the previous
	// region's stores are durable.
	regionStart bool
}

// Core is one simulated hardware thread.
type Core struct {
	cfg  Config
	prog *isa.Program
	hier *cache.Hierarchy
	ren  *rename.Renamer

	// backend is the scheme's persist backend (nil when the cache
	// hierarchy's write path is the whole persist path); backendFull is
	// the stall counter a full backend charges: RedoFullStalls for Capri's
	// redo buffer, LogFullStalls for a log path.
	backend     *persist.LogPath
	backendFull *uint64
	retire      persist.Retire // the scheme's store-retire policy

	rob     []robEntry
	robHead int
	robLen  int

	lqCount int
	sqCount int
	gatedSQ int // SQ entries held by gated stores (SBGate scheme)
	// sqReleases holds drain-completion times of committed stores still
	// occupying SQ entries; sqAckToks holds clwb-held entries released
	// only at persist acknowledgment (ReplayCache).
	sqReleases []uint64
	sqAckToks  []int64
	// keepScratch is the reusable survivor list for region closes; the
	// renamer copies what it needs, so the slice never escapes a boundary.
	keepScratch []rename.PhysRef

	storesInROB int

	next            int // next dynamic instruction to rename
	frontStallUntil uint64

	// Dynamic boundary state.
	boundaryPending bool
	boundaryCause   BoundaryCause
	boundaryReadyAt uint64 // StoreGate bubble deadline
	sinceBoundary   int    // renamed instructions since last fixed boundary

	// Epoch snapshot for the relaxed barrier: the boundary waits only for
	// persists enqueued up to the snapshot; stores committing during the
	// wait open the next region (their CSQ entries and mask bits survive
	// the boundary). Hardware realization: a second persist counter and a
	// CSQ cut pointer.
	epochArmed   bool
	epochSnapSeq int64
	epochCSQMark int
	eagerFlushed bool   // one eager pre-boundary flush per region
	epochArmedAt uint64 // cycle the pending boundary first waited

	lastRegionStallCycle uint64 // dedupe stall accounting within a cycle

	// Region commit-side accounting.
	regionInsts  int
	regionStores int

	csq  []CSQEntry
	lcpc uint64

	committed int
	stop      int               // rename/commit cap (trace length or Config.StopAt)
	front     *isa.GoldenResult // program-order functional oracle

	st   Stats
	done bool

	// tr is nil unless Config.Obs carries a tracer; regionStartCycle
	// stamps the open region's first cycle for region trace slices.
	tr               *obs.Tracer
	regionStartCycle uint64

	// Region attribution histograms and per-cause barrier counters, shared
	// across cores on the registry (nil when obs is disabled — the hot path
	// pays one nil check). regionDrainWait counts the open boundary's
	// persist-drain wait cycles, deduped per cycle like noteRegionStall.
	obsRegionInsts     *obs.Histogram
	obsRegionStores    *obs.Histogram
	obsBarrierStall    *obs.Histogram
	obsDrainWait       *obs.Histogram
	obsBarrier         [numBoundaryCauses]*obs.Counter
	pressure           rename.BoundaryPressure
	regionDrainWait    uint64
	lastDrainWaitCycle uint64

	rngState uint64 // deterministic branch-outcome hash state

	// sink receives the commit stream for lockstep checking (nil when no
	// oracle is attached — the commit path pays one nil check). sinkEv is
	// the reusable event so the hot loop stays allocation-free.
	sink   CommitSink
	sinkEv CommitEvent

	// golden is the front the core built itself, which a reset without an
	// injected Config.Front reruns in place; nil until the core needs one.
	// An injected front is the caller's and is never reused.
	golden *isa.GoldenResult
}

// New builds a core over a program and a shared hierarchy. backend is the
// scheme's dedicated persist machinery (persist.Scheme.NewBackend), nil when
// the cache hierarchy's write path is the whole persist path. The core
// resolves the backend's concrete type once here so the cycle loop works on
// a devirtualized pointer and stays allocation-free.
func New(cfg Config, prog *isa.Program, hier *cache.Hierarchy, backend persist.Backend) (*Core, error) {
	if cfg.ROBSize <= 0 {
		return nil, errGeometry
	}
	var lp *persist.LogPath
	redo := false
	switch b := backend.(type) {
	case nil:
	case *persist.RedoPath:
		lp, redo = &b.LogPath, true
	case *persist.LogPath:
		lp = b
	default:
		return nil, fmt.Errorf("pipeline: unknown persist backend %T", backend)
	}
	csqCap := cfg.Scheme.CSQEntries
	if csqCap <= 0 {
		csqCap = 64
	}
	c := &Core{
		hier:       hier,
		backend:    lp,
		ren:        rename.New(cfg.Rename),
		rob:        make([]robEntry, cfg.ROBSize),
		sqReleases: make([]uint64, 0, cfg.SQSize),
		sqAckToks:  make([]int64, 0, cfg.SQSize),
		csq:        make([]CSQEntry, 0, csqCap),
	}
	c.backendFull = &c.st.LogFullStalls
	if redo {
		c.backendFull = &c.st.RedoFullStalls
	}
	if err := c.reset(cfg, prog); err != nil {
		return nil, err
	}
	c.tr = cfg.Obs.Tracer()
	if reg := cfg.Obs.Registry(); reg != nil {
		c.BindGauges()
		// Region attribution: distributions and per-cause totals, shared
		// across every core on this registry so they expose as one
		// Prometheus family each.
		c.obsRegionInsts = reg.Histogram("region.insts")
		c.obsRegionStores = reg.Histogram("region.stores")
		c.obsBarrierStall = reg.Histogram("region.barrier-stall-cycles")
		c.obsDrainWait = reg.Histogram("region.drain-wait-cycles")
		for cause := BoundaryCause(0); cause < numBoundaryCauses; cause++ {
			c.obsBarrier[cause] = reg.Counter("region.barrier-total|cause=" + cause.String())
		}
		c.pressure = rename.NewBoundaryPressure(reg)
	}
	return c, nil
}

// BindGauges points the core's gauges on its obs hub's registry, its
// renamer's and its stall counts', at the core. New binds them; a registry
// reads the core that bound them last.
func (c *Core) BindGauges() {
	reg := c.cfg.Obs.Registry()
	if reg == nil {
		return
	}
	p := fmt.Sprintf("core%d.", c.cfg.CoreID)
	c.ren.RegisterMetrics(reg, p+"rename.")
	reg.BindGaugeFunc(p+"pipeline.regions", func() float64 { return float64(c.st.Regions) })
	reg.BindGaugeFunc(p+"pipeline.region-end-stalls", func() float64 { return float64(c.st.RegionEndStalls) })
	reg.BindGaugeFunc(p+"pipeline.rename-no-reg-stalls", func() float64 { return float64(c.st.RenameNoRegStalls) })
	reg.BindGaugeFunc(p+"pipeline.wb-full-stalls", func() float64 { return float64(c.st.WBFullStalls) })
	reg.BindGaugeFunc(p+"pipeline.csq-max-depth", func() float64 { return float64(c.st.CSQMaxDepth) })
}

// Reset returns the core to the state New builds for cfg and prog over the
// hierarchy and backend it was built with, keeping its ROB, queues and
// register files and the obs handles New bound. The caller resets the
// hierarchy and the backend. cfg must keep the core's index, ROB and
// register-file sizes and obs hub: New sized storage and bound metrics for
// them. A commit sink attached since New is dropped.
func (c *Core) Reset(cfg Config, prog *isa.Program) error {
	if cfg.CoreID != c.cfg.CoreID || cfg.ROBSize != c.cfg.ROBSize ||
		cfg.Rename != c.cfg.Rename || cfg.Obs != c.cfg.Obs {
		return fmt.Errorf("pipeline: reset cannot change core %d's index, ROB or register-file size, or obs hub", c.cfg.CoreID)
	}
	return c.reset(cfg, prog)
}

// CrashCopyFrom makes c, a core of the same index, ROB and register-file
// sizes, a copy of src as far as a power failure reads it: what
// checkpoint.Capture dumps (the CSQ, the LCPC, the commit count and the
// register files) and what Collect reads (the statistics), with src's
// configuration, program and scalar state. The in-flight instructions,
// the SQ release queues and the frontend's golden state, which the outage
// loses, are not copied: c's ROB and frontend keep their own stale
// contents and its release queues are empty, so c must not be stepped
// until a Reset. It keeps c's hierarchy, backend, storage, obs
// handles and commit sink, and shares no mutable storage with src: every
// field is src's except those it restores.
func (c *Core) CrashCopyFrom(src *Core) error {
	if src.cfg.CoreID != c.cfg.CoreID || src.cfg.ROBSize != c.cfg.ROBSize ||
		src.cfg.Rename != c.cfg.Rename || src.cfg.SampleFreeRegs != c.cfg.SampleFreeRegs {
		return fmt.Errorf("pipeline: core %d cannot copy a core of another index, ROB or register-file size, or free-register sampling", c.cfg.CoreID)
	}
	own := *c
	own.ren.CopyFrom(src.ren)
	own.st.CopyFrom(&src.st)
	*c = *src
	c.cfg.Obs = own.cfg.Obs
	c.hier, c.ren, c.backend, c.backendFull = own.hier, own.ren, own.backend, own.backendFull
	c.rob, c.front, c.golden, c.st = own.rob, own.front, own.golden, own.st
	c.sqReleases = own.sqReleases[:0]
	c.sqAckToks = own.sqAckToks[:0]
	c.keepScratch = own.keepScratch[:0]
	c.csq = append(own.csq[:0], src.csq...)
	c.tr, c.pressure, c.sink = own.tr, own.pressure, own.sink
	c.obsRegionInsts, c.obsRegionStores = own.obsRegionInsts, own.obsRegionStores
	c.obsBarrierStall, c.obsDrainWait, c.obsBarrier = own.obsBarrierStall, own.obsDrainWait, own.obsBarrier
	return nil
}

var errGeometry = errors.New("pipeline: width and ROB size must be positive")

// reset sets every field to its just-built value for cfg and prog. It
// carries over only storage (its own golden front included), the hierarchy
// and backend, and obs handles; a field not listed returns to zero. ROB
// slots keep stale contents: dispatch writes every field of a slot before
// it becomes live.
func (c *Core) reset(cfg Config, prog *isa.Program) error {
	if err := cfg.Scheme.Validate(); err != nil {
		return err
	}
	if cfg.Width <= 0 {
		return errGeometry
	}
	if cfg.Scheme.NeedsBackend() && c.backend == nil {
		return fmt.Errorf("pipeline: scheme %s requires a persist backend", cfg.Scheme.Kind)
	}
	stop := prog.Len()
	if cfg.StopAt > 0 && cfg.StopAt < prog.Len() {
		stop = cfg.StopAt
	}
	if stop < cfg.StartAt {
		return fmt.Errorf("pipeline: stop %d before start %d", stop, cfg.StartAt)
	}
	front, golden := cfg.Front, c.golden
	if front == nil {
		if golden == nil {
			golden = &isa.GoldenResult{Mem: isa.NewMapMemory()}
		}
		golden.Rerun(prog, cfg.StartAt)
		front = golden
	} else if front.Executed != cfg.StartAt {
		return fmt.Errorf("pipeline: injected front at instruction %d, core starts at %d",
			front.Executed, cfg.StartAt)
	}
	c.ren.Reset()
	*c = Core{
		cfg:         cfg,
		prog:        prog,
		hier:        c.hier,
		ren:         c.ren,
		backend:     c.backend,
		backendFull: c.backendFull, // points into c.st, which stays put
		retire:      cfg.Scheme.Retire(),
		rob:         c.rob,
		sqReleases:  c.sqReleases[:0],
		sqAckToks:   c.sqAckToks[:0],
		keepScratch: c.keepScratch[:0],
		next:        cfg.StartAt,
		csq:         c.csq[:0],
		committed:   cfg.StartAt,
		stop:        stop,
		front:       front,
		golden:      golden,

		tr:              c.tr,
		obsRegionInsts:  c.obsRegionInsts,
		obsRegionStores: c.obsRegionStores,
		obsBarrierStall: c.obsBarrierStall,
		obsDrainWait:    c.obsDrainWait,
		obsBarrier:      c.obsBarrier,
		pressure:        c.pressure,

		rngState: uint64(cfg.CoreID)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
	}
	if cfg.SampleFreeRegs {
		c.st.FreeInt = stats.NewCDF()
		c.st.FreeFP = stats.NewCDF()
	}
	return nil
}

// Done reports whether every instruction has committed.
func (c *Core) Done() bool { return c.done }

// ReleaseGated closes the open region of a core that a gated retire policy
// (persist.RetireGated, RetireGatedLog) still holds stores in, as a region
// boundary would: the gated stores retire in their burst and the log
// discipline commits the transaction. A core quiesced at its StopAt calls
// for it, since no boundary will come. The close counts as a CSQ boundary,
// like the one a store queue full of gated entries forces. False means the
// boundary still waits: tick the hierarchy and backend and call again.
func (c *Core) ReleaseGated(cycle uint64) bool {
	if c.gatedSQ == 0 && !c.epochArmed {
		return true
	}
	return c.tryEndRegion(cycle, BoundaryCSQ)
}

// Stats returns the core's measurements (valid any time; final when Done).
func (c *Core) Stats() *Stats { return &c.st }

// Renamer exposes the renaming engine (checkpointing, invariants).
func (c *Core) Renamer() *rename.Renamer { return c.ren }

// CSQ returns the live committed store queue.
func (c *Core) CSQ() []CSQEntry { return c.csq }

// LCPC returns the last committed program counter.
func (c *Core) LCPC() uint64 { return c.lcpc }

// Committed returns the count of committed instructions.
func (c *Core) Committed() int { return c.committed }

// Program returns the trace this core executes.
func (c *Core) Program() *isa.Program { return c.prog }

// Step advances the core one cycle. The caller ticks the hierarchy first.
func (c *Core) Step(cycle uint64) {
	if c.done {
		return
	}
	c.releaseSQ(cycle)
	c.commitStage(cycle)
	c.renameStage(cycle)

	c.st.Cycles = cycle + 1
	c.st.ROBOccupancySum += uint64(c.robLen)
	if c.cfg.SampleFreeRegs {
		c.st.FreeInt.Add(c.ren.FreeCount(isa.ClassInt))
		c.st.FreeFP.Add(c.ren.FreeCount(isa.ClassFP))
	}
	if c.committed >= c.stop && c.robLen == 0 {
		c.done = true
	}
}

// never is NextEvent's report for a state no cycle of the core's own can
// change.
const never = math.MaxUint64

// NextEvent reports the earliest cycle, no earlier than cycle, at which
// Step may do more than an idle step, which changes nothing but the
// counters ChargeIdle scales, provided no other unit changes before then:
// an SQ release, the ROB head completing, a boundary bubble or frontend
// stall ending, or any commit or rename Step could make now. A core
// waiting on the hierarchy or the backend reports never; they report when
// they change.
func (c *Core) NextEvent(cycle uint64) uint64 {
	if c.done {
		return never
	}
	if c.committed >= c.stop && c.robLen == 0 {
		return cycle // Step marks the core done
	}
	next := c.commitNext(cycle)
	if next <= cycle {
		return cycle
	}
	next = min(next, c.renameNext(cycle))
	for _, t := range c.sqReleases {
		next = min(next, t)
	}
	if next <= cycle {
		return cycle
	}
	for _, tok := range c.sqAckToks {
		if c.hier.PersistAcked(c.cfg.CoreID, tok) {
			return cycle
		}
	}
	return next
}

// commitNext is NextEvent's commit stage: cycle when commitStage would
// change the core now, the cycle the ROB head completes or its boundary
// bubble ends, or never while it waits on the hierarchy or the backend.
func (c *Core) commitNext(cycle uint64) uint64 {
	if c.robLen == 0 {
		return never
	}
	e := &c.rob[c.robHead]
	sc := &c.cfg.Scheme
	switch {
	case e.completeAt > cycle:
		return e.completeAt
	case e.regionStart && sc.Barrier == persist.BarrierStoreGate:
		switch {
		case c.boundaryReadyAt == 0:
			return cycle
		case cycle < c.boundaryReadyAt:
			return c.boundaryReadyAt
		case c.backend.PendingOf(c.cfg.CoreID) > 0:
			return never
		}
		return cycle
	case e.regionStart:
		return c.heldNext(cycle, BoundaryFixed)
	case sc.SyncIsBoundary && e.op.IsSyncPrimitive() && c.regionDirty():
		return c.heldNext(cycle, BoundarySync)
	case !e.op.IsStore():
		return cycle
	case sc.CSQEntries > 0 && len(c.csq) >= sc.CSQEntries:
		return c.heldNext(cycle, BoundaryCSQ)
	case c.backend != nil && !e.logEnqueued:
		if c.backend.CanAccept(c.cfg.CoreID) {
			return cycle
		}
		return never
	}
	switch c.retire {
	case persist.RetireGated, persist.RetireGatedLog, persist.RetireMerge:
		return cycle
	}
	if !e.persistEnqueued {
		if c.hier.CanPersist(c.cfg.CoreID, e.addr) {
			return cycle
		}
		return never
	}
	if syncPersist, _ := sc.AsyncAblations(); syncPersist && !c.hier.PersistAcked(c.cfg.CoreID, e.persistTok) {
		return never
	}
	return cycle
}

// heldNext is never while a boundary of cause is held, else cycle: the
// boundary arms, bursts or closes now.
func (c *Core) heldNext(cycle uint64, cause BoundaryCause) uint64 {
	if c.boundaryHeld(cause) {
		return never
	}
	return cycle
}

// renameNext is NextEvent's rename stage: cycle when renameStage would
// change the core now, the end of a frontend stall, or never while it
// waits on the commit stage, the hierarchy or the backend.
func (c *Core) renameNext(cycle uint64) uint64 {
	switch {
	case c.next >= c.stop:
		return never
	case c.frontStallUntil > cycle:
		return c.frontStallUntil
	case c.boundaryPending:
		return c.heldNext(cycle, c.boundaryCause)
	case c.cfg.Scheme.Barrier == persist.BarrierFullDrain && c.epochArmed:
		return never
	}
	in := &c.prog.Insts[c.next]
	switch {
	case c.robLen >= len(c.rob),
		in.Op == isa.OpLoad && c.lqCount >= c.cfg.LQSize:
		return never
	case in.Op.IsStore() && c.sqCount >= c.cfg.SQSize:
		// A store queue full of gated stores forces a boundary.
		if c.gatedSQ > 0 {
			return cycle
		}
		return never
	case in.DefinesReg() && c.ren.FreeCount(in.Dst.Class) == 0 && !c.cfg.Scheme.DynamicRegions:
		return never
	}
	return cycle
}

// ChargeIdle accounts k more cycles like the idle step just run, whose
// statistics before it were before: each counter that step bumped gains k
// times as much, and the stall-dedupe stamps move k cycles on. The caller
// guarantees, through NextEvent, that nothing else changes in those cycles.
func (c *Core) ChargeIdle(before *Stats, k uint64) {
	if c.done {
		return
	}
	if c.lastRegionStallCycle == c.st.Cycles {
		c.lastRegionStallCycle += k
	}
	if c.lastDrainWaitCycle == c.st.Cycles {
		c.lastDrainWaitCycle += k
	}
	c.regionDrainWait += (c.st.PersistDrainWaits - before.PersistDrainWaits) * k
	// Each rename or backend stall of an idle cycle is one refused
	// TryRename or TryAccept, which counts its own refusal.
	c.ren.RenameStalls += (c.st.RenameNoRegStalls - before.RenameNoRegStalls) * k
	if c.backend != nil {
		full := c.st.LogFullStalls + c.st.RedoFullStalls - before.LogFullStalls - before.RedoFullStalls
		c.backend.Rejects += full * k
	}
	if c.cfg.SampleFreeRegs {
		c.st.FreeInt.AddN(c.ren.FreeCount(isa.ClassInt), k)
		c.st.FreeFP.AddN(c.ren.FreeCount(isa.ClassFP), k)
	}
	c.st.ChargeIdle(before, k)
}

// releaseSQ frees store-queue entries whose drain completed or whose clwb
// persist acknowledged.
func (c *Core) releaseSQ(cycle uint64) {
	if len(c.sqReleases) > 0 {
		kept := c.sqReleases[:0]
		for _, t := range c.sqReleases {
			if t <= cycle {
				c.sqCount--
			} else {
				kept = append(kept, t)
			}
		}
		c.sqReleases = kept
	}
	if len(c.sqAckToks) > 0 {
		kept := c.sqAckToks[:0]
		for _, tok := range c.sqAckToks {
			if c.hier.PersistAcked(c.cfg.CoreID, tok) {
				c.sqCount--
			} else {
				kept = append(kept, tok)
			}
		}
		c.sqAckToks = kept
	}
}

// commitStage retires up to Width completed instructions in order.
func (c *Core) commitStage(cycle uint64) {
	for w := c.cfg.Width; w > 0 && c.robLen > 0; w-- {
		e := &c.rob[c.robHead]
		if e.completeAt > cycle {
			return
		}

		// Fixed-region boundary: the first instruction of a new compiler
		// region commits only after the previous region is durable.
		if e.regionStart && !c.fixedBarrierDone(cycle) {
			c.noteRegionStall(cycle)
			return
		}

		// Synchronization primitives are region boundaries: they may not
		// commit until the region's stores are durable (Section 6).
		if c.cfg.Scheme.SyncIsBoundary && e.op.IsSyncPrimitive() && c.regionDirty() {
			if !c.tryEndRegion(cycle, BoundarySync) {
				c.noteRegionStall(cycle)
				return
			}
		}

		if e.op.IsStore() {
			if !c.commitStore(e, cycle) {
				return
			}
		}

		if e.dst.Valid() {
			c.ren.Commit(e.dst, e.phys)
		}
		if !(mutation.Is(mutation.PipelineLCPCSkew) && e.op.IsStore()) {
			// Seeded bug PipelineLCPCSkew: the LCPC latch misses store
			// commits, so the recovery resume point skews.
			c.lcpc = e.pc
		}
		c.committed++
		c.st.Insts++
		c.regionInsts++
		if e.op.IsStore() {
			c.regionStores++
			c.st.Stores++
		}
		if e.op == isa.OpLoad {
			c.lqCount--
		}
		if c.sink != nil {
			c.emitCommit(e, cycle)
		}
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robLen--
	}
}

// commitStore performs the store-specific commit work; false means the
// commit stage must stall this cycle.
func (c *Core) commitStore(e *robEntry, cycle uint64) bool {
	sc := &c.cfg.Scheme
	syncPersist, eagerFlush := sc.AsyncAblations()

	// A full CSQ is an implicit region boundary (Section 4.2).
	if sc.CSQEntries > 0 && len(c.csq) >= sc.CSQEntries {
		if !c.tryEndRegion(cycle, BoundaryCSQ) {
			c.noteRegionStall(cycle)
			return false
		}
	}

	// Undo logging: the pre-image must be durable in the log before the
	// in-place store may enter the persist path (write-ahead discipline).
	// Capri's battery-backed redo buffer makes the store durable here, and
	// redo-logging transaction schemes write the new value ahead (durable
	// for RedoTxn, staged in the volatile hardware log for HTPM).
	if !c.logStore(e) {
		return false
	}

	switch c.retire {
	case persist.RetireGated, persist.RetireGatedLog:
		// Store-buffer gating (Section 6 alternative): the store neither
		// merges into L1D nor writes back now — it sits in the gated SB (the
		// value-bearing CSQ) until the region boundary retires it. The SQ
		// entry stays occupied the whole time: the pressure the paper warns
		// about.
		c.gatedSQ++
	case persist.RetireMerge:
		c.mergeStore(e.addr, e.storeVal, 0, cycle)
	default:
		// The write buffer must accept the store before it can retire.
		if !e.persistEnqueued {
			tok, ok := c.persistStore(e.addr, e.storeVal, cycle)
			if !ok {
				return false
			}
			e.persistEnqueued = true
			e.persistTok = tok
			if syncPersist {
				// No-async ablation: this store's writeback must not linger
				// in the coalescing window — it is about to be waited on.
				c.hier.FlushWB(c.cfg.CoreID, cycle)
			}
		}
		if syncPersist && !c.hier.PersistAcked(c.cfg.CoreID, e.persistTok) {
			// No-async ablation: wait for durability before retiring.
			c.noteRegionStall(cycle)
			return false
		}
		c.mergeStore(e.addr, e.storeVal, e.persistTok, cycle)
	}
	c.storesInROB--

	// Track the committed store for replay; pin its registers (PPA).
	if sc.CSQEntries > 0 {
		valueBearing := sc.ValueCSQ || e.op == isa.OpRMW
		entry := CSQEntry{
			Addr:         isa.WordAlign(e.addr),
			Val:          e.storeVal,
			Seq:          e.idx,
			ValueBearing: valueBearing,
		}
		if !valueBearing {
			entry.Phys = e.dataPhys
			if !mutation.Is(mutation.PipelineMaskSkip) {
				// Seeded bug PipelineMaskSkip: the CSQ entry's replay
				// source is left unpinned.
				c.ren.MaskStoreReg(e.dataPhys)
			}
			if sc.MaskAllOperands {
				c.ren.MaskStoreReg(e.srcPhys1)
				c.ren.MaskStoreReg(e.srcPhys2)
			}
		}
		c.csq = append(c.csq, entry)
		c.noteCSQDepth(cycle)
		// Eager pre-boundary flush (extension, off by default): once the
		// CSQ is three-quarters full the region will end soon, so stop
		// lazily coalescing and push the pending writebacks toward the WPQ
		// now, overlapping their persistence with the region's remaining
		// execution.
		if eagerFlush && !c.eagerFlushed && len(c.csq) >= sc.CSQEntries*3/4 {
			c.hier.FlushWB(c.cfg.CoreID, cycle)
			c.eagerFlushed = true
		}
	}
	return true
}

// persistStore offers a retiring store to the core's write buffer. False
// means the buffer is full: the store must wait, and the cycle counts as a
// write-buffer-full stall.
func (c *Core) persistStore(addr, val, cycle uint64) (int64, bool) {
	tok, ok := c.hier.PersistStore(c.cfg.CoreID, addr, val, cycle)
	if !ok {
		c.st.WBFullStalls++
	}
	return tok, ok
}

// mergeStore merges a retiring store into L1D — its functional value plus
// the drain timing — and schedules the release of its SQ entry: at the
// persist acknowledgment of tok under clwb, at the drain otherwise.
func (c *Core) mergeStore(addr, val uint64, tok int64, cycle uint64) {
	c.hier.StoreData(addr, val)
	drainDone := c.hier.Access(c.cfg.CoreID, addr, true, cycle)
	if c.retire == persist.RetireClwb {
		c.sqAckToks = append(c.sqAckToks, tok)
	} else {
		c.sqReleases = append(c.sqReleases, drainDone)
	}
}

// logStore offers a committed store to the scheme's persist backend, once,
// with the value its log discipline records. False means the backend is
// full and commit must stall.
func (c *Core) logStore(e *robEntry) bool {
	if c.backend == nil || e.logEnqueued {
		return true
	}
	val := e.storeVal
	if c.backend.LogsPreImage() {
		val = e.preVal
	}
	if !c.backend.TryAccept(c.cfg.CoreID, isa.WordAlign(e.addr), val) {
		*c.backendFull++
		return false
	}
	e.logEnqueued = true
	return true
}

// noteCSQDepth tracks the committed store queue's high-water mark and
// traces each new maximum (low-frequency: at most CSQEntries events/run).
func (c *Core) noteCSQDepth(cycle uint64) {
	if len(c.csq) <= c.st.CSQMaxDepth {
		return
	}
	c.st.CSQMaxDepth = len(c.csq)
	if c.tr != nil {
		c.tr.Emit(obs.Event{
			Cycle: cycle,
			Type:  obs.EvCounter,
			Core:  c.cfg.CoreID,
			Name:  "csq-high-water",
			Cat:   "persist",
			Args:  [obs.MaxEventArgs]obs.Arg{{Key: "depth", Val: int64(len(c.csq))}},
		})
	}
}

// regionDirty reports whether the current region has stores that are not
// yet known durable (so a boundary would have to wait or clear state).
func (c *Core) regionDirty() bool {
	if len(c.csq) > 0 || c.regionStores > 0 {
		return true
	}
	return c.hier.PersistPending(c.cfg.CoreID) > 0
}

// tryEndRegion attempts to close the current region: every persist
// enqueued up to the boundary snapshot must be durable; then MaskReg's
// deferred registers reclaim (except those pinned by stores that already
// opened the next region) and the region's CSQ entries clear
// (Section 4.2). Returns false if the boundary must keep waiting.
func (c *Core) tryEndRegion(cycle uint64, cause BoundaryCause) bool {
	arming := !c.epochArmed
	if arming {
		c.epochArmed = true
		c.epochArmedAt = cycle
		c.epochCSQMark = len(c.csq)
		if c.backend != nil {
			// Transaction commit on the log path (see ArmBoundary). A
			// marker appended here is consistent by log order: stores log
			// at commit and commit in program order, so the records ahead
			// of it are exactly the stores committed before this instant —
			// c.committed. Stores retiring during the wait log after it and
			// roll back (or replay in the next region) at recovery.
			c.backend.ArmBoundary(c.cfg.CoreID, c.committed)
		}
		if c.sink != nil && c.retire.WriteBuffer() {
			c.sink.ObserveBarrierArm(c.cfg.CoreID, cycle)
		}
	}
	// Store-buffer gating: the closing region's gated stores merge into L1D
	// and enter the persist path now, in one burst — the cost of gating: no
	// background persistence overlapped the region. They retire through
	// commit's own write-buffer step, so a full buffer holds the boundary
	// and the burst resumes at the oldest store still gated (the unretired
	// gated stores are always the CSQ's last gatedSQ entries). RetireGatedLog
	// skips the enqueue: log replay writes its durable image.
	if next := len(c.csq) - c.gatedSQ; next < c.epochCSQMark {
		for ; next < c.epochCSQMark; next++ {
			en := &c.csq[next]
			var tok int64
			if c.retire == persist.RetireGated {
				var ok bool
				if tok, ok = c.persistStore(en.Addr, en.Val, cycle); !ok {
					c.noteDrainWait(cycle)
					return false
				}
			}
			c.mergeStore(en.Addr, en.Val, tok, cycle)
			c.gatedSQ--
		}
		arming = true // snapshot after the burst's last enqueue
	}
	if arming {
		snapCore := c.cfg.CoreID
		if c.cfg.Threads > 1 && mutation.Is(mutation.PipelineBarrierSnapshotCrossCore) {
			// Seeded bug PipelineBarrierSnapshotCrossCore: the boundary
			// snapshots the *next* core's persist counter, so it waits on
			// the wrong queue — instantly released when that queue is
			// idle, leaving this core's region not yet durable.
			snapCore = (c.cfg.CoreID + 1) % c.cfg.Threads
		}
		c.epochSnapSeq = c.hier.CurrentPersistSeq(snapCore)
		if mutation.Is(mutation.PipelineBarrierSnapshotOffByOne) {
			// Seeded bug: the snapshot misses the newest write-buffer
			// entry, so the barrier stops waiting one entry early.
			c.epochSnapSeq--
		}
		// The boundary needs the region durable as soon as possible: cancel
		// the lazy-coalescing lag of pending writebacks. Once per boundary:
		// a second flush would subtract the lag again.
		c.hier.FlushWB(c.cfg.CoreID, cycle)
	}
	switch c.barrierHold(cause) {
	case holdDrain:
		c.noteDrainWait(cycle)
		return false
	case holdFullDrain:
		return false
	}

	// Stores that committed during the wait belong to the next region:
	// keep their CSQ entries and mask bits.
	survivors := c.csq[c.epochCSQMark:]
	keep := c.keepScratch[:0]
	for i := range survivors {
		if survivors[i].Phys.Valid() {
			keep = append(keep, survivors[i].Phys)
		}
	}
	c.ren.ReclaimMaskedExcept(keep)
	c.keepScratch = keep
	c.csq = append(c.csq[:0], survivors...)

	// Undo logging appends its region-commit marker only now (see
	// CloseBoundary). Undo boundaries are commit-side (Validate rejects
	// DynamicRegions), so c.committed is exact — nothing committed during
	// the wait.
	if c.backend != nil {
		c.backend.CloseBoundary(c.cfg.CoreID, c.committed)
	}

	c.closeRegionStats(cycle, cause, cycle-c.epochArmedAt)
	c.epochArmed = false
	c.eagerFlushed = false
	if c.sink != nil && c.retire.WriteBuffer() {
		c.sink.ObserveBarrierComplete(c.cfg.CoreID, cycle, cause)
	}
	return true
}

// barrierHold says what still holds an armed boundary whose gated burst is
// done.
type barrierHold int

const (
	holdNone      barrierHold = iota
	holdDrain                 // persists or log records not yet durable
	holdFullDrain             // the full-drain ablation's ROB and persists
)

// barrierHold reports what holds an armed boundary of cause once its gated
// burst is done, reading nothing but the core, the hierarchy and the
// backend.
func (c *Core) barrierHold(cause BoundaryCause) barrierHold {
	if !c.hier.PersistedThrough(c.cfg.CoreID, c.epochSnapSeq) &&
		!mutation.Is(mutation.PipelineBarrierEarlyRelease) {
		// The mutation guard is seeded bug PipelineBarrierEarlyRelease:
		// the barrier releases without waiting for the snapshot to drain.
		return holdDrain
	}
	// The log discipline may hold the boundary until the core's records
	// have drained the shared path (the log-write bandwidth).
	if c.backend != nil && c.backend.BoundaryWaits(c.cfg.CoreID) {
		return holdDrain
	}
	// The full-drain ablation freezes the frontend while any boundary is
	// armed (see renameStage) and, for rename-side boundaries, waits for
	// the ROB to empty and every persist to complete. Commit-side
	// boundaries (CSQ-full, sync) cannot drain below their own blocked
	// instruction, so the frontend freeze is their whole strictness.
	if c.cfg.Scheme.Barrier == persist.BarrierFullDrain && cause == BoundaryPRF &&
		(c.robLen > 0 || c.hier.PersistPending(c.cfg.CoreID) > 0) {
		return holdFullDrain
	}
	return holdNone
}

// boundaryHeld reports whether tryEndRegion for cause would wait without
// changing the core: the boundary is armed, and either the next store of
// its gated burst cannot enter the write buffer or barrierHold holds it.
func (c *Core) boundaryHeld(cause BoundaryCause) bool {
	if !c.epochArmed {
		return false
	}
	if next := len(c.csq) - c.gatedSQ; next < c.epochCSQMark {
		return c.retire == persist.RetireGated && !c.hier.CanPersist(c.cfg.CoreID, c.csq[next].Addr)
	}
	return c.barrierHold(cause) != holdNone
}

// closeRegionStats records every per-region measurement for a region ending
// at cycle — the histogram samples, boundary-cause counts, optional region
// trace record, and trace events — and resets the open-region counters. It
// is the single accounting path for both dynamic-region closes
// (tryEndRegion) and fixed-region closes (endFixedRegion), so the persist
// schemes cannot silently diverge in what they record.
func (c *Core) closeRegionStats(cycle uint64, cause BoundaryCause, stall uint64) {
	c.st.CloseRegion(RegionRecord{
		EndCycle:    cycle,
		Cause:       cause,
		Insts:       c.regionInsts,
		Stores:      c.regionStores,
		StallCycles: stall,
	}, c.cfg.TraceRegions)
	if c.obsRegionInsts != nil {
		c.obsRegionInsts.Observe(float64(c.regionInsts))
		c.obsRegionStores.Observe(float64(c.regionStores))
		c.obsBarrierStall.Observe(float64(stall))
		c.obsDrainWait.Observe(float64(c.regionDrainWait))
		c.obsBarrier[cause].Inc()
		c.ren.ObservePressure(c.pressure)
	}
	if c.tr != nil {
		c.emitRegion(cycle, cause, stall)
	}
	c.regionInsts = 0
	c.regionStores = 0
	c.regionDrainWait = 0
}

// emitRegion traces one closed region: the region slice itself, the
// barrier-wait slice when the boundary stalled, and a rename-pressure
// counter sample (free registers and MaskReg occupancy at the boundary —
// the Figure 5/12 evidence). Args are ordered by key for stable export.
func (c *Core) emitRegion(cycle uint64, cause BoundaryCause, stall uint64) {
	c.tr.Emit(obs.Event{
		Cycle: c.regionStartCycle,
		Dur:   cycle - c.regionStartCycle,
		Type:  obs.EvComplete,
		Core:  c.cfg.CoreID,
		Name:  "region",
		Cat:   "region",
		Args: [obs.MaxEventArgs]obs.Arg{
			{Key: "cause", Val: int64(cause)},
			{Key: "insts", Val: int64(c.regionInsts)},
			{Key: "stall", Val: int64(stall)},
			{Key: "stores", Val: int64(c.regionStores)},
		},
	})
	if stall > 0 {
		c.tr.Emit(obs.Event{
			Cycle: cycle - stall,
			Dur:   stall,
			Type:  obs.EvComplete,
			Core:  c.cfg.CoreID,
			Name:  "region-barrier",
			Cat:   "persist",
			Args: [obs.MaxEventArgs]obs.Arg{
				{Key: "cause", Val: int64(cause)},
				{Key: "drain", Val: int64(c.regionDrainWait)},
			},
		})
	}
	c.tr.Emit(obs.Event{
		Cycle: cycle,
		Type:  obs.EvCounter,
		Core:  c.cfg.CoreID,
		Name:  "rename-pressure",
		Cat:   "rename",
		Args: [obs.MaxEventArgs]obs.Arg{
			{Key: "free-fp", Val: int64(c.ren.FreeCount(isa.ClassFP))},
			{Key: "free-int", Val: int64(c.ren.FreeCount(isa.ClassInt))},
			{Key: "masked", Val: int64(c.ren.MaskedCount())},
		},
	})
	c.regionStartCycle = cycle
}

// fixedBarrierDone drives a commit-side fixed-region boundary: Capri waits
// until the core's redo entries have drained through the shared persist
// path to NVM, plus the path's acknowledgment round trip; ReplayCache
// waits (sfence-like) for every prior clwb to reach the WPQ.
func (c *Core) fixedBarrierDone(cycle uint64) bool {
	sc := &c.cfg.Scheme
	if sc.Barrier == persist.BarrierStoreGate {
		if c.boundaryReadyAt == 0 {
			c.boundaryReadyAt = cycle + uint64(sc.BoundaryBubble)
		}
		if cycle < c.boundaryReadyAt || c.backend.PendingOf(c.cfg.CoreID) > 0 {
			c.noteDrainWait(cycle)
			return false
		}
		c.boundaryReadyAt = 0
		c.endFixedRegion(cycle)
		return true
	}
	return c.tryEndRegion(cycle, BoundaryFixed)
}

// noteRegionStall counts one region-end stall cycle, at most once per
// cycle even when both commit and rename are blocked on the boundary.
func (c *Core) noteRegionStall(cycle uint64) {
	if c.lastRegionStallCycle != cycle+1 {
		c.lastRegionStallCycle = cycle + 1
		c.st.RegionEndStalls++
	}
}

// noteDrainWait counts one persist-drain wait cycle — the boundary is armed
// but the region's stores are not yet durable — at most once per cycle. It
// feeds the distinct persist-drain stall category (PersistDrainWaits, the
// region-barrier "drain" arg, and the region.drain-wait-cycles histogram),
// separating drain time from the generic boundary stall it is a subset of.
func (c *Core) noteDrainWait(cycle uint64) {
	if c.lastDrainWaitCycle != cycle+1 {
		c.lastDrainWaitCycle = cycle + 1
		c.st.PersistDrainWaits++
		c.regionDrainWait++
	}
}

// renameStage renames up to Width instructions, handling region boundaries
// and structural stalls.
func (c *Core) renameStage(cycle uint64) {
	if c.next >= c.stop {
		return
	}
	if c.frontStallUntil > cycle {
		c.st.FrontendStalls++
		return
	}
	if c.boundaryPending && !c.resolveBoundary(cycle) {
		c.noteRegionStall(cycle)
		return
	}
	// A full-drain barrier freezes the frontend while any boundary is
	// armed, so the backend can actually drain.
	if c.cfg.Scheme.Barrier == persist.BarrierFullDrain && c.epochArmed {
		c.noteRegionStall(cycle)
		return
	}

	for w := c.cfg.Width; w > 0 && c.next < c.stop; {
		in := &c.prog.Insts[c.next]

		// Fixed-length compiler regions: tag the instruction that begins a
		// new region; the barrier itself acts at commit.
		regionStart := c.cfg.Scheme.FixedRegionLen > 0 &&
			c.sinceBoundary >= c.cfg.Scheme.FixedRegionLen

		if c.robLen >= len(c.rob) {
			c.st.ROBFullStalls++
			return
		}
		if in.Op == isa.OpLoad && c.lqCount >= c.cfg.LQSize {
			c.st.LQFullStalls++
			return
		}
		if in.Op.IsStore() && c.sqCount >= c.cfg.SQSize {
			c.st.SQFullStalls++
			// Under store-buffer gating, a store queue full of gated
			// entries can only clear through a region boundary.
			if c.gatedSQ > 0 {
				c.boundaryPending = true
				c.boundaryCause = BoundaryCSQ
				if !c.resolveBoundary(cycle) {
					c.noteRegionStall(cycle)
				}
			}
			return
		}

		// Source lookups must precede the destination rename (dst may
		// equal a source).
		src1 := c.ren.Lookup(in.Src1)
		src2 := c.ren.Lookup(in.Src2)

		var phys rename.PhysRef
		if in.DefinesReg() {
			p, ok := c.ren.TryRename(in.Dst)
			if !ok {
				if c.cfg.Scheme.DynamicRegions {
					// PPA: the free list ran out — place a region boundary
					// right before this instruction (Section 4.2).
					c.boundaryPending = true
					c.boundaryCause = BoundaryPRF
					c.boundaryReadyAt = 0
					if !c.resolveBoundary(cycle) {
						c.noteRegionStall(cycle)
						return
					}
					p, ok = c.ren.TryRename(in.Dst)
				}
				if !ok {
					// Still out of registers: genuine structural stall
					// (in-flight instructions hold the whole file).
					c.st.RenameNoRegStalls++
					return
				}
			}
			phys = p
		}

		c.dispatch(in, phys, src1, src2, cycle, regionStart)
		c.next++
		if regionStart {
			c.sinceBoundary = 0
		}
		c.sinceBoundary++
		w--
		if c.retire == persist.RetireClwb && in.Op.IsStore() {
			// The injected clwb consumes a pipeline slot too.
			w--
		}
	}
}

// resolveBoundary drives a pending rename-side dynamic region boundary
// (PPA's PRF-exhaustion trigger) to completion.
func (c *Core) resolveBoundary(cycle uint64) bool {
	if !c.tryEndRegion(cycle, c.boundaryCause) {
		return false
	}
	c.boundaryPending = false
	return true
}

// endFixedRegion records region statistics for schemes whose boundary does
// not interact with MaskReg/CSQ (Capri).
func (c *Core) endFixedRegion(cycle uint64) {
	c.closeRegionStats(cycle, BoundaryFixed, 0)
}

// dispatch computes the instruction's functional result, schedules its
// completion, and inserts it into the ROB.
func (c *Core) dispatch(in *isa.Inst, phys rename.PhysRef, src1, src2 rename.PhysRef, cycle uint64, regionStart bool) {
	ready := cycle + uint64(c.cfg.PipeDepth)
	if r := c.ren.ReadyAt(src1); r > ready {
		ready = r
	}
	if r := c.ren.ReadyAt(src2); r > ready {
		ready = r
	}

	var complete uint64
	switch {
	case in.Op == isa.OpLoad || in.Op == isa.OpRMW:
		complete = c.hier.Access(c.cfg.CoreID, in.Addr, false, ready)
	case in.Op.IsStore():
		complete = ready + 1
	case in.Op == isa.OpSync || in.Op == isa.OpFence:
		complete = ready + uint64(c.syncCost())
		c.st.SyncStalls += uint64(c.syncCost())
	case in.Op == isa.OpBranch:
		// Branch conditions resolve at a fixed early point: conditions are
		// overwhelmingly computed from short dependence chains, so coupling
		// them to arbitrary producer latency (e.g. a pointer-chasing load)
		// would grossly over-serialize the frontend.
		complete = cycle + uint64(c.cfg.PipeDepth) + 2
		if c.mispredicts(c.next) {
			c.frontStallUntil = complete + uint64(c.cfg.MispredictPenalty)
		}
	default:
		complete = ready + uint64(in.Op.ExecLatency())
	}

	// Advance the program-order functional oracle. A backend that logs
	// pre-images (undo) has the store's pre-image captured first: the golden
	// memory at dispatch of instruction i holds exactly the state before i
	// (dispatch is program-order), which neither the hierarchy nor the
	// device can supply at commit time.
	idx := c.next
	var storeVal, preVal uint64
	if in.Op.IsStore() && c.backend != nil && c.backend.LogsPreImage() {
		preVal = c.front.Mem.ReadWord(isa.WordAlign(in.Addr))
	}
	nStores := len(c.front.StoreLog)
	isa.StepGolden(c.front, in, idx)
	if in.Op.IsStore() && len(c.front.StoreLog) > nStores {
		storeVal = c.front.StoreLog[len(c.front.StoreLog)-1].Val
	}
	if in.DefinesReg() {
		c.ren.Write(phys, c.front.Regs.Read(in.Dst), complete)
	}

	tail := c.robHead + c.robLen
	if tail >= len(c.rob) {
		tail -= len(c.rob)
	}
	// The entry is written field by field into its ring slot: a composite
	// literal of this size is materialized on the stack and block-copied,
	// which shows up in the cycle-loop profile.
	e := &c.rob[tail]
	e.idx = idx
	e.completeAt = complete
	e.op = in.Op
	e.pc = in.PC
	e.dst = in.Dst
	e.phys = phys
	e.addr = in.Addr
	e.storeVal = storeVal
	e.preVal = preVal
	e.dataPhys = rename.PhysRef{}
	e.srcPhys1 = src1
	e.srcPhys2 = src2
	e.persistEnqueued = false
	e.persistTok = 0
	e.logEnqueued = false
	e.regionStart = regionStart
	if in.Op.IsStore() {
		e.dataPhys = src1
		c.sqCount++
		c.storesInROB++
	}
	if in.Op == isa.OpLoad {
		c.lqCount++
	}
	c.robLen++
}

// syncCost returns the serialization cost of one synchronization primitive.
func (c *Core) syncCost() int {
	threads := c.cfg.Threads
	if threads < 1 {
		threads = 1
	}
	return c.cfg.SyncBaseCost + int(c.cfg.SyncContention*float64(threads-1)*4)
}

// mispredicts deterministically decides whether the branch at dynamic index
// i mispredicts, independent of scheme so all runs see identical frontends.
func (c *Core) mispredicts(i int) bool {
	x := uint64(i)*0x9E3779B97F4A7C15 ^ c.rngState
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return float64(x%10000) < c.cfg.MispredictRate*10000
}

// CheckStoreIntegrity verifies the paper's core invariant: every CSQ
// entry's physical register still holds the stored value and is masked
// (value-bearing entries carry their data directly and are exempt). It
// returns the first violation found, or nil.
func (c *Core) CheckStoreIntegrity() error {
	for _, e := range c.csq {
		if e.ValueBearing {
			continue
		}
		if !e.Phys.Valid() {
			return fmt.Errorf("csq entry seq %d has no physical register", e.Seq)
		}
		if got := c.ren.Read(e.Phys); got != e.Val {
			return fmt.Errorf("store integrity violated: csq seq %d reg %v holds %#x want %#x",
				e.Seq, e.Phys, got, e.Val)
		}
		if !c.ren.IsMasked(e.Phys) {
			return fmt.Errorf("csq seq %d register %v is not masked", e.Seq, e.Phys)
		}
	}
	return nil
}

// CheckStructural validates the core's structural bookkeeping: queue
// occupancies within capacity, commit progress within the trace, and the
// CSQ within its configured bound. Tests call it periodically to catch
// counter drift.
func (c *Core) CheckStructural() error {
	if c.robLen < 0 || c.robLen > len(c.rob) {
		return fmt.Errorf("pipeline: ROB occupancy %d of %d", c.robLen, len(c.rob))
	}
	if c.lqCount < 0 || c.lqCount > c.cfg.LQSize {
		return fmt.Errorf("pipeline: LQ occupancy %d of %d", c.lqCount, c.cfg.LQSize)
	}
	if c.sqCount < 0 || c.sqCount > c.cfg.SQSize {
		return fmt.Errorf("pipeline: SQ occupancy %d of %d", c.sqCount, c.cfg.SQSize)
	}
	if c.gatedSQ < 0 || c.gatedSQ > c.sqCount {
		return fmt.Errorf("pipeline: gated SQ count %d of %d", c.gatedSQ, c.sqCount)
	}
	if c.storesInROB < 0 {
		return fmt.Errorf("pipeline: negative stores-in-ROB %d", c.storesInROB)
	}
	if c.committed < c.cfg.StartAt || c.committed > c.prog.Len() {
		return fmt.Errorf("pipeline: committed %d outside [%d,%d]", c.committed, c.cfg.StartAt, c.prog.Len())
	}
	if n := c.cfg.Scheme.CSQEntries; n > 0 && len(c.csq) > n {
		return fmt.Errorf("pipeline: CSQ %d exceeds %d", len(c.csq), n)
	}
	if c.hier.PersistPending(c.cfg.CoreID) < 0 {
		return fmt.Errorf("pipeline: negative persist counter")
	}
	return nil
}
