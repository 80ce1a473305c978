// Package persist defines the persistence schemes the paper evaluates and
// the knobs that distinguish them. One pipeline engine executes all of
// them; a scheme is a configuration of region policy, persist path, and
// barrier semantics:
//
//   - Baseline: PMEM memory mode, no persistence machinery (the normalizing
//     denominator of Figures 8-19).
//   - PPA: dynamic PRF-bounded regions, MaskReg store integrity, CSQ,
//     asynchronous store persistence through the L1D write buffer.
//   - ReplayCache: compiler-formed short regions (~12 instructions) with a
//     clwb after every store that occupies a store-queue entry until the
//     persist acknowledges (Section 2.4, Figure 1).
//   - Capri: compiler/hardware regions (~29 instructions) persisting stores
//     through a dedicated battery-backed redo buffer with its own persist
//     path (Section 8, Figure 8).
//   - EADR (BBB): ideal partial-system persistence in app-direct mode — no
//     DRAM cache, stores durable for free (Figure 10).
//   - DRAMOnly: conventional volatile DRAM system (Figure 9 reference).
package persist

import (
	"fmt"

	"ppa/internal/nvm"
)

// Kind enumerates the schemes.
type Kind int

const (
	Baseline Kind = iota
	PPA
	ReplayCache
	Capri
	EADR
	DRAMOnly
	// SBGate is Section 6's rejected alternative: retired stores are gated
	// in the store buffer (not merged into L1D) until the region persists.
	// Implemented to quantify the paper's argument against it.
	SBGate
	// UndoLog is an undo-logging transaction scheme (ROADMAP item 3,
	// Marathe et al.): each committed store writes its pre-image to a
	// durable per-core log before persisting in place; a crash rolls the
	// image back to the last region-commit marker.
	UndoLog
	// RedoTxn is a Marathe-style redo-logging transaction scheme: stores
	// gate in the store buffer, their new values append to the durable log,
	// and the log replays into the NVM image lazily after the region's
	// commit marker — commit is cheap, replay is background work.
	RedoTxn
	// HTPM is Giles-style hardware-transactional persistent memory: stores
	// buffer in a volatile hardware transaction log that flushes to the
	// durable back-end log at transaction commit, before the data burst.
	HTPM
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case PPA:
		return "ppa"
	case ReplayCache:
		return "replaycache"
	case Capri:
		return "capri"
	case EADR:
		return "eadr"
	case DRAMOnly:
		return "dram-only"
	case SBGate:
		return "sb-gate"
	case UndoLog:
		return "undolog"
	case RedoTxn:
		return "redotxn"
	case HTPM:
		return "htpm"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// BarrierModel selects how a region boundary interacts with the pipeline.
type BarrierModel int

const (
	// BarrierNone: no region boundaries (Baseline, EADR, DRAMOnly).
	BarrierNone BarrierModel = iota
	// BarrierRelaxed: the boundary waits until every persist enqueued up
	// to the boundary snapshot is durable; commit (for rename-side
	// boundaries) or rename (for commit-side ones) keeps flowing meanwhile
	// (PPA's dynamic boundary, ReplayCache's sfence).
	BarrierRelaxed
	// BarrierStoreGate: a commit-side boundary that waits for the
	// dedicated persist path's durability acknowledgment plus a fixed
	// bookkeeping bubble (Capri's battery-backed redo path).
	BarrierStoreGate
	// BarrierFullDrain: the boundary additionally drains the ROB before
	// the region may close — a full persist fence (PPA's StrictBarrier
	// ablation).
	BarrierFullDrain
)

// Config is a fully specified scheme.
type Config struct {
	Kind    Kind
	Barrier BarrierModel

	// DynamicRegions enables PPA's PRF-exhaustion region formation.
	DynamicRegions bool
	// FixedRegionLen forms a region boundary every N renamed instructions
	// (ReplayCache ~12, Capri ~29); 0 disables.
	FixedRegionLen int
	// BoundaryBubble is the fixed rename bubble charged at a
	// BarrierStoreGate boundary (Capri's region bookkeeping).
	BoundaryBubble int

	// CSQEntries sizes the committed store queue (Table 2: 40). 0 disables
	// the CSQ (schemes other than PPA).
	CSQEntries int
	// MaskAllOperands masks every store operand register instead of only
	// the data register (the footnote-10 ablation).
	MaskAllOperands bool
	// ValueCSQ stores data values in the CSQ instead of PRF indexes (the
	// Section 6 in-order-core variant).
	ValueCSQ bool
	// SyncStorePersist is the no-async-writeback ablation: a committed
	// store stalls commit until its persist is accepted.
	SyncStorePersist bool
	// EagerFlush starts flushing the write buffer when the CSQ is
	// three-quarters full, hiding the boundary tail — an extension beyond
	// the paper's design, off by default.
	EagerFlush bool
	// GateStoreBuffer holds retired stores in the store buffer — neither
	// merged into L1D nor written back — until the region boundary, where
	// they flush and persist in one burst (the Section 6 alternative).
	// Requires a value-bearing CSQ (the gated data is the recovery log).
	GateStoreBuffer bool

	// AsyncPersist routes committed stores through the L1D write buffer to
	// the WPQ (PPA and ReplayCache's clwb path).
	AsyncPersist bool
	// ClwbPerStore models ReplayCache's clwb: each store occupies an extra
	// rename slot and holds its store-queue entry until the persist is
	// accepted.
	ClwbPerStore bool

	// UseRedoPath routes committed stores through a dedicated
	// battery-backed redo buffer (Capri).
	UseRedoPath bool
	// RedoBufBytes is the per-core redo buffer capacity (Capri: 54 KB).
	RedoBufBytes int
	// RedoDrainCycles is the shared persist path's drain time for one
	// 8-byte redo entry, encoding its bandwidth (4 GB/s at 2 GHz = 4).
	RedoDrainCycles int

	// UndoLogStores writes each committed store's pre-image to the durable
	// per-core persist log before the in-place persist (UndoLog). Requires
	// the async persist path for the in-place updates and commit-side
	// (fixed/sync) boundaries so the region-commit marker is exact.
	UndoLogStores bool
	// RedoLogStores appends each committed store's new value to the durable
	// per-core persist log; the image learns the values from log replay
	// authorized at the region-commit marker (RedoTxn, HTPM). Requires
	// store-buffer gating: uncommitted transaction data must never reach
	// the caches or the image.
	RedoLogStores bool
	// LogFlushAtBoundary stages log records in a volatile hardware
	// transaction buffer and flushes them to the durable log only at the
	// region boundary (HTPM's back-end log flush on transaction commit).
	LogFlushAtBoundary bool
	// LogBufBytes is the per-core persist-log buffer capacity bounding
	// outstanding (unreplayed or unflushed) records.
	LogBufBytes int
	// LogDrainCycles is the shared log path's drain time for one 8-byte
	// record, encoding its bandwidth.
	LogDrainCycles int

	// SyncIsBoundary makes synchronization primitives region boundaries
	// (Section 6; always true for PPA).
	SyncIsBoundary bool
}

// PPADefault returns the paper's PPA configuration (Table 2).
func PPADefault() Config {
	return Config{
		Kind:           PPA,
		Barrier:        BarrierRelaxed,
		DynamicRegions: true,
		CSQEntries:     40,
		AsyncPersist:   true,
		SyncIsBoundary: true,
	}
}

// BaselineDefault returns the memory-mode baseline.
func BaselineDefault() Config { return Config{Kind: Baseline, Barrier: BarrierNone} }

// ReplayCacheDefault returns the ReplayCache configuration: compiler-formed
// ~12-instruction regions, clwb per store, full persist fences.
func ReplayCacheDefault() Config {
	return Config{
		Kind:           ReplayCache,
		Barrier:        BarrierRelaxed,
		FixedRegionLen: 12,
		AsyncPersist:   true,
		ClwbPerStore:   true,
		SyncIsBoundary: true,
	}
}

// CapriDefault returns the Capri configuration: ~29-instruction regions, a
// 54 KB battery-backed redo buffer per core draining at 4 GB/s.
func CapriDefault() Config {
	return Config{
		Kind:            Capri,
		Barrier:         BarrierStoreGate,
		FixedRegionLen:  29,
		BoundaryBubble:  12, // persist-path round trip for the drain ack
		UseRedoPath:     true,
		RedoBufBytes:    54 << 10,
		RedoDrainCycles: 4,
		SyncIsBoundary:  true,
	}
}

// EADRDefault returns the ideal PSP (eADR/BBB) configuration.
func EADRDefault() Config { return Config{Kind: EADR, Barrier: BarrierNone} }

// SBGateDefault returns the store-buffer-gating alternative: the 56-entry
// store buffer is the recovery log (value-bearing entries); a full buffer
// is the region boundary, where all gated stores merge into L1D and
// persist in one burst.
func SBGateDefault() Config {
	return Config{
		Kind:            SBGate,
		Barrier:         BarrierRelaxed,
		CSQEntries:      56, // the SB itself
		ValueCSQ:        true,
		GateStoreBuffer: true,
		AsyncPersist:    true,
		SyncIsBoundary:  true,
	}
}

// DRAMOnlyDefault returns the volatile DRAM system configuration.
func DRAMOnlyDefault() Config { return Config{Kind: DRAMOnly, Barrier: BarrierNone} }

// UndoLogDefault returns the undo-logging transaction configuration:
// fixed ~64-instruction regions, in-place async persistence, and a 32 KB
// per-core write-ahead undo log draining at 8 bytes per 2 cycles.
func UndoLogDefault() Config {
	return Config{
		Kind:           UndoLog,
		Barrier:        BarrierRelaxed,
		FixedRegionLen: 64,
		AsyncPersist:   true,
		UndoLogStores:  true,
		LogBufBytes:    32 << 10,
		LogDrainCycles: 2,
		SyncIsBoundary: true,
	}
}

// RedoTxnDefault returns the redo-logging transaction configuration:
// fixed ~48-instruction regions whose stores gate in the store buffer,
// append to a 32 KB per-core durable redo log at commit, and replay into
// the image lazily after the region's commit marker.
func RedoTxnDefault() Config {
	return Config{
		Kind:            RedoTxn,
		Barrier:         BarrierRelaxed,
		FixedRegionLen:  48,
		CSQEntries:      64,
		ValueCSQ:        true,
		GateStoreBuffer: true,
		RedoLogStores:   true,
		LogBufBytes:     32 << 10,
		LogDrainCycles:  8,
		SyncIsBoundary:  true,
	}
}

// HTPMDefault returns the hardware-transactional persistence
// configuration: stores buffer in a volatile hardware transaction log that
// flushes to the durable back-end log at region commit, ahead of the data
// burst through the async persist path.
func HTPMDefault() Config {
	return Config{
		Kind:               HTPM,
		Barrier:            BarrierRelaxed,
		FixedRegionLen:     64,
		CSQEntries:         80,
		ValueCSQ:           true,
		GateStoreBuffer:    true,
		AsyncPersist:       true,
		RedoLogStores:      true,
		LogFlushAtBoundary: true,
		LogBufBytes:        32 << 10,
		LogDrainCycles:     4,
		SyncIsBoundary:     true,
	}
}

// Persistent reports whether the scheme provides whole-system persistence
// with crash consistency.
func (c Config) Persistent() bool {
	switch c.Kind {
	case PPA, ReplayCache, Capri, SBGate, UndoLog, RedoTxn, HTPM:
		return true
	case EADR:
		return true // persistent for its app-direct data, but PSP-scoped
	default:
		return false
	}
}

// NeedsBackend reports whether the scheme persists committed stores
// through a dedicated backend (Capri's redo buffer, the log schemes' log
// path), without which a core cannot be built.
func (c Config) NeedsBackend() bool { return c.UseRedoPath || c.UndoLogStores || c.RedoLogStores }

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	if c.DynamicRegions && c.FixedRegionLen > 0 {
		return fmt.Errorf("persist: dynamic and fixed regions are mutually exclusive")
	}
	if c.Kind == PPA && c.CSQEntries <= 0 {
		return fmt.Errorf("persist: PPA requires a CSQ")
	}
	if c.UseRedoPath && c.RedoBufBytes <= 0 {
		return fmt.Errorf("persist: redo path requires a buffer size")
	}
	if c.AsyncPersist && c.UseRedoPath {
		return fmt.Errorf("persist: choose one persist path")
	}
	if c.Barrier == BarrierStoreGate && !c.UseRedoPath {
		return fmt.Errorf("persist: the store-gate barrier waits on the redo path")
	}
	if c.GateStoreBuffer && (!c.ValueCSQ || c.CSQEntries <= 0) {
		return fmt.Errorf("persist: store-buffer gating holds its stores in a value-bearing CSQ")
	}
	if c.GateStoreBuffer && !c.AsyncPersist && !c.RedoLogStores {
		return fmt.Errorf("persist: store-buffer gating flushes through the async persist path")
	}
	if c.UndoLogStores && c.RedoLogStores {
		return fmt.Errorf("persist: choose one log discipline")
	}
	if (c.UndoLogStores || c.RedoLogStores) && c.LogBufBytes <= 0 {
		return fmt.Errorf("persist: persist log requires a buffer size")
	}
	if c.LogFlushAtBoundary && !c.RedoLogStores {
		return fmt.Errorf("persist: boundary log flush requires redo logging")
	}
	if c.UndoLogStores && !c.AsyncPersist {
		return fmt.Errorf("persist: undo logging persists stores in place through the async path")
	}
	if c.UndoLogStores && c.GateStoreBuffer {
		return fmt.Errorf("persist: undo logging updates in place; store gating contradicts it")
	}
	if c.UndoLogStores && c.DynamicRegions {
		return fmt.Errorf("persist: undo logging requires commit-side (fixed or sync) boundaries")
	}
	if c.RedoLogStores && !c.GateStoreBuffer {
		return fmt.Errorf("persist: redo logging gates stores until the commit marker")
	}
	return nil
}

// RedoPath is Capri's battery-backed redo buffer: a LogPath in
// LogModeBattery, with per-core 54 KB buffers feeding one shared persist
// path at a realistic 4 GB/s. A store is durable at accept, but Capri's
// region barrier stalls the next region until the core's entries drain —
// the cost the paper attributes to Capri's 11x-shorter regions. The named
// type lets callers tell Capri's backend from the log schemes'.
type RedoPath struct{ LogPath }

// NewRedoPath builds the redo buffers for n cores: bufBytes of buffer per
// core, one shared path draining an 8-byte entry every drainCycles.
func NewRedoPath(cores, bufBytes, drainCycles int, dev *nvm.Device) *RedoPath {
	return &RedoPath{*NewLogPath(cores, bufBytes, drainCycles, LogModeBattery, dev)}
}
