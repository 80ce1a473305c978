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
	"errors"
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

	// The retire flags say how a committed store leaves the core; only the
	// retire derivation (Retire, AsyncAblations, Validate) reads them.
	// SyncStorePersist, an ablation of RetireAsync: commit waits for each
	// store's persist to be accepted.
	SyncStorePersist bool
	// EagerFlush, an ablation of RetireAsync beyond the paper (off by
	// default): the write buffer flushes once the CSQ is 3/4 full.
	EagerFlush bool
	// GateStoreBuffer holds retired stores in the store buffer — neither
	// merged into L1D nor written back — until the region boundary, where
	// they retire in one burst (RetireGated, RetireGatedLog). Requires a
	// value-bearing CSQ (the gated data is the recovery log).
	GateStoreBuffer bool
	// AsyncPersist routes committed stores through the L1D write buffer to
	// the WPQ (RetireAsync, RetireClwb, RetireGated).
	AsyncPersist bool
	// ClwbPerStore adds ReplayCache's clwb (RetireClwb): an extra rename
	// slot, and the store-queue entry held until the persist is accepted.
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
	// RetireAsync for the in-place updates and commit-side (fixed/sync)
	// boundaries so the region-commit marker is exact.
	UndoLogStores bool
	// RedoLogStores appends each committed store's new value to the durable
	// per-core persist log; the image learns the values from log replay
	// authorized at the region-commit marker (RedoTxn, HTPM). It is a retire
	// flag too: uncommitted transaction data must stay gated.
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

// Retire is how a committed store leaves the core (Config.Retire).
type Retire int

const (
	RetireMerge    Retire = iota // merge into L1D only (baseline, dram-only, eadr, capri)
	RetireAsync                  // persist through the L1D write buffer, then merge (ppa, undolog)
	RetireClwb                   // RetireAsync, the SQ entry held until the persist ack (replaycache)
	RetireGated                  // gated until the boundary, then a write-buffer burst (sb-gate, htpm)
	RetireGatedLog               // gated, then a merge-only burst; log replay persists (redotxn)
)

// WriteBuffer reports whether stores persist through the L1D write buffer.
func (r Retire) WriteBuffer() bool { return r != RetireMerge && r != RetireGatedLog }

// Retire derives the store-retire policy from the retire flags; Validate
// rejects every combination no policy describes.
func (c Config) Retire() Retire {
	switch {
	case c.GateStoreBuffer && c.AsyncPersist:
		return RetireGated
	case c.GateStoreBuffer:
		return RetireGatedLog
	case c.ClwbPerStore && c.AsyncPersist:
		return RetireClwb
	case c.AsyncPersist:
		return RetireAsync
	}
	return RetireMerge
}

// AsyncAblations returns RetireAsync's two ablations: SyncStorePersist, EagerFlush.
func (c Config) AsyncAblations() (bool, bool) { return c.SyncStorePersist, c.EagerFlush }

// Validate reports configuration inconsistencies, among them retire flags
// that no Retire value describes.
func (c Config) Validate() error {
	r := c.Retire()
	var bad string
	switch {
	case c.DynamicRegions && c.FixedRegionLen > 0:
		bad = "dynamic and fixed regions are mutually exclusive"
	case c.Kind == PPA && c.CSQEntries <= 0:
		bad = "PPA requires a CSQ"
	case c.UseRedoPath && c.RedoBufBytes <= 0:
		bad = "redo path requires a buffer size"
	case c.UseRedoPath && r != RetireMerge:
		bad = "choose one persist path"
	case c.Barrier == BarrierStoreGate && !c.UseRedoPath:
		bad = "the store-gate barrier waits on the redo path"
	case (r == RetireGated || r == RetireGatedLog) && (!c.ValueCSQ || c.CSQEntries <= 0):
		bad = "store-buffer gating holds its stores in a value-bearing CSQ"
	case r == RetireGatedLog && !c.RedoLogStores:
		bad = "store-buffer gating flushes through the async persist path"
	case c.ClwbPerStore && r != RetireClwb:
		bad = "a clwb per store retires ungated through the async persist path"
	case (c.SyncStorePersist || c.EagerFlush) && r != RetireAsync:
		bad = "sync-persist and eager-flush are ablations of async retire only"
	case c.UndoLogStores && c.RedoLogStores:
		bad = "choose one log discipline"
	case (c.UndoLogStores || c.RedoLogStores) && c.LogBufBytes <= 0:
		bad = "persist log requires a buffer size"
	case c.LogFlushAtBoundary && !c.RedoLogStores:
		bad = "boundary log flush requires redo logging"
	case c.UndoLogStores && r != RetireAsync:
		bad = "undo logging persists stores in place through the async path"
	case c.UndoLogStores && c.DynamicRegions:
		bad = "undo logging requires commit-side (fixed or sync) boundaries"
	case c.RedoLogStores && r != RetireGated && r != RetireGatedLog:
		bad = "redo logging gates stores until the commit marker"
	default:
		return nil
	}
	return errors.New("persist: " + bad)
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
