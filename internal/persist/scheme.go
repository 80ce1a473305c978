package persist

// This file is the pluggable PersistScheme interface: everything the rest
// of the machine used to decide with scattered flag and Kind conditionals
// — hierarchy tuning, persist-backend construction, crash-time flushing,
// which checks the durable image admits, and how recovery reconstructs it —
// asked of the scheme itself; how a store retires is its Config's Retire.
// SchemeFor is the single dispatch point from Kind to implementation.
// Adding a scheme means adding a Kind, a default Config, and its answers
// here; the lockstep, torture, mutation and litmus gates pick it up
// through the interface.

import "ppa/internal/nvm"

// MemoryMode selects the cache hierarchy's memory organization without
// importing the cache package (which sits above persist in the dependency
// order).
type MemoryMode int

const (
	// MemDefault is PMEM memory mode: DRAM cache in front of NVM.
	MemDefault MemoryMode = iota
	// MemDRAMOnly is the conventional volatile DRAM system.
	MemDRAMOnly
	// MemAppDirect removes the DRAM cache (eADR/BBB app-direct mode).
	MemAppDirect
)

// HierarchyTuning is the scheme's memory-system configuration: the machine
// assembler maps it onto cache.Params.
type HierarchyTuning struct {
	// Mode is the memory organization.
	Mode MemoryMode
	// SlowPersistAck routes persists down the whole hierarchy instead of
	// the direct non-temporal writeback path (ReplayCache's clwb): slow
	// acknowledgment, no coalescing window, per-line write amplification.
	SlowPersistAck bool
}

// RecoveryContract names what the scheme's durable state guarantees after
// a power failure — which checks the crash harnesses may demand of it.
type RecoveryContract int

const (
	// RecoverNone: recovery converges but the image carries no
	// committed-prefix guarantee (Baseline, DRAMOnly, ReplayCache).
	RecoverNone RecoveryContract = iota
	// RecoverCommittedPrefix: after checkpoint replay the image equals the
	// golden memory at each core's committed-instruction count (PPA,
	// SBGate, Capri, EADR).
	RecoverCommittedPrefix
	// RecoverTxnBoundary: after log recovery the image equals the golden
	// memory at each core's last region-commit marker (UndoLog, RedoTxn,
	// HTPM); committed instructions past the marker roll back or replay
	// away.
	RecoverTxnBoundary
)

func (r RecoveryContract) String() string {
	switch r {
	case RecoverCommittedPrefix:
		return "committed-prefix"
	case RecoverTxnBoundary:
		return "txn-boundary"
	default:
		return "none"
	}
}

// Backend is a scheme's dedicated persist machinery beyond the cache
// hierarchy's write path: the log path implements it, in Capri's battery
// mode (RedoPath) or one of the transaction schemes' log disciplines. The
// machine ticks it every cycle and fails it on power loss; the pipeline
// offers committed stores.
type Backend interface {
	// TryAccept offers one committed store (word-aligned address and the
	// scheme's logged value); false means the backend is full and commit
	// must stall.
	TryAccept(core int, addr, val uint64) bool
	// PendingOf returns a core's outstanding (undrained) entry count.
	PendingOf(core int) int
	// Tick drains the backend's shared path at its bandwidth.
	Tick(cycle uint64)
	// NextEvent reports the earliest cycle, no earlier than cycle, at which
	// Tick may change the backend; math.MaxUint64 means never. An idle
	// Tick counts nothing; a core stalled on a full backend charges the
	// refusals of the cycles it skips itself.
	NextEvent(cycle uint64) uint64
	// PowerFail models the outage: volatile backend state is lost,
	// battery-backed or durable state survives.
	PowerFail()
	// Reset returns the backend to the state NewBackend builds over its
	// device, keeping its storage.
	Reset()
}

// Scheme is the pluggable persistence scheme: region formation policy and
// barrier semantics live in the Config it wraps; the interface carries the
// behaviour the machine, the crash harnesses, and the verifiers dispatch
// on.
type Scheme interface {
	// Kind identifies the scheme.
	Kind() Kind
	// Config returns the scheme's full knob set.
	Config() Config
	// Tuning returns the scheme's memory-system configuration.
	Tuning() HierarchyTuning
	// NewBackend builds the scheme's dedicated persist machinery, or nil
	// when the cache hierarchy's write path is the whole persist path.
	NewBackend(cores int, dev *nvm.Device) Backend
	// FlushOnFailure reports whether power failure flushes the volatile
	// hierarchy to NVM on residual energy (eADR/BBB).
	FlushOnFailure() bool
	// ImageFromAcceptStream reports whether the WPQ accept stream is the
	// durable image's only write path during a run — the precondition for
	// the oracle's end-of-run image cross-check.
	ImageFromAcceptStream() bool
	// VerifiesArchState reports whether recovered committed register state
	// can be checked against the golden model (PPA's PRF-indexed CSQ).
	VerifiesArchState() bool
	// Contract names the scheme's post-crash guarantee.
	Contract() RecoveryContract
	// Recover reconstructs the durable image from the scheme's own durable
	// state (the persist logs) and returns each core's recovery point in
	// committed instructions. Schemes without log recovery return nil.
	Recover(dev *nvm.Device, cores int) ([]int, error)
}

// base supplies the common-case answers; per-kind schemes embed it and
// override what differs.
type base struct{ cfg Config }

func (b base) Kind() Kind     { return b.cfg.Kind }
func (b base) Config() Config { return b.cfg }
func (b base) Tuning() HierarchyTuning {
	return HierarchyTuning{SlowPersistAck: b.cfg.Retire() == RetireClwb}
}
func (b base) NewBackend(cores int, dev *nvm.Device) Backend     { return nil }
func (b base) FlushOnFailure() bool                              { return false }
func (b base) ImageFromAcceptStream() bool                       { return b.cfg.Retire().WriteBuffer() }
func (b base) VerifiesArchState() bool                           { return false }
func (b base) Contract() RecoveryContract                        { return RecoverNone }
func (b base) Recover(dev *nvm.Device, cores int) ([]int, error) { return nil, nil }

type dramOnlyScheme struct{ base }

func (dramOnlyScheme) Tuning() HierarchyTuning { return HierarchyTuning{Mode: MemDRAMOnly} }

type eadrScheme struct{ base }

func (eadrScheme) Tuning() HierarchyTuning    { return HierarchyTuning{Mode: MemAppDirect} }
func (eadrScheme) FlushOnFailure() bool       { return true }
func (eadrScheme) Contract() RecoveryContract { return RecoverCommittedPrefix }

type ppaScheme struct{ base }

func (p ppaScheme) VerifiesArchState() bool  { return !p.cfg.ValueCSQ }
func (ppaScheme) Contract() RecoveryContract { return RecoverCommittedPrefix }

type sbGateScheme struct{ base }

func (sbGateScheme) Contract() RecoveryContract { return RecoverCommittedPrefix }

type capriScheme struct{ base }

func (c capriScheme) NewBackend(cores int, dev *nvm.Device) Backend {
	return NewRedoPath(cores, c.cfg.RedoBufBytes, c.cfg.RedoDrainCycles, dev)
}
func (capriScheme) Contract() RecoveryContract { return RecoverCommittedPrefix }

// logScheme is the transaction schemes (undolog, redotxn, htpm): a log
// path in the scheme's discipline, recovered to the last commit marker.
type logScheme struct {
	base
	mode LogMode
}

func (l logScheme) NewBackend(cores int, dev *nvm.Device) Backend {
	return NewLogPath(cores, l.cfg.LogBufBytes, l.cfg.LogDrainCycles, l.mode, dev)
}
func (logScheme) Contract() RecoveryContract { return RecoverTxnBoundary }
func (l logScheme) Recover(dev *nvm.Device, cores int) ([]int, error) {
	return RecoverLog(l.cfg, dev, cores)
}

// SchemeFor wraps a validated Config in its Kind's Scheme implementation.
func SchemeFor(cfg Config) Scheme {
	b := base{cfg: cfg}
	switch cfg.Kind {
	case PPA:
		return ppaScheme{b}
	case Capri:
		return capriScheme{b}
	case EADR:
		return eadrScheme{b}
	case DRAMOnly:
		return dramOnlyScheme{b}
	case SBGate:
		return sbGateScheme{b}
	case UndoLog:
		return logScheme{b, LogModeUndo}
	case RedoTxn:
		return logScheme{b, LogModeRedo}
	case HTPM:
		return logScheme{b, LogModeStaged}
	default: // baseline and replaycache take base's answers
		return b
	}
}
