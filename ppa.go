// Package ppa is the public API of the Persistent Processor Architecture
// reproduction: a cycle-level multi-core simulator with PPA's
// store-integrity hardware (MaskReg, CSQ, LCPC, dynamic region formation,
// asynchronous store persistence, JIT checkpointing and recovery), the
// paper's comparison schemes (memory-mode baseline, ReplayCache, Capri,
// ideal PSP/eADR, DRAM-only), the 41-application workload suite, and the
// experiment harness that regenerates every table and figure of the
// MICRO '23 evaluation.
//
// Quick start:
//
//	res, err := ppa.Run(ppa.RunConfig{App: "mcf", Scheme: ppa.SchemePPA})
//	fmt.Println(res.Cycles, res.IPC())
//
// Crash consistency:
//
//	out, err := ppa.RunWithFailure(ppa.RunConfig{App: "mcf", Scheme: ppa.SchemePPA}, 50_000)
//	// out.Consistent reports whether recovered NVM matches the committed prefix.
package ppa

import (
	"fmt"
	"io"

	"ppa/internal/cache"
	"ppa/internal/forensics"
	"ppa/internal/multicore"
	"ppa/internal/nvm"
	"ppa/internal/obs"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// Scheme names a persistence scheme.
type Scheme string

// The available schemes.
const (
	SchemeBaseline    Scheme = "baseline"
	SchemePPA         Scheme = "ppa"
	SchemeReplayCache Scheme = "replaycache"
	SchemeCapri       Scheme = "capri"
	SchemeEADR        Scheme = "eadr"
	SchemeDRAMOnly    Scheme = "dram-only"
	// SchemeSBGate is the Section 6 store-buffer-gating alternative PPA
	// rejects; included to quantify that design discussion.
	SchemeSBGate Scheme = "sb-gate"
	// SchemeUndoLog is a software-flavored undo-logging scheme: pre-images
	// are made durable in a per-core NVM log before stores persist in place,
	// and recovery rolls uncommitted regions back to the last region-commit
	// marker.
	SchemeUndoLog Scheme = "undolog"
	// SchemeRedoTxn is a redo-logging transaction scheme in the WrAP/Marathe
	// style: stores gate in the store buffer, commit appends redo records,
	// the region-commit marker authorizes lazy replay into the image, and
	// recovery replays authorized regions only.
	SchemeRedoTxn Scheme = "redotxn"
	// SchemeHTPM is a hardware-transactional persistence scheme in the
	// Giles/HTPM style: redo records stage in a volatile back-end buffer and
	// flush to the durable log at region commit, before the marker seals the
	// region.
	SchemeHTPM Scheme = "htpm"
)

// Schemes lists every scheme name.
func Schemes() []Scheme {
	return []Scheme{SchemeBaseline, SchemePPA, SchemeReplayCache, SchemeCapri,
		SchemeEADR, SchemeDRAMOnly, SchemeSBGate,
		SchemeUndoLog, SchemeRedoTxn, SchemeHTPM}
}

// SchemeConfig resolves a scheme name to its full configuration.
func SchemeConfig(s Scheme) (persist.Config, error) {
	switch s {
	case SchemeBaseline:
		return persist.BaselineDefault(), nil
	case SchemePPA:
		return persist.PPADefault(), nil
	case SchemeReplayCache:
		return persist.ReplayCacheDefault(), nil
	case SchemeCapri:
		return persist.CapriDefault(), nil
	case SchemeEADR:
		return persist.EADRDefault(), nil
	case SchemeDRAMOnly:
		return persist.DRAMOnlyDefault(), nil
	case SchemeSBGate:
		return persist.SBGateDefault(), nil
	case SchemeUndoLog:
		return persist.UndoLogDefault(), nil
	case SchemeRedoTxn:
		return persist.RedoTxnDefault(), nil
	case SchemeHTPM:
		return persist.HTPMDefault(), nil
	default:
		return persist.Config{}, fmt.Errorf("ppa: unknown scheme %q", s)
	}
}

// RunConfig describes one simulation.
type RunConfig struct {
	// App is a workload name from Apps(); Profile overrides it if set.
	App string
	// Profile directly supplies a workload profile (optional).
	Profile *workload.Profile
	// Scheme selects the persistence scheme (default SchemePPA).
	Scheme Scheme
	// SchemeOverride, when non-nil, bypasses Scheme resolution entirely
	// (for ablations).
	SchemeOverride *persist.Config
	// InstsPerThread is the dynamic instruction count per hardware thread
	// (default 60000).
	InstsPerThread int
	// Customize, when non-nil, edits the assembled machine configuration
	// (PRF size, CSQ depth, NVM bandwidth, cache organization, ...).
	Customize func(*multicore.Config)
	// SampleFreeRegs enables per-cycle free-register CDFs (Figure 5).
	SampleFreeRegs bool
	// Obs attaches an observability hub (event tracing + metrics) to the
	// machine. When nil, the package-level DefaultObs applies (which is
	// itself nil unless a tool installed one); a nil hub disables
	// instrumentation entirely.
	Obs *obs.Hub
	// Lockstep attaches the differential oracle (internal/oracle): every
	// committed instruction is cross-checked against an ISA-level golden
	// model and the NVM accept stream against PPA's persist-ordering
	// invariants. A divergence surfaces as an *OracleError from the run.
	Lockstep bool
	// Forensics attaches the violation flight recorder: when a torture
	// point violates the crash-consistency contract or the lockstep oracle
	// diverges, a correlated evidence bundle (trace tail, metrics
	// snapshot, NVM accept-stream tail, divergence report) is captured at
	// the instant of the failure. Build one with NewForensicsRecorder.
	Forensics *forensics.Recorder
}

// DefaultObs, when non-nil, is attached to every system NewSystem builds
// whose RunConfig does not carry its own hub. The experiment harness
// (FigXX functions, ppabench) assembles machines internally; installing a
// hub here is how tools trace those runs without threading a hub through
// every call site. Sequential runs share the hub: trace events interleave
// (distinguish by cycle restarts) and counters accumulate.
var DefaultObs *obs.Hub

// DefaultInsts is the default per-thread dynamic instruction count.
const DefaultInsts = 60_000

// NewObsHub builds an observability hub (metrics registry + event tracer)
// for RunConfig.Obs or DefaultObs. traceCapacity bounds the trace ring
// buffer in events; <= 0 selects the default (2^20 events, keeping the most
// recent window). The ring grows on demand up to that bound instead of
// being allocated up front. The hub lives in an internal package, so this constructor
// and the Write* helpers below are the public handle: callers hold the
// returned value opaquely and chain its methods.
func NewObsHub(traceCapacity int) *obs.Hub {
	return obs.NewHub(traceCapacity)
}

// WriteChromeTrace renders a hub's recorded events as a Chrome trace_event
// JSON document (open in chrome://tracing or Perfetto). A nil hub writes an
// empty trace.
func WriteChromeTrace(w io.Writer, hub *obs.Hub) error {
	return obs.WriteChromeTrace(w, hub.Tracer().Events())
}

// WriteMetricsJSONL writes a hub's metrics registry snapshot as JSON Lines,
// one sample per line, sorted by name. A nil hub writes nothing.
func WriteMetricsJSONL(w io.Writer, hub *obs.Hub) error {
	return hub.Registry().WriteJSONL(w)
}

// ServeObs exposes the hub live over HTTP at addr: /metrics (Prometheus
// text exposition with p50/p95/p99 summary quantiles), /snapshot.json
// (metric samples), and /trace (recent ring events as JSON Lines). Serving
// concurrently with a running simulation is race-free — gauge functions,
// the one unsynchronized read, are excluded unless a request passes
// ?gauges=1 (safe only once the run is quiescent). A nil hub serves 503s.
// Close the returned server to release the listener.
func ServeObs(addr string, hub *obs.Hub) (*obs.Server, error) {
	return obs.Serve(addr, hub)
}

// ForensicsRecorder is the violation flight recorder for RunConfig.Forensics
// (see internal/forensics): it keeps the first few violation bundles of a
// run and optionally writes each to disk as it is captured.
type ForensicsRecorder = forensics.Recorder

// NewForensicsRecorder builds a flight recorder keeping at most max bundles
// (a small default when max <= 0). When dir is non-empty every kept bundle
// is also written there as a CRC-framed .ppab artifact, renderable with
// `ppareport forensics <file>`.
func NewForensicsRecorder(dir string, max int) *ForensicsRecorder {
	return forensics.NewRecorder(dir, max)
}

func (rc RunConfig) resolve() (workload.Profile, persist.Config, int, error) {
	var prof workload.Profile
	if rc.Profile != nil {
		prof = *rc.Profile
	} else {
		name := rc.App
		if name == "" {
			return prof, persist.Config{}, 0, fmt.Errorf("ppa: RunConfig needs App or Profile")
		}
		p, err := workload.ByName(name)
		if err != nil {
			return prof, persist.Config{}, 0, err
		}
		prof = p
	}
	var sch persist.Config
	if rc.SchemeOverride != nil {
		sch = *rc.SchemeOverride
	} else {
		s := rc.Scheme
		if s == "" {
			s = SchemePPA
		}
		cfg, err := SchemeConfig(s)
		if err != nil {
			return prof, persist.Config{}, 0, err
		}
		sch = cfg
	}
	return prof, sch, rc.insts(), nil
}

// insts is the run's per-thread dynamic instruction count.
func (rc RunConfig) insts() int {
	if rc.InstsPerThread <= 0 {
		return DefaultInsts
	}
	return rc.InstsPerThread
}

// hub is the run's observability hub: its own, else DefaultObs.
func (rc RunConfig) hub() *obs.Hub {
	if rc.Obs != nil {
		return rc.Obs
	}
	return DefaultObs
}

// machineConfig is machine assembly's config step: the Table 2 machine for
// n cores under sch, with the run's knobs and Customize hook applied.
func (rc RunConfig) machineConfig(n int, sch persist.Config) multicore.Config {
	cfg := multicore.DefaultConfig(n, sch)
	cfg.Pipeline.SampleFreeRegs = rc.SampleFreeRegs
	cfg.Lockstep = rc.Lockstep
	cfg.Obs = rc.hub()
	if rc.Customize != nil {
		rc.Customize(&cfg)
	}
	return cfg
}

// assemble is the one machine assembly: it resolves rc into the workload
// and the configuration of the machine that runs it. Full, sampled,
// crashed and resumed runs all build their machines from it. A non-nil w
// is rc's workload, generated earlier: a machine only reads its workload,
// so a torture sweep generates it once and shares it across its points.
func assemble(rc RunConfig, w *workload.Workload) (multicore.Config, *workload.Workload, error) {
	prof, sch, insts, err := rc.resolve()
	if err != nil {
		return multicore.Config{}, nil, err
	}
	if w == nil {
		if w, err = workload.New(prof, insts); err != nil {
			return multicore.Config{}, nil, err
		}
	}
	return rc.machineConfig(len(w.Threads), sch), w, nil
}

// Result is the outcome of a completed run.
type Result = multicore.Result

// Apps returns the 41 application names in suite order.
func Apps() []string {
	ps := workload.Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// NewSystem assembles (but does not run) the simulated machine for a
// configuration, for callers that need fine-grained control (crash
// injection, stepping, invariant checks).
func NewSystem(rc RunConfig) (*multicore.System, error) {
	cfg, w, err := assemble(rc, nil)
	if err != nil {
		return nil, err
	}
	return multicore.NewSystem(cfg, w)
}

// Run executes one simulation to completion.
func Run(rc RunConfig) (*Result, error) {
	return run(rc, nil)
}

// run is Run on w, rc's workload generated earlier, or on a workload it
// generates when w is nil.
func run(rc RunConfig, w *workload.Workload) (*Result, error) {
	cfg, w, err := assemble(rc, w)
	if err != nil {
		return nil, err
	}
	sys, err := multicore.NewSystem(cfg, w)
	if err != nil {
		return nil, err
	}
	if err := sys.Run(multicore.CycleBudget(rc.insts())); err != nil {
		return nil, err
	}
	return sys.Collect(), nil
}

// RunWithFailure runs a simulation, cuts power at failCycle, JIT-checkpoints
// (for schemes that support it), recovers, verifies crash consistency, and
// resumes the interrupted programs to completion on the same machine
// configuration; the verdict's Resumed is that run's result. A checkpoint
// that recovery refuses, an untyped recovery error and a lockstep
// divergence surface as the error.
func RunWithFailure(rc RunConfig, failCycle uint64) (*CrashVerdict, error) {
	r := &crashRun{rc: rc}
	v, err := r.cut(TorturePoint{Cycle: failCycle}, true)
	if err != nil {
		return nil, err
	}
	if v.Completed {
		return v, nil
	}
	if v.Detected != nil {
		return nil, v.Detected
	}
	if err := r.sys.Run(multicore.CycleBudget(rc.insts())); err != nil {
		return nil, err
	}
	v.Resumed = r.sys.Collect()
	return v, nil
}

// Expose commonly needed internal types through the public surface.
type (
	// MachineConfig is the full machine configuration (for Customize).
	MachineConfig = multicore.Config
	// HierarchyParams configures the cache hierarchy.
	HierarchyParams = cache.Params
	// NVMConfig configures the NVM device.
	NVMConfig = nvm.Config
	// WorkloadProfile describes a synthetic application.
	WorkloadProfile = workload.Profile
	// PersistConfig is a fully resolved persistence scheme.
	PersistConfig = persist.Config
)
