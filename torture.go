package ppa

import (
	"context"
	"fmt"
	"math/rand"

	"ppa/internal/fault"
	"ppa/internal/obs"
	"ppa/internal/sweep"
	"ppa/internal/workload"
)

// This file implements the crash-consistency torture harness: an
// adversarial sweep over (failure cycle × fault kind × fault parameter)
// that crashes the machine, damages what the crash left behind, and then
// demands that recovery either converge to a consistent committed prefix
// or refuse the damaged checkpoint with a typed error. Anything else —
// silent use of a corrupt image, a spurious refusal of an intact one, a
// committed-prefix word lost — is a violation, shrunk to a minimal
// reproducer for the bug report.

// Fault re-exports the fault model for torture points.
type Fault = fault.Fault

// FaultKind re-exports the fault kind enumeration.
type FaultKind = fault.Kind

// Re-exported fault kinds (see internal/fault for semantics).
const (
	FaultNone           = fault.None
	FaultTornCheckpoint = fault.TornCheckpoint
	FaultNestedOutage   = fault.NestedOutage
	FaultBitFlip        = fault.BitFlip
	FaultTornWord       = fault.TornWord
	FaultDropTail       = fault.DropTail
)

// TorturePoint is one injection experiment: run the workload to Cycle, cut
// power there, apply the fault, and recover.
type TorturePoint struct {
	// Cycle is the power-failure cycle.
	Cycle uint64 `json:"cycle"`
	// Fault is what goes wrong at (or after) the failure.
	Fault Fault `json:"fault"`
	// Depth is how many additional outages strike during recovery itself
	// (NestedOutage only; each re-enters recovery from the top).
	Depth int `json:"depth,omitempty"`
}

// String renders the point compactly for logs.
func (p TorturePoint) String() string {
	if p.Depth > 0 {
		return fmt.Sprintf("cycle=%d %v depth=%d", p.Cycle, p.Fault, p.Depth)
	}
	return fmt.Sprintf("cycle=%d %v", p.Cycle, p.Fault)
}

// TortureOutcome is the verdict of one torture point.
type TortureOutcome struct {
	Point TorturePoint `json:"point"`
	// CompletedBeforeFailure reports the workload finished before Cycle, so
	// no failure struck (the point degenerates to a plain run).
	CompletedBeforeFailure bool `json:"completed_before_failure,omitempty"`
	// Injected reports the fault actually took effect (a torn-checkpoint
	// budget genuinely tore the dump; a byte-level fault changed bytes).
	Injected bool `json:"injected"`
	// Detected reports recovery refused the checkpoint with a typed error.
	Detected bool `json:"detected"`
	// DetectedAs carries the typed error's text when Detected.
	DetectedAs string `json:"detected_as,omitempty"`
	// Recovered reports recovery completed (possibly after nested outages).
	Recovered bool `json:"recovered"`
	// RecoveryAttempts counts entries into the recovery protocol (1 for an
	// undisturbed recovery; +1 per nested outage).
	RecoveryAttempts int `json:"recovery_attempts"`
	// Inconsistencies counts committed-prefix words with wrong NVM values
	// after a successful recovery.
	Inconsistencies int `json:"inconsistencies"`
	// Violation is empty for a pass, else the contract breach.
	Violation string `json:"violation,omitempty"`
}

// TortureReport aggregates a sweep.
type TortureReport struct {
	Points                 int            `json:"points"`
	CompletedBeforeFailure int            `json:"completed_before_failure"`
	Injected               int            `json:"injected"`
	Detected               int            `json:"detected"`
	Recovered              int            `json:"recovered"`
	ByKind                 map[string]int `json:"by_kind"`
	// Violations holds every failing outcome, in sweep order.
	Violations []*TortureOutcome `json:"violations,omitempty"`
}

// TorturePointsChecked generates torture points like TorturePoints but
// rejects an empty failure-cycle range instead of silently widening it.
// CLI-facing callers want this loud path (ppatorture wraps the error as a
// flag error); harness code with known-good constants may keep the clamping
// TorturePoints.
func TorturePointsChecked(seed int64, n int, minCycle, maxCycle uint64) ([]TorturePoint, error) {
	if maxCycle <= minCycle {
		return nil, fmt.Errorf("ppa: torture failure-cycle range [%d, %d) is empty: maxCycle must exceed minCycle", minCycle, maxCycle)
	}
	return TorturePoints(seed, n, minCycle, maxCycle), nil
}

// TorturePoints deterministically generates n torture points from a seed,
// with failure cycles uniform in [minCycle, maxCycle) and the fault kinds
// cycled so every class gets even coverage. An empty cycle range is clamped
// to the single cycle minCycle; use TorturePointsChecked where a silently
// rewritten range would hide a configuration mistake.
func TorturePoints(seed int64, n int, minCycle, maxCycle uint64) []TorturePoint {
	if maxCycle <= minCycle {
		maxCycle = minCycle + 1
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]TorturePoint, 0, n)
	for i := 0; i < n; i++ {
		p := TorturePoint{
			Cycle: minCycle + uint64(rng.Int63n(int64(maxCycle-minCycle))),
			Fault: Fault{
				Kind:  fault.Kinds[i%len(fault.Kinds)],
				Param: uint64(rng.Int63()),
				Seed:  rng.Int63(),
			},
		}
		if p.Fault.Kind == fault.NestedOutage {
			p.Depth = 1 + rng.Intn(3)
		}
		points = append(points, p)
	}
	return points
}

// RunTorturePoint executes one torture point on a fresh machine and
// returns its verdict; the machine does not resume after recovery.
// Simulation-level failures (config errors, model bugs) surface as the
// error; contract breaches, lockstep divergences included, surface in
// Outcome.Violation.
func RunTorturePoint(rc RunConfig, p TorturePoint) (*TortureOutcome, error) {
	return runTorturePoint(rc, nil, p)
}

// runTorturePoint is RunTorturePoint on w, rc's workload generated earlier
// and shared with the sweep's other points, or on a workload of its own
// when w is nil.
func runTorturePoint(rc RunConfig, w *workload.Workload, p TorturePoint) (*TortureOutcome, error) {
	r, err := newCrashRun(rc, w)
	if err != nil {
		return nil, err
	}
	v, err := r.cut(p, false)
	if v == nil {
		return nil, err
	}
	out := &TortureOutcome{
		Point:                  p,
		CompletedBeforeFailure: v.completed,
		Injected:               v.injected,
		Detected:               v.detected != nil,
		Recovered:              v.recovered,
		RecoveryAttempts:       v.attempts,
		Inconsistencies:        v.inconsistencies,
		Violation:              v.violation,
	}
	if v.detected != nil {
		out.DetectedAs = v.detected.Error()
	}
	return out, nil
}

// RunTorture sweeps every point on fresh machines, invoking onPoint (if
// non-nil) after each verdict, and aggregates the report. The workload is
// generated once and shared by every point's machine. Counters
// "torture.points" and "torture.violations" accumulate on the run's hub.
func RunTorture(rc RunConfig, points []TorturePoint, onPoint func(*TortureOutcome)) (*TortureReport, error) {
	hub := rc.hub()
	rep := &TortureReport{ByKind: make(map[string]int)}
	_, w, err := assemble(rc, nil)
	if err != nil {
		return rep, err
	}
	for _, p := range points {
		out, err := runTorturePoint(rc, w, p)
		if err != nil {
			return rep, fmt.Errorf("torture point %v: %w", p, err)
		}
		rep.aggregate(hub, p, out, onPoint)
	}
	return rep, nil
}

// RunTortureParallel is RunTorture over a bounded worker pool. Every point
// runs on a fresh private machine over the sweep's one read-only workload,
// so points parallelize freely; each worker gets its own observability hub
// (RunConfig.Obs must not be shared across goroutines), and verdicts are
// aggregated in point order after the sweep — the report is byte-identical
// to RunTorture's for the same points, and onPoint still fires in sweep
// order. The main hub's "torture.points"
// and "torture.violations" counters tick live as workers finish points (so
// a served /metrics endpoint shows sweep progress), and when the sweep ends
// the per-worker hubs merge into the main hub in creation order — counter
// and histogram merging is commutative, so the merged totals are
// deterministic no matter which worker ran which point. workers <= 0 means
// GOMAXPROCS; workers == 1 is exactly the sequential sweep (including
// rc.Obs use, so trace-carrying hubs keep working). Cancelling ctx abandons
// the sweep.
func RunTortureParallel(ctx context.Context, rc RunConfig, points []TorturePoint, workers int, onPoint func(*TortureOutcome)) (*TortureReport, error) {
	workers = sweep.Workers(workers)
	if workers <= 1 || len(points) <= 1 {
		return RunTorture(rc, points, onPoint)
	}
	_, w, err := assemble(rc, nil)
	if err != nil {
		return &TortureReport{ByKind: make(map[string]int)}, err
	}
	hub := rc.hub()
	whs := make([]*obs.Hub, workers)
	hubs := make(chan *obs.Hub, workers)
	for i := range whs {
		whs[i] = NewObsHub(0)
		hubs <- whs[i]
	}
	livePoints := hub.Registry().Counter("torture.points")
	liveViolations := hub.Registry().Counter("torture.violations")
	outs, err := sweep.Map(ctx, workers, len(points), func(_ context.Context, i int) (*TortureOutcome, error) {
		wh := <-hubs
		defer func() { hubs <- wh }()
		prc := rc
		prc.Obs = wh
		out, perr := runTorturePoint(prc, w, points[i])
		if perr != nil {
			return nil, fmt.Errorf("torture point %v: %w", points[i], perr)
		}
		livePoints.Inc()
		if out.Violation != "" {
			liveViolations.Inc()
		}
		return out, nil
	})
	// Fold the workers' simulator metrics (persist latency histograms,
	// region attribution, ...) into the main hub even when the sweep
	// aborted: a served registry should show whatever progress was made.
	for _, wh := range whs {
		hub.Merge(wh)
	}
	rep := &TortureReport{ByKind: make(map[string]int)}
	if err != nil {
		return rep, err
	}
	for i, out := range outs {
		// The hub counters already ticked live in the workers; pass a nil
		// hub so aggregate only builds the report.
		rep.aggregate(nil, points[i], out, onPoint)
	}
	return rep, nil
}

// AggregateTortureOutcomes assembles a report from per-point verdicts in
// sweep order through the same accounting path as RunTorture, so a caller
// that computed the outcomes elsewhere — the distributed sweep fabric's
// coordinator merging units that ran on remote workers — produces a report
// byte-identical to the single-process sweep's. outs[i] must be the verdict
// of points[i]. hub, when non-nil, receives the torture.points and
// torture.violations counter ticks (pass nil when those already ticked
// live, as the parallel and distributed sweeps do); onPoint fires per
// verdict in sweep order.
func AggregateTortureOutcomes(hub *obs.Hub, points []TorturePoint, outs []*TortureOutcome, onPoint func(*TortureOutcome)) (*TortureReport, error) {
	if len(points) != len(outs) {
		return nil, fmt.Errorf("ppa: %d outcomes for %d torture points", len(outs), len(points))
	}
	rep := &TortureReport{ByKind: make(map[string]int)}
	for i, out := range outs {
		if out == nil {
			return nil, fmt.Errorf("ppa: missing outcome for torture point %d (%v)", i, points[i])
		}
		rep.aggregate(hub, points[i], out, onPoint)
	}
	return rep, nil
}

// FilterTorturePointsByKind returns the subset of points whose fault kind
// is k, preserving sweep order — the one filter the CLI sweep spec
// supports, shared here so the distributed fabric derives exactly the same
// point list as ppatorture's -kind flag.
func FilterTorturePointsByKind(points []TorturePoint, k FaultKind) []TorturePoint {
	var kept []TorturePoint
	for _, p := range points {
		if p.Fault.Kind == k {
			kept = append(kept, p)
		}
	}
	return kept
}

// aggregate folds one verdict into the report and fires the per-point
// callback. It is the single accounting path for the sequential and
// parallel sweeps, which is what keeps their reports identical.
func (rep *TortureReport) aggregate(hub *obs.Hub, p TorturePoint, out *TortureOutcome, onPoint func(*TortureOutcome)) {
	rep.Points++
	rep.ByKind[p.Fault.Kind.String()]++
	if out.CompletedBeforeFailure {
		rep.CompletedBeforeFailure++
	}
	if out.Injected {
		rep.Injected++
	}
	if out.Detected {
		rep.Detected++
	}
	if out.Recovered {
		rep.Recovered++
	}
	if out.Violation != "" {
		rep.Violations = append(rep.Violations, out)
	}
	hub.Registry().Counter("torture.points").Inc()
	if out.Violation != "" {
		hub.Registry().Counter("torture.violations").Inc()
	}
	if onPoint != nil {
		onPoint(out)
	}
}

// ShrinkTorturePoint greedily minimizes a violating point: it repeatedly
// tries smaller failure cycles, parameters, and nesting depths, keeping
// any candidate that still violates, until no reduction reproduces the
// failure. The returned point is the minimal reproducer (the original if
// the violation never reproduces, e.g. a flaky model bug).
func ShrinkTorturePoint(rc RunConfig, p TorturePoint, minCycle uint64) (TorturePoint, error) {
	_, w, err := assemble(rc, nil)
	if err != nil {
		return p, err
	}
	still := func(c TorturePoint) (bool, error) {
		out, err := runTorturePoint(rc, w, c)
		if err != nil {
			return false, err
		}
		return out.Violation != "", nil
	}
	ok, err := still(p)
	if err != nil || !ok {
		return p, err
	}
	for iter := 0; iter < 64; iter++ {
		improved := false
		for _, cand := range shrinkCandidates(p, minCycle) {
			v, err := still(cand)
			if err != nil {
				return p, err
			}
			if v {
				p = cand
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return p, nil
}

func shrinkCandidates(p TorturePoint, minCycle uint64) []TorturePoint {
	var cands []TorturePoint
	add := func(c TorturePoint) { cands = append(cands, c) }
	if p.Cycle > minCycle {
		c := p
		c.Cycle = minCycle + (p.Cycle-minCycle)/2
		add(c)
		c = p
		c.Cycle = p.Cycle - 1
		add(c)
	}
	if p.Fault.Param > 0 {
		c := p
		c.Fault.Param = p.Fault.Param / 2
		add(c)
		c = p
		c.Fault.Param = p.Fault.Param - 1
		add(c)
	}
	if p.Depth > 1 {
		c := p
		c.Depth = p.Depth - 1
		add(c)
	}
	if p.Fault.Seed/2 != 0 {
		// Seed 0 is the "unseeded" sentinel, so halving must never reach it:
		// seeds 1 and -1 (and any seed whose half rounds to zero) would
		// otherwise shrink onto a point that replays under a different fault
		// stream than the one that failed, breaking shrink determinism.
		c := p
		c.Fault.Seed = p.Fault.Seed / 2
		add(c)
	}
	return cands
}
