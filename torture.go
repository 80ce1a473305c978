package ppa

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"ppa/internal/fault"
	"ppa/internal/obs"
	"ppa/internal/sweep"
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

// TortureReport aggregates a sweep.
type TortureReport struct {
	Points                 int            `json:"points"`
	CompletedBeforeFailure int            `json:"completed_before_failure"`
	Injected               int            `json:"injected"`
	Detected               int            `json:"detected"`
	Recovered              int            `json:"recovered"`
	ByKind                 map[string]int `json:"by_kind"`
	// Violations holds every verdict with a violation, in sweep order.
	Violations []*CrashVerdict `json:"violations,omitempty"`
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
// error; contract breaches, lockstep divergences included, surface in the
// verdict's Violation.
func RunTorturePoint(rc RunConfig, p TorturePoint) (*CrashVerdict, error) {
	return (&crashRun{rc: rc}).torture(p)
}

// torture cuts p on the driver's live machine, which advances to p.Cycle
// from wherever an earlier point left it (or from cycle zero, when p lies
// behind its clock). The crashed copy does not resume after recovery, and a
// lockstep divergence is the verdict's violation, not an error.
func (r *crashRun) torture(p TorturePoint) (*CrashVerdict, error) {
	v, err := r.cut(p, false)
	if v == nil {
		return nil, err
	}
	return v, nil
}

// sweep runs points[i] for each i of order, in that order, on the driver
// and stores each verdict at outs[i]; done, when non-nil, sees each verdict
// as it lands. Cancelling ctx abandons the rest.
func (r *crashRun) sweep(ctx context.Context, points []TorturePoint, order []int, outs []*CrashVerdict, done func(*CrashVerdict)) error {
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := r.torture(points[i])
		if err != nil {
			return fmt.Errorf("torture point %v: %w", points[i], err)
		}
		outs[i] = out
		if done != nil {
			done(out)
		}
	}
	return nil
}

// cycleOrder returns the indices of points in ascending cycle order, ties
// in sweep order: the order in which one live machine reaches every cut
// with a single pass over its prefix.
func cycleOrder(points []TorturePoint) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return points[order[a]].Cycle < points[order[b]].Cycle })
	return order
}

// RunTorture sweeps every point on one crash driver and aggregates the
// report. The workload is generated once and shared by every point. Points
// run in ascending cycle order (ties in sweep order), so the driver's live
// machine simulates the sweep's prefix once and each cut crashes a copy of
// it; each verdict equals RunTorturePoint's on a fresh machine. The report
// and onPoint (if non-nil) see the verdicts in sweep order after the
// sweep, and counters "torture.points" and "torture.violations" then
// accumulate on the run's hub, which also gets the live machine's
// pre-crash metrics once, not once per point. On an error no verdict is
// reported.
func RunTorture(rc RunConfig, points []TorturePoint, onPoint func(*CrashVerdict)) (*TortureReport, error) {
	_, w, err := assemble(rc, nil)
	if err != nil {
		return &TortureReport{ByKind: make(map[string]int)}, err
	}
	outs := make([]*CrashVerdict, len(points))
	r := &crashRun{rc: rc, w: w}
	if err := r.sweep(context.Background(), points, cycleOrder(points), outs, nil); err != nil {
		return &TortureReport{ByKind: make(map[string]int)}, err
	}
	return AggregateTortureOutcomes(rc.hub(), points, outs, onPoint)
}

// RunTortureParallel is RunTorture over a bounded worker pool. The points,
// in ascending cycle order, are split into one contiguous run per worker;
// each worker owns one crash driver over the sweep's one read-only
// workload, so it simulates its run's prefix once, and each verdict equals
// RunTorturePoint's on a fresh machine. Verdicts are aggregated in point
// order after the sweep — the report is byte-identical to RunTorture's for
// the same points, and onPoint still fires in sweep order, after the
// sweep. The main hub's "torture.points" and "torture.violations" counters
// tick live as workers finish points (so a served /metrics endpoint shows
// sweep progress). A worker gets an observability hub of its own
// (RunConfig.Obs must not be shared across goroutines) only when
// something reads it: the run's hub, into which the worker hubs merge in
// creation order when the sweep ends — each worker's pre-crash metrics
// once, not once per point; counter and histogram merging is commutative,
// so the merged totals do not depend on which worker ran which points — or
// the flight recorder, whose bundles carry the worker's trace ring.
// Otherwise workers run without one, as the sequential sweep does.
// workers <= 0 means GOMAXPROCS; workers == 1 is exactly the sequential
// sweep (including rc.Obs use, so trace-carrying hubs keep working).
// Cancelling ctx abandons the sweep.
func RunTortureParallel(ctx context.Context, rc RunConfig, points []TorturePoint, workers int, onPoint func(*CrashVerdict)) (*TortureReport, error) {
	workers = sweep.Workers(workers)
	if workers <= 1 || len(points) <= 1 {
		return RunTorture(rc, points, onPoint)
	}
	_, w, err := assemble(rc, nil)
	if err != nil {
		return &TortureReport{ByKind: make(map[string]int)}, err
	}
	hub := rc.hub()
	order := cycleOrder(points)
	runs := sweep.Chunks(len(order), (len(order)+workers-1)/workers)
	drivers := make([]*crashRun, len(runs))
	for i := range drivers {
		drivers[i] = &crashRun{rc: rc, w: w}
		if hub != nil || rc.Forensics != nil {
			drivers[i].rc.Obs = NewObsHub(0)
		}
	}
	livePoints := hub.Registry().Counter("torture.points")
	liveViolations := hub.Registry().Counter("torture.violations")
	tick := func(out *CrashVerdict) {
		livePoints.Inc()
		if out.Violation != "" {
			liveViolations.Inc()
		}
	}
	outs := make([]*CrashVerdict, len(points))
	_, err = sweep.Map(ctx, len(runs), len(runs), func(ctx context.Context, i int) (struct{}, error) {
		run := runs[i]
		return struct{}{}, drivers[i].sweep(ctx, points, order[run.Start:run.End], outs, tick)
	})
	// Fold the workers' simulator metrics (persist latency histograms,
	// region attribution, ...) into the main hub even when the sweep
	// aborted: a served registry should show whatever progress was made.
	for _, r := range drivers {
		hub.Merge(r.rc.Obs)
	}
	if err != nil {
		return &TortureReport{ByKind: make(map[string]int)}, err
	}
	// The hub counters already ticked live in the workers; pass a nil hub
	// so aggregation only builds the report.
	return AggregateTortureOutcomes(nil, points, outs, onPoint)
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
func AggregateTortureOutcomes(hub *obs.Hub, points []TorturePoint, outs []*CrashVerdict, onPoint func(*CrashVerdict)) (*TortureReport, error) {
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
func (rep *TortureReport) aggregate(hub *obs.Hub, p TorturePoint, out *CrashVerdict, onPoint func(*CrashVerdict)) {
	rep.Points++
	rep.ByKind[p.Fault.Kind.String()]++
	if out.Completed {
		rep.CompletedBeforeFailure++
	}
	if out.Injected {
		rep.Injected++
	}
	if out.Detected != nil {
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
// the violation never reproduces, e.g. a flaky model bug). Candidates run
// one after another on one crash driver, whose live machine resets only
// for a candidate that cuts behind its clock.
func ShrinkTorturePoint(rc RunConfig, p TorturePoint, minCycle uint64) (TorturePoint, error) {
	_, w, err := assemble(rc, nil)
	if err != nil {
		return p, err
	}
	r := &crashRun{rc: rc, w: w}
	still := func(c TorturePoint) (bool, error) {
		out, err := r.torture(c)
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
