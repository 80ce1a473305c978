package ppa

import (
	"fmt"
	"slices"

	"ppa/internal/litmus"
	"ppa/internal/mutation"
	"ppa/internal/oracle"
)

// This file is the public face of the differential lockstep oracle
// (internal/oracle) and its mutation-testing gate: the campaign that proves
// the oracle and the crash-consistency checks actually catch bugs, by
// enabling each seeded single-site bug in turn and demanding a catch.

// Re-exported oracle report types (RunConfig.Lockstep attaches the oracle;
// a disagreement surfaces as an *OracleError from the run).
type (
	// OracleReport is the oracle's whole-run summary.
	OracleReport = oracle.Report
	// OracleDivergence is the first commit where machine and golden model
	// disagreed.
	OracleDivergence = oracle.Divergence
	// OraclePersistViolation is the first persist-ordering breach.
	OraclePersistViolation = oracle.PersistViolation
	// OracleError carries an OracleReport out of a run as the error.
	OracleError = oracle.DivergenceError
)

// SeededBug describes one mutation from the seeded-bug registry.
type SeededBug struct {
	// ID is the bug's stable kebab-case identifier.
	ID string `json:"id"`
	// Site is the source location of the guarded bug.
	Site string `json:"site"`
	// Description is a one-line summary of the misbehaviour.
	Description string `json:"description"`
}

// SeededBugs lists the mutation registry in stable order.
func SeededBugs() []SeededBug {
	ms := mutation.All()
	out := make([]SeededBug, len(ms))
	for i, m := range ms {
		out[i] = SeededBug{ID: m.String(), Site: m.Site(), Description: m.Description()}
	}
	return out
}

// MutationOutcome is one seeded bug's verdict.
type MutationOutcome struct {
	Bug    SeededBug `json:"bug"`
	Caught bool      `json:"caught"`
	// CaughtBy names the first check that tripped: "clean-run" (lockstep
	// divergence, persist violation, or durable-image mismatch during an
	// uninterrupted run), "crash-campaign" (a crash verdict's violation,
	// whose Verifier leads Detail: recovery-error for an untyped recovery
	// error, spurious-detection for a refused intact checkpoint,
	// oracle-recovery-check, committed-prefix or arch-state; or a cut that
	// failed to simulate), or "litmus-gate" (a forbidden outcome on the
	// persistency-conformance corpus under perturbed multicore schedules —
	// the only leg that runs more than one core, so multicore-gated bugs
	// land here).
	CaughtBy string `json:"caught_by,omitempty"`
	// FailCycle is the crash cycle that caught it (crash-campaign only).
	FailCycle uint64 `json:"fail_cycle,omitempty"`
	// Detail is the catching check's message.
	Detail string `json:"detail,omitempty"`
}

// MutationCampaignConfig parameterizes RunMutationCampaign.
type MutationCampaignConfig struct {
	// App is the workload (default "mcf" — store-dense with enough PRF
	// pressure to form dynamic regions).
	App string
	// Scheme is the persistence scheme under test (default SchemePPA; the
	// seeded bugs live in the PPA hardware and its recovery path).
	Scheme Scheme
	// InstsPerThread is the per-thread instruction count (default 6000).
	InstsPerThread int
	// FailPoints is how many crash cycles each bug's crash campaign tries
	// (default 6).
	FailPoints int
	// Seed drives the crash-cycle schedule.
	Seed int64
}

// MutationCampaignReport is the campaign verdict, JSON-marshalable for the
// CI artifact. With a fixed config it is byte-for-byte deterministic.
type MutationCampaignReport struct {
	App            string            `json:"app"`
	Scheme         Scheme            `json:"scheme"`
	InstsPerThread int               `json:"insts_per_thread"`
	FailCycles     []uint64          `json:"fail_cycles"`
	BaselineClean  bool              `json:"baseline_clean"`
	BaselineDetail string            `json:"baseline_detail,omitempty"`
	Outcomes       []MutationOutcome `json:"outcomes"`
	Caught         int               `json:"caught"`
	Total          int               `json:"total"`
}

// AllCaught reports the gate verdict: no false alarms on the unmutated
// simulator, and every seeded bug caught.
func (r *MutationCampaignReport) AllCaught() bool {
	return r.BaselineClean && r.Caught == r.Total
}

func (r *MutationCampaignReport) String() string {
	verdict := "PASS"
	if !r.AllCaught() {
		verdict = "FAIL"
	}
	s := fmt.Sprintf("mutation gate %s: %d/%d seeded bugs caught on %s/%s (baseline clean: %v)",
		verdict, r.Caught, r.Total, r.App, r.Scheme, r.BaselineClean)
	for _, o := range r.Outcomes {
		if !o.Caught {
			s += fmt.Sprintf("\n  MISSED %s (%s): %s", o.Bug.ID, o.Bug.Site, o.Bug.Description)
		}
	}
	return s
}

// RunMutationCampaign proves the verification tooling has teeth: for each
// seeded bug it runs the workload under the lockstep oracle — first
// uninterrupted, then crashed at each scheduled cycle and recovered — and
// records which check caught the bug. The unmutated simulator runs the same
// gauntlet first and must come through clean.
//
// The mutation registry is process-global state flipped between
// simulations, so campaigns must not run concurrently with other
// simulations in the same process.
func RunMutationCampaign(cc MutationCampaignConfig) (*MutationCampaignReport, error) {
	if cc.App == "" {
		cc.App = "mcf"
	}
	if cc.Scheme == "" {
		cc.Scheme = SchemePPA
	}
	if cc.InstsPerThread <= 0 {
		cc.InstsPerThread = 6000
	}
	if cc.FailPoints <= 0 {
		cc.FailPoints = 6
	}
	mutation.Disable()
	defer mutation.Disable()

	rc := RunConfig{App: cc.App, Scheme: cc.Scheme, InstsPerThread: cc.InstsPerThread, Lockstep: true}
	rep := &MutationCampaignReport{App: cc.App, Scheme: cc.Scheme, InstsPerThread: cc.InstsPerThread}
	// The crash schedule is drawn once, from the length of the first run
	// that completes (the healthy one under the campaign scheme), and every
	// later leg cuts the same cycles.
	cuts := func(runCycles uint64) []uint64 {
		if rep.FailCycles == nil {
			rep.FailCycles = failWithin(cc.Seed, cc.FailPoints, 20)(runCycles)
		}
		return rep.FailCycles
	}

	// Baseline: the unmutated simulator must come through its clean run and
	// every scheduled crash with a clean oracle and a consistent recovery,
	// under the campaign scheme and under every scheme a seeded bug
	// redirects to (the log-recovery bugs only execute under a log-based
	// scheme).
	schemes := []Scheme{cc.Scheme}
	for _, m := range mutation.All() {
		if s := schemeForBug(m.String(), cc.Scheme); !slices.Contains(schemes, s) {
			schemes = append(schemes, s)
		}
	}
	rep.BaselineClean = true
	for _, s := range schemes {
		src := rc
		src.Scheme = s
		if o := crashLegs(src, cuts); o.Caught {
			rep.BaselineClean = false
			rep.BaselineDetail = fmt.Sprintf("false alarm under %s (%s, fail cycle %d): %s", s, o.CaughtBy, o.FailCycle, o.Detail)
			break
		}
	}
	if rep.FailCycles == nil {
		// The healthy run failed, so there is no schedule to cut.
		return rep, nil
	}
	// Baseline litmus gate: the unmutated simulator must clear the
	// persistency-conformance corpus too, or catches on that leg would be
	// meaningless.
	if rep.BaselineClean {
		if detail := litmusTrial(); detail != "" {
			rep.BaselineClean = false
			rep.BaselineDetail = "false alarm on litmus gate: " + detail
		}
	}

	bugs := SeededBugs()
	for i, m := range mutation.All() {
		brc := rc
		brc.Scheme = schemeForBug(m.String(), cc.Scheme)
		mutation.Enable(m)
		out := crashLegs(brc, cuts)
		if !out.Caught {
			// Leg 3: the persistency-conformance litmus gate. Legs 1–2 run
			// a single-threaded workload; this is the multicore leg — it
			// replays the curated litmus corpus under perturbed schedules
			// and the lockstep oracle, and convicts bugs whose every
			// intermediate NVM state looks individually plausible (stale
			// coalesced words, barriers released against the wrong core).
			if detail := litmusTrial(); detail != "" {
				out = MutationOutcome{Caught: true, CaughtBy: "litmus-gate", Detail: detail}
			}
		}
		mutation.Disable()
		out.Bug = bugs[i]
		rep.Outcomes = append(rep.Outcomes, out)
		rep.Total++
		if out.Caught {
			rep.Caught++
		}
	}
	return rep, nil
}

// schemeForBug returns the scheme whose recovery path actually executes the
// seeded bug, when the campaign's default scheme cannot reach it. The two
// log-recovery bugs live in the transaction schemes' shared recovery
// (internal/persist/logpath.go): replay-skips-last only fires on a redo
// replay, rollback-after-commit only on an undo rollback.
func schemeForBug(id string, def Scheme) Scheme {
	switch id {
	case "log-replay-skips-last-entry":
		return SchemeRedoTxn
	case "undo-applied-after-commit":
		return SchemeUndoLog
	}
	return def
}

// crashLegs runs rc through the gate's first two legs on one crash driver
// and reports the first check that caught a violation (Caught false when
// none did). Leg 1 is the uninterrupted lockstep run, which catches
// value-path and persist-ordering bugs without a crash; leg 2 cuts the
// same live machine at each scheduled cycle, recovers and verifies.
func crashLegs(rc RunConfig, cuts func(runCycles uint64) []uint64) MutationOutcome {
	res, vs, err := (&crashRun{rc: rc}).campaign(cuts)
	if res == nil {
		return MutationOutcome{Caught: true, CaughtBy: "clean-run", Detail: err.Error()}
	}
	for _, v := range vs {
		if v.Violation != "" {
			return MutationOutcome{Caught: true, CaughtBy: "crash-campaign", FailCycle: v.Point.Cycle,
				Detail: fmt.Sprintf("%s: %s", v.Verifier, v.Violation)}
		}
	}
	if err != nil {
		return MutationOutcome{Caught: true, CaughtBy: "crash-campaign", FailCycle: cuts(res.Cycles)[len(vs)], Detail: err.Error()}
	}
	return MutationOutcome{}
}

// litmusTrial runs the built-in conformance corpus under a fixed
// perturbation seed and returns the first forbidden outcome ("" if clean).
func litmusTrial() string {
	rep, err := litmus.RunCorpus(litmus.ConformanceCorpus(), litmus.RunOptions{Schedules: 16, Seed: 0xC0FFEE}, nil)
	if err != nil {
		return "litmus corpus error: " + err.Error()
	}
	if f := rep.FirstForbidden(); f != nil {
		return f.String()
	}
	return ""
}
