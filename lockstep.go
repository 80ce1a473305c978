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
	// Scheme is the persistence scheme under which the site executes, and
	// so the scheme the bug's gate legs run under.
	Scheme Scheme `json:"scheme"`
}

// SeededBugs lists the mutation registry in stable order.
func SeededBugs() []SeededBug {
	ms := mutation.All()
	out := make([]SeededBug, len(ms))
	for i, m := range ms {
		out[i] = SeededBug{ID: m.String(), Site: m.Site(), Description: m.Description(), Scheme: Scheme(m.Scheme())}
	}
	return out
}

// MutationOutcome is one seeded bug's verdict.
type MutationOutcome struct {
	Bug    SeededBug `json:"bug"`
	Caught bool      `json:"caught"`
	// CaughtBy names the first leg that caught it: "clean-run" (lockstep
	// divergence, persist violation, or durable-image mismatch during an
	// uninterrupted run), "crash-campaign" (a crash verdict's violation at
	// some cut of the run, or a cut that failed to simulate), or
	// "litmus-gate" (a forbidden outcome on the persistency-conformance
	// corpus under perturbed multicore schedules — the only leg that runs
	// more than one core, so multicore-gated bugs land here).
	CaughtBy string `json:"caught_by,omitempty"`
	// FailCycle is the first cut, in cycle order, whose verdict violated
	// the contract (crash-campaign only).
	FailCycle uint64 `json:"fail_cycle,omitempty"`
	// CaughtCuts counts the cuts whose verdict violated the contract, of
	// the one at every cycle of the run (crash-campaign only).
	CaughtCuts int `json:"caught_cuts,omitempty"`
	// Detail is the catching check's message. For a crash-campaign catch it
	// is the first violating verdict's Verifier and Violation:
	// recovery-error for an untyped recovery error, spurious-detection for
	// a refused intact checkpoint, oracle-recovery-check, committed-prefix
	// or arch-state.
	Detail string `json:"detail,omitempty"`
}

// MutationCampaignConfig parameterizes RunMutationCampaign.
type MutationCampaignConfig struct {
	// App is the workload (default "mcf" — store-dense with enough PRF
	// pressure to form dynamic regions).
	App string
	// InstsPerThread is the per-thread instruction count (default 6000).
	InstsPerThread int
}

// MutationCampaignReport is the campaign verdict, JSON-marshalable for the
// CI artifact. With a fixed config it is byte-for-byte deterministic.
type MutationCampaignReport struct {
	App            string            `json:"app"`
	InstsPerThread int               `json:"insts_per_thread"`
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
	s := fmt.Sprintf("mutation gate %s: %d/%d seeded bugs caught on %s (baseline clean: %v)",
		verdict, r.Caught, r.Total, r.App, r.BaselineClean)
	for _, o := range r.Outcomes {
		if !o.Caught {
			s += fmt.Sprintf("\n  MISSED %s (%s under %s): %s", o.Bug.ID, o.Bug.Site, o.Bug.Scheme, o.Bug.Description)
		}
	}
	return s
}

// RunMutationCampaign proves the verification tooling has teeth: for each
// seeded bug it runs the workload under the lockstep oracle and the bug's
// scheme — first uninterrupted, then crashed at every cycle of that run and
// recovered — and records which check caught the bug. The unmutated
// simulator runs the same gauntlet first, under every scheme a bug
// declares, and must come through clean.
//
// The mutation registry is process-global state flipped between
// simulations, so campaigns must not run concurrently with other
// simulations in the same process.
func RunMutationCampaign(cc MutationCampaignConfig) (*MutationCampaignReport, error) {
	if cc.App == "" {
		cc.App = "mcf"
	}
	if cc.InstsPerThread <= 0 {
		cc.InstsPerThread = 6000
	}
	mutation.Disable()
	defer mutation.Disable()

	rc := RunConfig{App: cc.App, InstsPerThread: cc.InstsPerThread, Lockstep: true}
	rep := &MutationCampaignReport{App: cc.App, InstsPerThread: cc.InstsPerThread}
	bugs := SeededBugs()

	// Baseline: the unmutated simulator must come through its clean run and
	// a cut at every cycle with a clean oracle and a consistent recovery,
	// under every scheme a seeded bug runs under.
	var schemes []Scheme
	for _, b := range bugs {
		if !slices.Contains(schemes, b.Scheme) {
			schemes = append(schemes, b.Scheme)
		}
	}
	rep.BaselineClean = true
	for _, s := range schemes {
		rc.Scheme = s
		if o := crashLegs(rc); o.Caught {
			rep.BaselineClean = false
			rep.BaselineDetail = fmt.Sprintf("false alarm under %s (%s, fail cycle %d): %s", s, o.CaughtBy, o.FailCycle, o.Detail)
			break
		}
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

	for i, m := range mutation.All() {
		rc.Scheme = bugs[i].Scheme
		mutation.Enable(m)
		out := crashLegs(rc)
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

// everyCycle is the gate's cut source: every cycle 1 … runCycles-1 of the
// leg's own clean run, so a recovery bug cannot hide between sampled cuts.
func everyCycle(runCycles uint64) []uint64 {
	cuts := make([]uint64, 0, max(runCycles, 1)-1)
	for c := uint64(1); c < runCycles; c++ {
		cuts = append(cuts, c)
	}
	return cuts
}

// crashLegs runs rc through the gate's first two legs on one crash driver
// and reports the first check that caught a violation (Caught false when
// none did). Leg 1 is the uninterrupted lockstep run, which catches
// value-path and persist-ordering bugs without a crash; leg 2 cuts the
// same live machine at every cycle of that run, recovers and verifies, and
// counts the cuts that violate the contract.
func crashLegs(rc RunConfig) MutationOutcome {
	var out MutationOutcome
	cuts := 0
	res, err := (&crashRun{rc: rc}).campaign(everyCycle, func(v *CrashVerdict) {
		cuts++
		if v.Violation == "" {
			return
		}
		if !out.Caught {
			out = MutationOutcome{Caught: true, CaughtBy: "crash-campaign", FailCycle: v.Point.Cycle,
				Detail: fmt.Sprintf("%s: %s", v.Verifier, v.Violation)}
		}
		out.CaughtCuts++
	})
	if res == nil {
		return MutationOutcome{Caught: true, CaughtBy: "clean-run", Detail: err.Error()}
	}
	if err != nil {
		// The cut after the last verdict failed to simulate, which ended
		// the campaign.
		if !out.Caught {
			out = MutationOutcome{Caught: true, CaughtBy: "crash-campaign", FailCycle: uint64(cuts) + 1, Detail: err.Error()}
		}
		out.CaughtCuts++
	}
	return out
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
