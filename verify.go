package ppa

import "fmt"

// VerifyReport summarizes a crash-consistency verification campaign: the
// workload was crashed at many points, recovered each time, and checked
// against the golden committed prefix.
type VerifyReport struct {
	App    string
	Scheme Scheme
	Trials int
	// Completed counts failures scheduled after the run already finished:
	// no crash struck, so those trials say nothing about recovery.
	Completed int
	// Interrupted counts trials where power actually cut mid-run — the
	// only trials that exercise recovery (Trials = Completed + Interrupted).
	Interrupted int
	// Consistent counts interrupted trials whose recovery verified: the
	// NVM image holds the committed prefix, the recovered register state
	// matches the golden model, and (under Lockstep) the oracle agrees. A
	// post-completion trial is not consistent, merely uninformative.
	Consistent int
	Failed     []uint64 // failure cycles whose recovery was inconsistent
	// OracleChecked counts interrupted trials the lockstep oracle
	// cross-checked (VerifyOptions.Lockstep).
	OracleChecked int
	// Verdicts holds every trial's crash verdict, in cut order: the counts
	// above are tallied from them.
	Verdicts []*CrashVerdict
}

// OK reports whether every recovery verified.
func (r *VerifyReport) OK() bool { return len(r.Failed) == 0 }

func (r *VerifyReport) String() string {
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("FAILED at cycles %v", r.Failed)
	}
	return fmt.Sprintf("%s/%s: %d trials (%d post-completion), %d/%d interrupted consistent — %s",
		r.App, r.Scheme, r.Trials, r.Completed, r.Consistent, r.Interrupted, status)
}

// VerifyOptions parameterizes a verification campaign.
type VerifyOptions struct {
	// App is a workload name from Apps().
	App string
	// Scheme selects the persistence scheme (default SchemePPA).
	Scheme Scheme
	// InstsPerThread is the per-thread dynamic instruction count
	// (default 20000).
	InstsPerThread int
	// Trials is how many failure points to schedule (default 8).
	Trials int
	// Seed drives the failure-cycle schedule.
	Seed int64
	// Lockstep runs every trial under the differential oracle: commits are
	// cross-checked against the golden model, persist ordering against the
	// accept stream, and the recovered image against the oracle's memory.
	// Oracle disagreements count as failed trials.
	Lockstep bool
	// Customize, when non-nil, edits every trial's machine configuration,
	// as RunConfig.Customize does (MachineCustomizerFromFile loads one).
	Customize func(*MachineConfig)
}

// VerifyApp runs a crash-consistency campaign: n failures at seeded-random
// cycles within the run. Every interrupted trial must recover to the
// committed prefix. Schemes without crash consistency (the baseline) will
// report failures — that is the point of running them.
func VerifyApp(app string, scheme Scheme, insts, n int, seed int64) (*VerifyReport, error) {
	return VerifyAppOpts(VerifyOptions{
		App: app, Scheme: scheme, InstsPerThread: insts, Trials: n, Seed: seed,
	})
}

// VerifyAppOpts is VerifyApp with the full option set (lockstep oracle,
// explicit trial counts).
func VerifyAppOpts(o VerifyOptions) (*VerifyReport, error) {
	insts := o.InstsPerThread
	if insts <= 0 {
		insts = 20_000
	}
	n := o.Trials
	if n <= 0 {
		n = 8
	}
	scheme := o.Scheme
	if scheme == "" {
		scheme = SchemePPA
	}
	rc := RunConfig{App: o.App, Scheme: scheme, InstsPerThread: insts, Lockstep: o.Lockstep, Customize: o.Customize}
	// One live machine runs the workload once, bounding the failure window
	// by its length, and is then cut at every trial's cycle.
	report := &VerifyReport{App: o.App, Scheme: scheme}
	_, err := (&crashRun{rc: rc}).campaign(failWithin(o.Seed, n, 50), func(v *CrashVerdict) {
		report.Trials++
		report.Verdicts = append(report.Verdicts, v)
		switch {
		case v.Completed:
			report.Completed++
			return
		case v.Violation == "":
			report.Consistent++
		default:
			report.Failed = append(report.Failed, v.Point.Cycle)
		}
		report.Interrupted++
		if v.OracleChecked {
			report.OracleChecked++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("verify %s: %w", o.App, err)
	}
	return report, nil
}
