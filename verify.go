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
}

// OK reports whether every recovery verified.
func (r *VerifyReport) OK() bool { return len(r.Failed) == 0 }

// ConsistencyRate is the fraction of interrupted trials that recovered
// consistently — the figure of merit for a crash-consistency scheme. A
// campaign with no interrupted trials proved nothing and reports 1.
func (r *VerifyReport) ConsistencyRate() float64 {
	if r.Interrupted == 0 {
		return 1
	}
	return float64(r.Consistent) / float64(r.Interrupted)
}

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
	// Bound the failure window by a representative run length.
	probe, err := Run(rc)
	if err != nil {
		return nil, err
	}
	maxCycle := probe.Cycles
	if maxCycle < 1000 {
		maxCycle = 1000
	}

	sched := FailRandomly(o.Seed, n, maxCycle/50, maxCycle)
	report := &VerifyReport{App: o.App, Scheme: scheme}
	var after uint64
	for {
		cycle, ok := sched.Next(after)
		if !ok {
			break
		}
		after = cycle
		report.Trials++
		out, err := RunWithFailure(rc, cycle)
		if err != nil {
			return nil, fmt.Errorf("verify %s@%d: %w", o.App, cycle, err)
		}
		if out.CompletedBeforeFailure {
			report.Completed++
			continue
		}
		report.Interrupted++
		if out.OracleChecked {
			report.OracleChecked++
		}
		if out.Consistent && out.ArchConsistent && out.OracleViolation == "" {
			report.Consistent++
		} else {
			report.Failed = append(report.Failed, cycle)
		}
	}
	return report, nil
}
