package ppa

import (
	"fmt"

	"ppa/internal/multicore"
	"ppa/internal/power"
)

// This file implements repeated-failure orchestration: energy-harvesting
// heritage says power can fail again at any point — including immediately
// after a recovery. RunWithFailureSchedule drives a workload through an
// arbitrary failure schedule, looping the crash driver (crash.go) at every
// outage until the programs complete.

// FailureSchedule re-exports the failure-injection schedules.
type FailureSchedule = power.Schedule

// FailAt fails once at a fixed cycle.
func FailAt(cycle uint64) FailureSchedule { return power.At(cycle) }

// FailEvery fails periodically.
func FailEvery(period, offset uint64) FailureSchedule {
	return power.Every{Period: period, Offset: offset}
}

// FailRandomly fails n times at seeded-random cycles in [min, max).
func FailRandomly(seed int64, n int, min, max uint64) FailureSchedule {
	return power.NewRandom(seed, n, min, max)
}

// failWithin draws a campaign's cuts over a run of runCycles:
// FailRandomly(seed, n, w/div, w)'s failures in ascending order without
// repeats, where the window w is runCycles but at least 1 000.
func failWithin(seed int64, n int, div uint64) func(runCycles uint64) []uint64 {
	return func(runCycles uint64) (cuts []uint64) {
		w := max(runCycles, 1000)
		sched := FailRandomly(seed, n, w/div, w)
		for c, ok := sched.Next(0); ok; c, ok = sched.Next(c) {
			cuts = append(cuts, c)
		}
		return cuts
	}
}

// ScheduleOutcome summarizes a run through a failure schedule.
type ScheduleOutcome struct {
	// Completed reports whether every thread finished its trace.
	Completed bool
	// TotalCycles is the cumulative simulated cycles across all power-on
	// periods.
	TotalCycles uint64
	// FailCycles records each failure that struck at its global cycle
	// (cumulative across resumes).
	FailCycles []uint64
	// Verdicts holds each of those failures' crash verdict, in order; a
	// verdict's point and cycle count from the resume before it.
	Verdicts []*CrashVerdict
}

// Consistent reports whether every recovery satisfied the contract: no
// verdict has a violation.
func (o *ScheduleOutcome) Consistent() bool {
	for _, v := range o.Verdicts {
		if v.Violation != "" {
			return false
		}
	}
	return true
}

// RunWithFailureSchedule executes a workload under repeated power failures:
// at each scheduled cycle the machine loses power, JIT-checkpoints,
// recovers under the scheme's recovery contract, verifies it (with the
// oracle's verdict folded in when rc.Lockstep is set), and resumes every
// thread at its contract point — until the workload completes or the
// schedule runs out of failures (after which the run completes undisturbed).
func RunWithFailureSchedule(rc RunConfig, schedule FailureSchedule) (*ScheduleOutcome, error) {
	r := &crashRun{rc: rc}
	if err := r.rewind(0); err != nil {
		return nil, err
	}
	out := &ScheduleOutcome{}
	var globalCycle uint64
	for round := 0; round <= 10_000; round++ {
		next, ok := schedule.Next(globalCycle)
		if !ok {
			// No more failures: run to completion.
			if err := r.sys.Run(multicore.CycleBudget(rc.insts())); err != nil {
				return nil, err
			}
			out.TotalCycles = globalCycle + r.sys.Cycle()
			out.Completed = true
			return out, nil
		}
		v, err := r.cut(TorturePoint{Cycle: next - globalCycle}, true)
		if err != nil {
			return nil, err
		}
		globalCycle += v.Cycle
		if v.Completed {
			out.TotalCycles = globalCycle
			out.Completed = true
			return out, nil
		}
		if v.Detected != nil {
			return nil, v.Detected
		}
		out.FailCycles = append(out.FailCycles, globalCycle)
		out.Verdicts = append(out.Verdicts, v)
	}
	return nil, fmt.Errorf("ppa: failure schedule did not terminate")
}
