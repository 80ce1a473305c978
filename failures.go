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

// ScheduleOutcome summarizes a run through a failure schedule.
type ScheduleOutcome struct {
	// Failures is the number of power failures that actually struck.
	Failures int
	// FailCycles records each failure's global cycle (cumulative across
	// resumes).
	FailCycles []uint64
	// ConsistentAfterEach records the crash-consistency verdict after each
	// recovery; all must be true for PPA.
	ConsistentAfterEach []bool
	// TotalInconsistencies sums committed-prefix words lost across all
	// failures (0 for a crash-consistent scheme).
	TotalInconsistencies int
	// Completed reports whether every thread finished its trace.
	Completed bool
	// TotalCycles is the cumulative simulated cycles across all power-on
	// periods.
	TotalCycles uint64
	// CheckpointBytes sums the encoded checkpoint sizes across failures.
	CheckpointBytes int
}

// Consistent reports whether every recovery satisfied the contract: no
// per-recovery verdict failed and no committed-prefix word was lost.
func (o *ScheduleOutcome) Consistent() bool {
	if o.TotalInconsistencies != 0 {
		return false
	}
	for _, ok := range o.ConsistentAfterEach {
		if !ok {
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
	r, err := newCrashRun(rc)
	if err != nil {
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
		globalCycle += v.cycle
		if v.completed {
			out.TotalCycles = globalCycle
			out.Completed = true
			return out, nil
		}
		if v.detected != nil {
			return nil, v.detected
		}
		out.Failures++
		out.FailCycles = append(out.FailCycles, globalCycle)
		out.CheckpointBytes += v.checkpointBytes
		out.TotalInconsistencies += v.inconsistencies
		out.ConsistentAfterEach = append(out.ConsistentAfterEach,
			v.inconsistencies == 0 && v.archConsistent && v.oracleErr == nil)
	}
	return nil, fmt.Errorf("ppa: failure schedule did not terminate")
}
