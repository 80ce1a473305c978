package ppa

import (
	"testing"

	"ppa/internal/multicore"
	"ppa/internal/workload"
)

// dirtyCutCycle is where a dirtying run loses power: mid-run for every
// golden workload.
const dirtyCutCycle = 1500

// dirtyMachine builds the machine for rc (with org's hierarchy changes and
// region tracing on, as the goldens run) over the same app at another
// workload seed, and dirties it: it runs the workload to completion, or,
// with crash, cuts power mid-run and recovers through the crash driver.
func dirtyMachine(t *testing.T, rc RunConfig, org func(*multicore.Config), crash bool) *multicore.System {
	t.Helper()
	prof, err := workload.ByName(rc.App)
	if err != nil {
		t.Fatal(err)
	}
	prof.Seed += 7919
	rc = goldenConfig(rc, org)
	rc.Profile = &prof
	r, err := newCrashRun(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !crash {
		if err := r.sys.Run(multicore.CycleBudget(rc.InstsPerThread)); err != nil {
			t.Fatal(err)
		}
		return r.sys
	}
	v, err := r.cut(TorturePoint{Cycle: dirtyCutCycle}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.completed {
		t.Fatalf("the dirtying run completed before cycle %d", dirtyCutCycle)
	}
	return r.sys
}

// resetOnto resets sys onto rc's own workload, as NewSystem(rc) would bind
// it.
func resetOnto(t *testing.T, sys *multicore.System, rc RunConfig) {
	t.Helper()
	_, w, err := assemble(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Reset(w, sys.Config().StepSeed); err != nil {
		t.Fatal(err)
	}
}

// TestResetMatchesGoldens is the gate on System.Reset: a machine dirtied by
// the same app at another workload seed, then reset onto the golden
// workload, must reproduce the pinned Result and NVM-image digests of every
// scheme golden and organization golden. Half the cases dirty the machine
// with a full run, the other half with a mid-run crash and recovery, so
// both what a run leaves behind and what an outage and its recovery leave
// behind must be rewound. One lockstep case checks that the reset hooks a
// fresh oracle up to the commit, accept and log streams: the run must be
// checked clean and still match its golden.
func TestResetMatchesGoldens(t *testing.T) {
	type resetCase struct {
		name    string
		rc      RunConfig
		threads int
		org     func(*multicore.Config)
		want    [2]string
		crash   bool
	}
	var cases []resetCase
	for i, run := range goldenSchemeRuns {
		for j, s := range Schemes() {
			key := run.app + "/" + string(s)
			cases = append(cases, resetCase{key, RunConfig{App: run.app, Scheme: s, InstsPerThread: run.insts},
				run.threads, nil, goldenSchemeDigests[key], (i+j)%2 == 1})
		}
	}
	for i, run := range goldenOrgRuns {
		cases = append(cases, resetCase{run.name, run.rc, run.threads, run.org, run.digests, i%2 == 1})
	}
	cases = append(cases, resetCase{"mcf/undolog/lockstep",
		RunConfig{App: "mcf", Scheme: SchemeUndoLog, InstsPerThread: 4000, Lockstep: true},
		1, nil, goldenSchemeDigests["mcf/undolog"], true})
	for _, c := range cases {
		c := c
		dirt := "run"
		if c.crash {
			dirt = "crash"
		}
		t.Run(c.name+"/"+dirt, func(t *testing.T) {
			t.Parallel()
			sys := dirtyMachine(t, c.rc, c.org, c.crash)
			dirtyOracle := sys.Oracle()
			rc := goldenConfig(c.rc, c.org)
			resetOnto(t, sys, rc)
			if got := runDigests(t, sys, rc, c.threads); got != c.want {
				t.Errorf("reset machine digests %v, golden %v", got, c.want)
			}
			if !c.rc.Lockstep {
				return
			}
			if sys.Oracle() == dirtyOracle {
				t.Fatal("the reset machine kept the dirty run's oracle")
			}
			if rep := sys.Oracle().Report(); rep.Commits != uint64(c.rc.InstsPerThread*c.threads) {
				t.Errorf("the oracle checked %d commits after the reset, want %d", rep.Commits, c.rc.InstsPerThread*c.threads)
			}
		})
	}
}
