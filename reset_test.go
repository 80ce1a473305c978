package ppa

import (
	"encoding/json"
	"testing"

	"ppa/internal/multicore"
	"ppa/internal/workload"
)

// dirtyCutCycle is where a dirtying run loses power: mid-run for every
// golden workload.
const dirtyCutCycle = 1500

// dirtyMachine builds the machine for rc (with org's hierarchy changes and
// region tracing on, as the goldens run) over the same app at another
// workload seed, and dirties it as dirt says: "run" runs the workload to
// completion; "crash" cuts power mid-run, recovers through the crash driver
// and returns the live machine; "down" does the same and returns the crash
// driver's down machine, the crash copy whose hierarchy and persist
// backends were left to the outage.
func dirtyMachine(t *testing.T, rc RunConfig, org func(*multicore.Config), dirt string) *multicore.System {
	t.Helper()
	prof, err := workload.ByName(rc.App)
	if err != nil {
		t.Fatal(err)
	}
	prof.Seed += 7919
	rc = goldenConfig(rc, org)
	rc.Profile = &prof
	r := &crashRun{rc: rc}
	if err := r.rewind(0); err != nil {
		t.Fatal(err)
	}
	if dirt == "run" {
		if err := r.sys.Run(multicore.CycleBudget(rc.InstsPerThread)); err != nil {
			t.Fatal(err)
		}
		return r.sys
	}
	v, err := r.cut(TorturePoint{Cycle: dirtyCutCycle}, false)
	if err != nil {
		t.Fatal(err)
	}
	if v.Completed {
		t.Fatalf("the dirtying run completed before cycle %d", dirtyCutCycle)
	}
	if dirt == "down" {
		return r.down
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
// behind must be rewound. Every case also resets the crash driver's down
// machine after a recovered cut: a crash copy, whose hierarchy and persist
// backends were left to the outage, must rewind too. One lockstep case checks that the reset rewinds
// the oracle in place and hooks it up to the commit, accept and log
// streams: the run must be checked clean, still match its golden, and leave
// the oracle reporting what a freshly built machine's oracle reports.
func TestResetMatchesGoldens(t *testing.T) {
	type resetCase struct {
		name    string
		rc      RunConfig
		threads int
		org     func(*multicore.Config)
		want    [2]string
		dirt    string
	}
	runOrCrash := [2]string{"run", "crash"}
	var cases []resetCase
	for i, run := range goldenSchemeRuns {
		for j, s := range Schemes() {
			key := run.app + "/" + string(s)
			cases = append(cases, resetCase{key, RunConfig{App: run.app, Scheme: s, InstsPerThread: run.insts},
				run.threads, nil, goldenSchemeDigests[key], runOrCrash[(i+j)%2]})
		}
	}
	for i, run := range goldenOrgRuns {
		cases = append(cases, resetCase{run.name, run.rc, run.threads, run.org, run.digests, runOrCrash[i%2]})
	}
	cases = append(cases, resetCase{"mcf/undolog/lockstep",
		RunConfig{App: "mcf", Scheme: SchemeUndoLog, InstsPerThread: 4000, Lockstep: true},
		1, nil, goldenSchemeDigests["mcf/undolog"], "crash"})
	for _, c := range cases {
		for _, dirt := range []string{c.dirt, "down"} {
			c := c
			c.dirt = dirt
			t.Run(c.name+"/"+c.dirt, func(t *testing.T) {
				t.Parallel()
				sys := dirtyMachine(t, c.rc, c.org, c.dirt)
				rc := goldenConfig(c.rc, c.org)
				resetOnto(t, sys, rc)
				if got := runDigests(t, sys, rc, c.threads); got != c.want {
					t.Errorf("reset machine digests %v, golden %v", got, c.want)
				}
				if !c.rc.Lockstep {
					return
				}
				if rep := sys.Oracle().Report(); rep.Commits != uint64(c.rc.InstsPerThread*c.threads) {
					t.Errorf("the oracle checked %d commits after the reset, want %d", rep.Commits, c.rc.InstsPerThread*c.threads)
				}
				fresh, err := NewSystem(rc)
				if err != nil {
					t.Fatal(err)
				}
				runDigests(t, fresh, rc, c.threads)
				got, err := json.Marshal(sys.Oracle().Report())
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(fresh.Oracle().Report())
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("the reset machine's oracle reports %s, a fresh machine's %s", got, want)
				}
			})
		}
	}
}
