package ppa

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"ppa/internal/fault"
	"ppa/internal/forensics"
	"ppa/internal/multicore"
	"ppa/internal/mutation"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// TestSharedWorkloadReadOnly checks that a machine only reads the workload
// it runs. One workload per app, assembled once, drives four lockstep
// machines under different schemes at the same time; each must collect the
// same Result as a Run that generated its own copy of the workload. Under
// -race this is the evidence that assemble may hand one workload to many
// machines.
func TestSharedWorkloadReadOnly(t *testing.T) {
	schemes := []Scheme{SchemePPA, SchemeUndoLog, SchemeCapri, SchemeHTPM}
	for _, app := range []string{"mcf", "rb"} {
		t.Run(app, func(t *testing.T) {
			base := RunConfig{App: app, InstsPerThread: 3000, Lockstep: true}
			_, shared, err := assemble(base, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]byte, len(schemes))
			errs := make([]error, len(schemes))
			var wg sync.WaitGroup
			for i, s := range schemes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rc := base
					rc.Scheme = s
					_, sch, insts, err := rc.resolve()
					if err != nil {
						errs[i] = err
						return
					}
					sys, err := multicore.NewSystem(rc.machineConfig(len(shared.Threads), sch), shared)
					if err != nil {
						errs[i] = err
						return
					}
					if err := sys.Run(multicore.CycleBudget(insts)); err != nil {
						errs[i] = err
						return
					}
					got[i], errs[i] = json.Marshal(sys.Collect())
				}()
			}
			wg.Wait()
			for i, s := range schemes {
				if errs[i] != nil {
					t.Fatalf("%s on the shared workload: %v", s, errs[i])
				}
				rc := base
				rc.Scheme = s
				res, err := Run(rc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if string(got[i]) != string(want) {
					t.Errorf("%s: Result on the shared workload differs from a private-workload Run", s)
				}
			}
		})
	}
}

// TestRunAllSharesWorkloads checks the figure harness's job matrix, whose
// jobs share one workload per profile and instruction count: two apps, one
// of them 8-threaded, under three schemes, with a customized job and one
// at another instruction count between them, must each collect the Result
// a Run of their own collects. Under -race it is the evidence that the
// jobs of a group only read the workload they share.
func TestRunAllSharesWorkloads(t *testing.T) {
	var jobs []runJob
	schemes := []persist.Config{persist.BaselineDefault(), persist.PPADefault(), persist.UndoLogDefault()}
	for _, app := range []string{"mcf", "water-ns"} {
		p, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			jobs = append(jobs, runJob{prof: p, scheme: s, insts: 2000})
		}
		if app == "mcf" {
			jobs = append(jobs,
				runJob{prof: p, scheme: persist.SBGateDefault(), insts: 2000,
					customize: func(c *multicore.Config) { c.Hierarchy.WBEntries = 2 }},
				runJob{prof: p, scheme: persist.PPADefault(), insts: 1500})
		}
	}
	got, err := runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, err := Run(RunConfig{Profile: &j.prof, SchemeOverride: &j.scheme, InstsPerThread: j.insts,
			Customize: j.customize})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := jsonDigest(t, got[i]), jsonDigest(t, want); g != w {
			t.Errorf("job %d (%s/%s, %d insts): runAll's Result differs from its own Run's", i, j.prof.Name, j.scheme.Kind, j.insts)
		}
	}
}

// TestTortureSweepSharesWorkload checks that a parallel sweep, whose
// workers share one workload, reaches the verdicts of points that each
// generate their own: for mcf under ppa and undolog, RunTortureParallel on
// two workers must report exactly what AggregateTortureOutcomes makes of
// per-point RunTorturePoint calls. Under -race it is the evidence that the
// shared workload stays read-only across a sweep.
func TestTortureSweepSharesWorkload(t *testing.T) {
	points := TorturePoints(5, 40, 200, 8000)
	for _, s := range []Scheme{SchemePPA, SchemeUndoLog} {
		t.Run(string(s), func(t *testing.T) {
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000, Lockstep: true}
			outs := checkSweepsMatchFresh(t, rc, points)
			rep, err := AggregateTortureOutcomes(nil, points, outs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recovered == 0 {
				t.Fatal("no point recovered: the sweep never reached recovery")
			}
		})
	}
}

// TestTortureWorkerResetMatchesFresh is the gate on the sweep workers'
// machine reuse: a worker advances one live machine through its points,
// resetting it in place only for a cut behind its clock, and crashes a
// copy at each cut, so each sweep must reach exactly the verdicts of
// points run on fresh machines. It covers every scheme (lockstep where the
// scheme has a recovery contract) and the L3 and two-entry write-buffer
// organizations, over points that reach every fault kind, torn dumps and
// nested depths 1 to 3, with some point following a detected or
// unrecovered one on the same machine. Point by point, a reset machine must
// also leave a fresh machine's crash state, not only its verdict. Two
// flight-recorder cases, one per
// seeded bug, check that each point's bundle, accept tail included, is the
// one a fresh machine captures: the tail must be tapped afresh after each
// reset and carried into each crashed copy.
func TestTortureWorkerResetMatchesFresh(t *testing.T) {
	points := TorturePoints(11, 30, 200, 8000)
	depths := map[int]bool{}
	kinds := map[FaultKind]bool{}
	for _, p := range points {
		kinds[p.Fault.Kind] = true
		if p.Depth > 0 {
			depths[p.Depth] = true
		}
	}
	if len(kinds) != len(fault.Kinds) || !depths[1] || !depths[2] || !depths[3] {
		t.Fatalf("points reach kinds %v and nested depths %v", kinds, depths)
	}
	type sweepCase struct {
		name string
		rc   RunConfig
	}
	var cases []sweepCase
	for _, s := range Schemes() {
		cases = append(cases, sweepCase{string(s), RunConfig{App: "mcf", Scheme: s}})
	}
	for _, run := range goldenOrgRuns {
		rc := run.rc
		rc.Customize = run.org
		cases = append(cases, sweepCase{run.name, rc})
	}
	// The core service order changes nothing on one core or, with disjoint
	// write sets, under ppa; 8-thread undolog machines share a log whose
	// order it moves, so a reset onto the wrong StepSeed shows there.
	cases = append(cases, sweepCase{"water-ns/undolog", RunConfig{App: "water-ns", Scheme: SchemeUndoLog}})
	for i := range cases {
		rc := &cases[i].rc
		cfg, err := SchemeConfig(rc.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		rc.InstsPerThread = 2000
		rc.Lockstep = persist.SchemeFor(cfg).Contract() != persist.RecoverNone
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkResetPointsMatchFresh(t, c.rc, points)
			outs := checkSweepsMatchFresh(t, c.rc, points)
			torn, after := false, false
			for i, o := range outs {
				torn = torn || o.Point.Fault.Kind == FaultTornCheckpoint && o.Injected
				after = after || i > 0 && (outs[i-1].Detected != nil || !outs[i-1].Recovered)
			}
			if !torn || !after {
				t.Fatalf("sweep tore a dump: %v; a point followed a detected or unrecovered one: %v", torn, after)
			}
		})
	}
	// The seeded rename bug diverges before the first NVM accept; the
	// dropped coalesced word diverges after accepts, so its bundles carry
	// accept tails that only a tail tapped afresh for the point matches.
	for _, m := range []mutation.Mutation{mutation.RenameCRTStaleTag, mutation.CacheCoalesceDropWord} {
		t.Run("forensics/"+m.String(), func(t *testing.T) {
			mutation.Enable(m)
			defer mutation.Disable()
			checkSweepBundlesMatchFresh(t, RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Lockstep: true}, points)
		})
	}
}

// checkResetPointsMatchFresh runs every point, in the order given, on one
// crashRun, as a sweep worker does, and on a fresh machine, and requires
// both to return the same record (the clock at the cut, the dump and flush
// sizes, each core's recovery outcome and the verdict) and to leave the
// same NVM image. Verdicts alone can agree on machines that stepped
// differently; these figures move with every cycle.
func checkResetPointsMatchFresh(t *testing.T, rc RunConfig, points []TorturePoint) {
	t.Helper()
	_, w, err := assemble(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := func(r *crashRun, p TorturePoint) string {
		v, err := r.cut(p, false)
		if v == nil {
			t.Fatalf("point %v: %v", p, err)
		}
		return jsonDigest(t, []any{v, cutMachine(r, v).Device().Image().Snapshot()})
	}
	reused := &crashRun{rc: rc, w: w}
	for _, p := range points {
		if got, want := state(reused, p), state(&crashRun{rc: rc, w: w}, p); got != want {
			t.Fatalf("point %v: the reset machine's crash state %s differs from a fresh machine's %s", p, got, want)
		}
	}
}

// checkSweepBundlesMatchFresh runs points through per-point RunTorturePoint
// calls, RunTorture and RunTortureParallel on two workers, each with a
// flight recorder, and requires every sweep to capture a bundle for the
// same points as the fresh machines, with the same Meta, Accepts and
// Divergence.
func checkSweepBundlesMatchFresh(t *testing.T, rc RunConfig, points []TorturePoint) {
	t.Helper()
	bundles := func(run func(rc RunConfig) error) map[string]*forensics.Bundle {
		rc := rc
		rc.Forensics = NewForensicsRecorder("", len(points))
		if err := run(rc); err != nil {
			t.Fatal(err)
		}
		byPoint := map[string]*forensics.Bundle{}
		for _, b := range rc.Forensics.Bundles() {
			if byPoint[b.Meta.Point] != nil {
				t.Fatalf("two bundles for point %s", b.Meta.Point)
			}
			byPoint[b.Meta.Point] = b
		}
		return byPoint
	}
	fresh := bundles(func(rc RunConfig) error {
		for _, p := range points {
			if _, err := RunTorturePoint(rc, p); err != nil {
				return err
			}
		}
		return nil
	})
	if len(fresh) < 2 {
		t.Fatalf("seeded bug captured %d bundles, want at least 2", len(fresh))
	}
	sweeps := []struct {
		name string
		got  map[string]*forensics.Bundle
	}{
		{"sequential", bundles(func(rc RunConfig) error {
			_, err := RunTorture(rc, points, nil)
			return err
		})},
		{"2 workers", bundles(func(rc RunConfig) error {
			_, err := RunTortureParallel(context.Background(), rc, points, 2, nil)
			return err
		})},
	}
	for _, sw := range sweeps {
		if len(sw.got) != len(fresh) {
			t.Fatalf("%s sweep captured %d bundles, fresh machines %d", sw.name, len(sw.got), len(fresh))
		}
		for point, want := range fresh {
			b := sw.got[point]
			if b == nil {
				t.Fatalf("%s sweep captured no bundle for point %s", sw.name, point)
			}
			// A worker's trace ring spans its earlier points; the rest of
			// the bundle belongs to this point alone.
			meta := b.Meta
			meta.TraceTotal = want.Meta.TraceTotal
			g, _ := json.Marshal([]any{meta, b.Accepts, b.Divergence})
			w, _ := json.Marshal([]any{want.Meta, want.Accepts, want.Divergence})
			if string(g) != string(w) {
				t.Fatalf("%s sweep bundle for point %s differs from the fresh machine's:\n%s\n%s", sw.name, point, g, w)
			}
		}
	}
}

// checkSweepsMatchFresh runs points through RunTorture and through
// RunTortureParallel on two workers, and requires each sweep's report and
// every verdict, in callback order, to be byte-identical to what
// AggregateTortureOutcomes makes of per-point RunTorturePoint calls, each
// on a fresh machine over a workload of its own. It returns those verdicts.
func checkSweepsMatchFresh(t *testing.T, rc RunConfig, points []TorturePoint) []*CrashVerdict {
	t.Helper()
	outs := make([]*CrashVerdict, len(points))
	for i, p := range points {
		var err error
		if outs[i], err = RunTorturePoint(rc, p); err != nil {
			t.Fatalf("point %v: %v", p, err)
		}
	}
	own, err := AggregateTortureOutcomes(nil, points, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The report is blind to passing points' details, so every verdict is
	// compared too.
	want, err := json.Marshal([]any{own, outs})
	if err != nil {
		t.Fatal(err)
	}
	sweeps := []struct {
		name string
		run  func(onPoint func(*CrashVerdict)) (*TortureReport, error)
	}{
		{"sequential", func(onPoint func(*CrashVerdict)) (*TortureReport, error) {
			return RunTorture(rc, points, onPoint)
		}},
		{"2 workers", func(onPoint func(*CrashVerdict)) (*TortureReport, error) {
			return RunTortureParallel(context.Background(), rc, points, 2, onPoint)
		}},
	}
	for _, sw := range sweeps {
		var verdicts []*CrashVerdict
		rep, err := sw.run(func(o *CrashVerdict) { verdicts = append(verdicts, o) })
		if err != nil {
			t.Fatalf("%s sweep: %v", sw.name, err)
		}
		got, err := json.Marshal([]any{rep, verdicts})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s sweep differs from fresh machines:\n%s\n%s", sw.name, got, want)
		}
	}
	return outs
}
