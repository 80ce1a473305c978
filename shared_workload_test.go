package ppa

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"ppa/internal/multicore"
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
			var verdicts []*TortureOutcome
			par, err := RunTortureParallel(context.Background(), rc, points, 2, func(o *TortureOutcome) {
				verdicts = append(verdicts, o)
			})
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]*TortureOutcome, len(points))
			for i, p := range points {
				if outs[i], err = RunTorturePoint(rc, p); err != nil {
					t.Fatalf("point %v: %v", p, err)
				}
			}
			own, err := AggregateTortureOutcomes(nil, points, outs, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The report is blind to passing points' details, so every
			// verdict is compared too.
			got, err := json.Marshal([]any{par, verdicts})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal([]any{own, outs})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("shared-workload sweep differs from per-point workloads:\n%s\n%s", got, want)
			}
			if par.Recovered == 0 {
				t.Fatal("no point recovered: the sweep never reached recovery")
			}
		})
	}
}
