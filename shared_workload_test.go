package ppa

import (
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
			_, shared, err := assemble(base)
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
