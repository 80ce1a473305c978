package ppa

import (
	"testing"

	"ppa/internal/multicore"
	"ppa/internal/persist"
)

// TestSchemeConformanceMatrix is the cross-scheme conformance matrix: every
// persistence scheme in the zoo runs the same three-leg gauntlet, with the
// assertions keyed to the scheme's declared recovery contract rather than to
// its name — a scheme added behind the PersistScheme interface is conformance
// tested by construction.
//
//   - Leg 1: an uninterrupted lockstep run. The commit-stream oracle applies
//     to every scheme; schemes whose image is built from the accept stream
//     also get the final durable-image check.
//
//   - Leg 2: six crash points spread across the run, each recovered under
//     the scheme's own protocol. Contract-carrying schemes (committed-prefix
//     and transaction-boundary) must recover a consistent image, pass the
//     oracle's independent recovered-image equality check, and resume to
//     completion. Contract-free schemes (baseline, DRAM-only, ReplayCache)
//     must still converge — recovery completes and the programs resume —
//     but nothing is promised about the image, and the oracle must not
//     judge them.
//
//   - Leg 3 (implicit in Leg 2): the resumed run re-attaches the lockstep
//     oracle from the resume point, so post-recovery divergence surfaces as
//     an error from RunWithFailure.
//
//   - Leg 4: a multi-failure schedule, power failing every quarter of the
//     clean run, oracle attached. Contract-carrying schemes must complete
//     with every recovery consistent. Contract-free schemes must converge
//     and complete; their verdicts count lost words only, since the oracle
//     does not judge them.
//
// Section 6's in-order core runs the same legs twice more: in-order PPA
// under PPA's committed-prefix contract, and the in-order baseline as a
// contract-free negative control.
func TestSchemeConformanceMatrix(t *testing.T) {
	type leg struct {
		name      string
		scheme    Scheme
		customize func(*multicore.Config)
	}
	var legs []leg
	for _, s := range Schemes() {
		legs = append(legs, leg{string(s), s, nil})
	}
	legs = append(legs, leg{"inorder-ppa", SchemePPA, inOrderPPA}, leg{"inorder-baseline", SchemeBaseline, inOrderCore})
	for _, l := range legs {
		l := l
		t.Run(l.name, func(t *testing.T) {
			t.Parallel()
			cfg, err := SchemeConfig(l.scheme)
			if err != nil {
				t.Fatal(err)
			}
			contract := persist.SchemeFor(cfg).Contract()
			rc := RunConfig{App: "mcf", Scheme: l.scheme, InstsPerThread: 3000, Lockstep: true, Customize: l.customize}

			// Leg 1: lockstep-clean uninterrupted run.
			res, err := Run(rc)
			if err != nil {
				t.Fatalf("clean lockstep run: %v", err)
			}
			if res.Cycles == 0 {
				t.Fatal("no cycles simulated")
			}

			// Leg 2: six oracle-checked crash points across the run.
			crashed := 0
			for i := 1; i <= 6; i++ {
				cycle := res.Cycles * uint64(i) / 8
				if cycle == 0 {
					cycle = 1
				}
				out, ferr := RunWithFailure(rc, cycle)
				if ferr != nil {
					t.Fatalf("crash at cycle %d: %v", cycle, ferr)
				}
				if out.Completed {
					continue
				}
				crashed++
				if out.Resumed == nil {
					t.Fatalf("crash at cycle %d: recovery did not resume", cycle)
				}
				if len(out.PerCore) == 0 {
					t.Fatalf("crash at cycle %d: no per-core recovery outcomes", cycle)
				}
				switch contract {
				case persist.RecoverNone:
					// Convergence only: the oracle must not have judged an
					// image these schemes never promised.
					if out.OracleChecked {
						t.Fatalf("crash at cycle %d: oracle judged a contract-free scheme", cycle)
					}
				default:
					if out.Inconsistencies != 0 {
						t.Fatalf("crash at cycle %d: %d inconsistent words after recovery",
							cycle, out.Inconsistencies)
					}
					if !out.ArchConsistent {
						t.Fatalf("crash at cycle %d: recovered register state diverged", cycle)
					}
					if !out.OracleChecked {
						t.Fatalf("crash at cycle %d: oracle recovery check did not engage", cycle)
					}
					if out.OracleErr != nil {
						t.Fatalf("crash at cycle %d: oracle violation: %v", cycle, out.OracleErr)
					}
				}
			}
			if crashed == 0 {
				t.Fatal("every crash point fell after workload completion; matrix exercised nothing")
			}

			// Leg 4: repeated failures through the schedule runner.
			sched, err := RunWithFailureSchedule(rc, FailEvery(res.Cycles/4, res.Cycles/8))
			if err != nil {
				t.Fatalf("failure schedule: %v", err)
			}
			if !sched.Completed || len(sched.Verdicts) < 2 {
				t.Fatalf("failure schedule: completed=%v after %d failures", sched.Completed, len(sched.Verdicts))
			}
			switch contract {
			case persist.RecoverNone:
				if sched.Consistent() != (lostWords(sched) == 0) {
					t.Fatalf("failure schedule: violations %q judged beyond lost words (%d)",
						violations(sched), lostWords(sched))
				}
			default:
				if !sched.Consistent() {
					t.Fatalf("failure schedule: lost %d words, violations %q",
						lostWords(sched), violations(sched))
				}
			}
		})
	}
}

// TestEveryCycleSchemeMatrix cuts every cycle of one short lockstep run
// under each scheme, and recovers and verifies each cut. The contract
// schemes must recover every cut, each under the oracle's independent
// check. The contract-free schemes are the negative controls: recovery
// leaves memory short of the committed prefix at thousands of their cuts,
// and committed-prefix must be the verifier that says so at each one. Their
// counts are pinned (baseline and dram-only lose data at all but the first
// 382 cuts, replaycache at about two in five), so a check that goes blind
// moves them.
func TestEveryCycleSchemeMatrix(t *testing.T) {
	wantViolated := map[Scheme]int{SchemeBaseline: 12_917, SchemeDRAMOnly: 11_997, SchemeReplayCache: 12_020}
	for _, s := range Schemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			cfg, err := SchemeConfig(s)
			if err != nil {
				t.Fatal(err)
			}
			contract := persist.SchemeFor(cfg).Contract()
			rc := RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000, Lockstep: true}
			var vs []*CrashVerdict
			res, err := (&crashRun{rc: rc}).campaign(everyCycle, func(v *CrashVerdict) { vs = append(vs, v) })
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) == 0 || uint64(len(vs)) != res.Cycles-1 {
				t.Fatalf("%d cuts of a %d-cycle run", len(vs), res.Cycles)
			}
			violated := 0
			for _, v := range vs {
				switch {
				case v.Completed:
					t.Fatalf("cut at cycle %d of a %d-cycle run found the workload complete", v.Point.Cycle, res.Cycles)
				case v.Violation != "" && (contract != persist.RecoverNone || v.Verifier != "committed-prefix"):
					t.Fatalf("cut at cycle %d under the %s contract: %s: %s", v.Point.Cycle, contract, v.Verifier, v.Violation)
				case v.Violation != "":
					violated++
				case contract != persist.RecoverNone && !v.OracleChecked:
					t.Fatalf("cut at cycle %d: the oracle did not check the recovered image", v.Point.Cycle)
				}
			}
			if violated != wantViolated[s] {
				t.Fatalf("%d of %d cuts violated the committed prefix, want %d", violated, len(vs), wantViolated[s])
			}
		})
	}
}
