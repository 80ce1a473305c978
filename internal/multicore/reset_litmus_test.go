package multicore_test

import (
	"fmt"
	"reflect"
	"testing"

	"ppa/internal/litmus"
	"ppa/internal/multicore"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// resetKeeps lists the storage a reset machine keeps with stale contents on
// purpose, each with the reason no run reads them: the reset-versus-fresh
// fingerprint leaves these fields out, and nothing else.
var resetKeeps = map[string]string{
	"pipeline.Core.rob":     "dispatch writes every field of a ROB slot before the slot becomes live",
	"cache.setAssoc.chunks": "claim clears a unit before it hands it out, and only claimed units are read",
	"nvm.channel.wpq":       "a ring read only at its wpqN live entries, each written by the push that counts it",
	"cache.writeBuffer.buf": "a ring read only at its live entries, each written whole by the add that counts it",
	// The write-combining buffer's node pool and list links. A fresh
	// channel builds them on first use, an emptied buffer behaves as a newly
	// built one (wcbBuf.empty), and idx and n, which the fingerprint keeps,
	// say that it holds no line.
	"nvm.wcbBuf.nodes":       wcbPool,
	"nvm.wcbBuf.head":        wcbPool,
	"nvm.wcbBuf.tail":        wcbPool,
	"nvm.wcbBuf.free":        wcbPool,
	"oracle.Machine.logPend": "each core's pending log map is kept and cleared, and an empty map reads as no map",
}

const wcbPool = "the write-combining buffer's node pool: which node holds a line is invisible outside it"

// litmusMachine builds a lockstep machine for w the way the litmus harness
// does, at step seed seed.
func litmusMachine(t *testing.T, sc persist.Config, w *workload.Workload, seed uint64) *multicore.System {
	t.Helper()
	cfg := multicore.DefaultConfig(len(w.Threads), sc)
	cfg.Hierarchy.PersistTransit = 24
	cfg.Hierarchy.PersistLag = 60
	cfg.StepSeed = seed
	cfg.PersistPerturb = func(core int, cycle uint64) bool { return (cycle+uint64(core))%4 == 0 }
	cfg.Lockstep = true
	s, err := multicore.NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func litmusWorkload(t *testing.T, lt *litmus.Test) *workload.Workload {
	t.Helper()
	c, err := litmus.Compile(lt)
	if err != nil {
		t.Fatal(err)
	}
	return &workload.Workload{
		Profile: workload.Profile{Name: "litmus", DepDistance: 1, Threads: len(c.Progs), SyncContention: 1},
		Threads: c.Progs,
	}
}

// TestResetMatchesFreshLitmusMachine: a 2-, 3- and 4-core lockstep litmus
// machine that ran a schedule to the end, or lost power partway through
// one, and was then Reset onto another test must be the machine NewSystem
// builds for that test, field for field and counters included, apart from
// the storage resetKeeps declares.
func TestResetMatchesFreshLitmusMachine(t *testing.T) {
	for _, sc := range []persist.Config{persist.PPADefault(), persist.RedoTxnDefault()} {
		for cores := 2; cores <= 4; cores++ {
			tests := litmus.Generate(litmus.GenOptions{Seed: 41, Count: 2, Cores: cores})
			first, next := litmusWorkload(t, tests[0]), litmusWorkload(t, tests[1])
			for _, leg := range []string{"run", "crash"} {
				t.Run(fmt.Sprintf("%s/%d-core/%s", sc.Kind, cores, leg), func(t *testing.T) {
					s := litmusMachine(t, sc, first, 3)
					if leg == "run" {
						if err := s.Run(50_000); err != nil {
							t.Fatal(err)
						}
						if err := s.DrainPersists(50_000); err != nil {
							t.Fatal(err)
						}
					} else {
						if _, err := s.RunUntil(90); err != nil {
							t.Fatal(err)
						}
						s.Hierarchy().PowerFail()
					}
					if s.Oracle().Report().Commits == 0 {
						t.Fatal("the first schedule committed nothing")
					}
					if err := s.Reset(next, 7); err != nil {
						t.Fatal(err)
					}
					fresh := litmusMachine(t, sc, next, 7)
					if path := resetDiff(reflect.ValueOf(s), reflect.ValueOf(fresh), "System"); path != "" {
						t.Fatalf("reset machine differs from a fresh one at %s", path)
					}
				})
			}
		}
	}
}

// resetPrint is the fingerprint, counters included, that leaves out the
// fields resetKeeps declares.
func resetPrint(v reflect.Value) uint64 {
	w := &walker{counters: true, seen: map[walkKey]bool{}, stop: map[reflect.Type]bool{}, keep: resetKeeps}
	w.value(v)
	return w.sum
}

// resetDiff returns the path of the first field in which a and b differ
// by resetPrint, or "" when they agree.
func resetDiff(a, b reflect.Value, path string) string {
	if resetPrint(a) == resetPrint(b) {
		return ""
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !a.IsNil() && !b.IsNil() && a.Elem().Type() == b.Elem().Type() {
			return resetDiff(a.Elem(), b.Elem(), path)
		}
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			name := t.String() + "." + t.Field(i).Name
			if loopFields[name] || resetKeeps[name] != "" {
				continue
			}
			if p := resetDiff(a.Field(i), b.Field(i), path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (length %d, fresh %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if p := resetDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	}
	return path
}

// TestResetAttachesOracleWithoutAllocating: resetting a lockstep redotxn
// machine allocates no more than resetting the same machine without the
// oracle. The device keeps its observer lists' storage across a reset, and
// the machine binds the oracle's accept and log observers once, so
// re-attaching the oracle to both streams costs nothing.
func TestResetAttachesOracleWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the count is taken without -race")
	}
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(lockstep bool) float64 {
		cfg := multicore.DefaultConfig(1, persist.RedoTxnDefault())
		cfg.Lockstep = lockstep
		sys, err := multicore.NewSystem(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := sys.Reset(w, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if plain, checked := allocs(false), allocs(true); checked > plain {
		t.Fatalf("a lockstep Reset allocates %.0f times, %.0f more than one without the oracle", checked, checked-plain)
	}
}
