package multicore_test

import (
	"fmt"
	"reflect"
	"testing"

	"ppa/internal/cache"
	"ppa/internal/inorder"
	"ppa/internal/isa"
	"ppa/internal/litmus"
	"ppa/internal/multicore"
	"ppa/internal/nvm"
	"ppa/internal/obs"
	"ppa/internal/oracle"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// The advance loop skips a stretch of cycles when every unit reports,
// through NextEvent, that its state cannot change before a later cycle,
// and charges the stretch like the idle cycle before it. These tests hold
// the units to that promise by stepping machines one cycle at a time with
// the loop's own single step, and hold the skipping loop to reaching the
// state, counters included, that cycle-by-cycle stepping reaches.

var allSchemes = []persist.Config{
	persist.BaselineDefault(), persist.PPADefault(), persist.ReplayCacheDefault(),
	persist.CapriDefault(), persist.EADRDefault(), persist.DRAMOnlyDefault(),
	persist.SBGateDefault(), persist.UndoLogDefault(), persist.RedoTxnDefault(),
	persist.HTPMDefault(),
}

// unit is one part of the machine that reports its own NextEvent.
type unit struct {
	name  string
	next  func(cycle uint64) uint64
	state func() uint64 // fingerprint without the idle counters
}

// otherUnits are the types a unit's fingerprint does not descend into:
// the other units, the oracle, and the constant programs.
var otherUnits = []reflect.Type{
	reflect.TypeOf(&cache.Hierarchy{}), reflect.TypeOf(&nvm.Device{}),
	reflect.TypeOf(&persist.LogPath{}), reflect.TypeOf(&persist.RedoPath{}),
	reflect.TypeOf(&oracle.Machine{}), reflect.TypeOf(&isa.Program{}),
}

func units(s *multicore.System, cores bool) []unit {
	var us []unit
	if cores {
		for i, c := range s.Cores() {
			us = append(us, unit{fmt.Sprintf("core %d", i), c.NextEvent,
				func() uint64 { return fingerprint(c, false, otherUnits...) }})
		}
	}
	h := s.Hierarchy()
	us = append(us, unit{"hierarchy", h.NextEvent, func() uint64 {
		return fingerprint(h, false, otherUnits[2:]...)
	}})
	for i, b := range multicore.Backends(s) {
		us = append(us, unit{fmt.Sprintf("backend %d", i), b.NextEvent, func() uint64 {
			return fingerprint(b, false, otherUnits...)
		}})
	}
	return us
}

// stepChecked steps s one cycle at a time, its cores too when cores is
// set, until settled reports true or the clock reaches bound. Before each
// step it asks every unit for NextEvent; a unit whose state then changes
// in a cycle before the one it reported fails the test, unless another
// unit reported that cycle or earlier (a unit may react to another's
// change in the same cycle). It returns the cycles at which every unit
// reported a later cycle, the ones a skip may cover.
func stepChecked(t *testing.T, s *multicore.System, cores bool, bound uint64, settled func() bool) (quiet int) {
	t.Helper()
	us := units(s, cores)
	reports := make([]uint64, len(us))
	prints := make([]uint64, len(us))
	for i, u := range us {
		prints[i] = u.state()
	}
	for !settled() && s.Cycle() < bound {
		now := s.Cycle()
		first, second := uint64(1<<64-1), uint64(1<<64-1) // two smallest reports
		for i, u := range us {
			r := u.next(now)
			if r < now {
				t.Fatalf("cycle %d: %s reports past cycle %d", now, u.name, r)
			}
			reports[i] = r
			if r < first {
				first, second = r, first
			} else if r < second {
				second = r
			}
		}
		if first > now {
			quiet++
		}
		if err := multicore.Step(s, cores); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		for i, u := range us {
			p := u.state()
			if p == prints[i] {
				continue
			}
			prints[i] = p
			others := first
			if reports[i] == first {
				others = second
			}
			if reports[i] > now && others > now {
				t.Fatalf("cycle %d: %s changed, but reported cycle %d and every other unit a later cycle than %d",
					now, u.name, reports[i], now)
			}
		}
	}
	return quiet
}

// machine builds w's machine under cfg twice: one to step, one to run.
func machines(t *testing.T, cfg multicore.Config, w *workload.Workload) (stepped, skipping *multicore.System) {
	t.Helper()
	a, err := multicore.NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := multicore.NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// sameMachine requires the machine that skipped to match the one stepped
// cycle by cycle: the clock and every field, counters included.
func sameMachine(t *testing.T, stepped, skipping *multicore.System) {
	t.Helper()
	if stepped.Cycle() != skipping.Cycle() {
		t.Fatalf("skipping run ended at cycle %d, stepped run at %d", skipping.Cycle(), stepped.Cycle())
	}
	if a, b := fingerprint(stepped, true), fingerprint(skipping, true); a != b {
		t.Fatalf("skipping run's machine %#x differs from the stepped run's %#x at cycle %d", b, a, stepped.Cycle())
	}
}

func workloadFor(t *testing.T, app string, insts int) *workload.Workload {
	t.Helper()
	p, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(p, insts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// checkRun steps a machine through a whole run under the promise check
// and requires Run on a twin to end in the same machine.
func checkRun(t *testing.T, cfg multicore.Config, w *workload.Workload, insts int) {
	t.Helper()
	stepped, skipping := machines(t, cfg, w)
	bound := multicore.CycleBudget(insts)
	quiet := stepChecked(t, stepped, true, bound, stepped.Done)
	if err := stepped.Run(bound); err != nil { // finished: only the end-of-run checks
		t.Fatal(err)
	}
	if err := skipping.Run(bound); err != nil {
		t.Fatal(err)
	}
	sameMachine(t, stepped, skipping)
	t.Logf("%d of %d cycles quiet", quiet, stepped.Cycle())
}

// TestNextEventPromise steps every scheme on a single-threaded and an
// 8-thread app, and the in-order core, one cycle at a time: no unit's
// state may change before the cycle it reported, and Run, which skips, must
// reach the same machine, counters included.
func TestNextEventPromise(t *testing.T) {
	skipUnderRace(t)
	for _, sc := range allSchemes {
		for _, app := range []struct {
			name  string
			insts int
		}{{"mcf", 800}, {"water-ns", 150}} {
			t.Run(fmt.Sprintf("%s/%s", app.name, sc.Kind), func(t *testing.T) {
				w := workloadFor(t, app.name, app.insts)
				checkRun(t, multicore.DefaultConfig(len(w.Threads), sc), w, app.insts)
			})
		}
	}
	t.Run("inorder/mcf", func(t *testing.T) {
		w := workloadFor(t, "mcf", 1500)
		cfg := multicore.DefaultConfig(1, inorder.PPAScheme())
		cfg.InOrder = true
		cfg.Pipeline.Width = 2
		checkRun(t, cfg, w, 1500)
	})
	t.Run("free-regs/mcf", func(t *testing.T) {
		w := workloadFor(t, "mcf", 800)
		cfg := multicore.DefaultConfig(1, persist.PPADefault())
		cfg.Pipeline.SampleFreeRegs = true
		checkRun(t, cfg, w, 800)
	})
	t.Run("small-prf/mcf/baseline", func(t *testing.T) {
		// Idle cycles whose rename finds no free register: the skip
		// charges the renamer's refusals too.
		w := workloadFor(t, "mcf", 800)
		cfg := multicore.DefaultConfig(1, persist.BaselineDefault())
		cfg.Pipeline.Rename.IntPhysRegs, cfg.Pipeline.Rename.FPPhysRegs = 48, 48
		checkRun(t, cfg, w, 800)
	})
	t.Run("slow-log/mcf/undolog", func(t *testing.T) {
		// Idle cycles whose commit finds the log full: the skip charges
		// the log path's refusals too.
		w := workloadFor(t, "mcf", 800)
		sc := persist.UndoLogDefault()
		sc.LogBufBytes, sc.LogDrainCycles = 16, 40
		checkRun(t, multicore.DefaultConfig(1, sc), w, 800)
	})
	t.Run("wpq-full/rb", func(t *testing.T) {
		// Idle cycles that offer a refused line: the skip charges the
		// rejections.
		w := workloadFor(t, "rb", 150)
		cfg := multicore.DefaultConfig(len(w.Threads), persist.PPADefault())
		cfg.NVM.WPQEntries, cfg.NVM.WCBEntries = 2, 2
		checkRun(t, cfg, w, 150)
	})
	t.Run("traced/rb", func(t *testing.T) {
		// A traced device with a full WPQ may not skip: each rejection is a
		// trace event. Both runs must emit the same events.
		const insts = 150
		w := workloadFor(t, "rb", insts)
		var hubs [2]*obs.Hub
		var sys [2]*multicore.System
		for i := range sys {
			cfg := multicore.DefaultConfig(len(w.Threads), persist.PPADefault())
			cfg.NVM.WPQEntries, cfg.NVM.WCBEntries = 2, 2 // the media backs up into the WPQ
			hubs[i] = obs.NewHub(1 << 16)
			cfg.Obs = hubs[i]
			var err error
			if sys[i], err = multicore.NewSystem(cfg, w); err != nil {
				t.Fatal(err)
			}
		}
		bound := multicore.CycleBudget(insts)
		stepChecked(t, sys[0], true, bound, sys[0].Done)
		for _, s := range sys {
			if err := s.Run(bound); err != nil {
				t.Fatal(err)
			}
		}
		sameMachine(t, sys[0], sys[1])
		rejects := hubs[0].Registry().Counter("nvm.wpq-rejects").Value()
		if rejects == 0 {
			t.Fatal("no WPQ rejection: the traced-rejection case is not exercised")
		}
		if got := hubs[1].Registry().Counter("nvm.wpq-rejects").Value(); got != rejects {
			t.Fatalf("skipping run counted %d WPQ rejections, stepped run %d", got, rejects)
		}
		if a, b := hubs[0].Tracer().Events(), hubs[1].Tracer().Events(); !reflect.DeepEqual(a, b) {
			t.Fatalf("skipping run traced %d events, stepped run %d, not the same", len(b), len(a))
		}
	})
}

// TestNextEventPromiseLitmus runs the litmus corpus as the harness does
// (seeded step order, perturbed write-buffer accepts, a lockstep oracle,
// short persist latencies) under ppa and redotxn, through the run and the
// persist drain after it, under the promise check; Run and DrainPersists
// on a twin must reach the same machine.
func TestNextEventPromiseLitmus(t *testing.T) {
	skipUnderRace(t)
	for _, sc := range []persist.Config{persist.PPADefault(), persist.RedoTxnDefault()} {
		for _, lt := range litmus.ConformanceCorpus() {
			t.Run(fmt.Sprintf("%s/%s", sc.Kind, lt.Name), func(t *testing.T) {
				c, err := litmus.Compile(lt)
				if err != nil {
					t.Fatal(err)
				}
				w := &workload.Workload{
					Profile: workload.Profile{Name: "litmus", DepDistance: 1, Threads: len(c.Progs), SyncContention: 1},
					Threads: c.Progs,
				}
				for seed := uint64(1); seed <= 7; seed += 2 {
					cfg := multicore.DefaultConfig(len(c.Progs), sc)
					cfg.Hierarchy.PersistTransit = 24
					cfg.Hierarchy.PersistLag = 60
					cfg.StepSeed = seed
					cfg.PersistPerturb = func(core int, cycle uint64) bool {
						x := (cycle*0x9E3779B97F4A7C15 ^ uint64(core)*0xBF58476D1CE4E5B9) + seed
						x ^= x >> 31
						return x*0x94D049BB133111EB>>62 == 0
					}
					cfg.Lockstep = true
					stepped, skipping := machines(t, cfg, w)
					const bound = 50_000
					stepChecked(t, stepped, true, bound, stepped.Done)
					if err := stepped.Run(bound); err != nil { // finished: only the end-of-run checks
						t.Fatal(err)
					}
					drain := stepped.Cycle() + bound
					stepChecked(t, stepped, false, drain, func() bool { return drained(stepped) })
					if err := skipping.Run(bound); err != nil {
						t.Fatal(err)
					}
					if err := skipping.DrainPersists(bound); err != nil {
						t.Fatal(err)
					}
					sameMachine(t, stepped, skipping)
				}
			})
		}
	}
}

// drained is DrainPersists' stopping condition.
func drained(s *multicore.System) bool {
	if s.Hierarchy().PersistBacklog() > 0 || !s.Device().Drained(s.Cycle()) {
		return false
	}
	for _, b := range multicore.Backends(s) {
		for c := range s.Cores() {
			if b.PendingOf(c) > 0 {
				return false
			}
		}
	}
	return true
}

// TestRunUntilLandsOnEveryCycle cuts a short mcf run at every cycle: each
// RunUntil, on a fresh machine, must stop exactly at its target with the
// machine that stepping cycle by cycle has there. (A reset machine would
// do, but keeps stale slots in its rings that the fingerprint reads.)
func TestRunUntilLandsOnEveryCycle(t *testing.T) {
	skipUnderRace(t)
	const insts = 300
	w := workloadFor(t, "mcf", insts)
	cfg := multicore.DefaultConfig(1, persist.PPADefault())
	stepped, _ := machines(t, cfg, w)
	var want []uint64
	for !stepped.Done() {
		want = append(want, fingerprint(stepped, true))
		if err := multicore.Step(stepped, true); err != nil {
			t.Fatal(err)
		}
	}
	want = append(want, fingerprint(stepped, true))
	for target := range want {
		skipping, err := multicore.NewSystem(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		done, err := skipping.RunUntil(uint64(target))
		if err != nil {
			t.Fatal(err)
		}
		if got := skipping.Cycle(); got != uint64(target) || done != (target == len(want)-1) {
			t.Fatalf("RunUntil(%d) stopped at cycle %d (done %v)", target, got, done)
		}
		if got := fingerprint(skipping, true); got != want[target] {
			t.Fatalf("RunUntil(%d) reached machine %#x, stepping reached %#x", target, got, want[target])
		}
	}
}

func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine cycle-by-cycle check; see race_enabled_test.go")
	}
}
