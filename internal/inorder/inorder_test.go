package inorder_test

import (
	"testing"

	"ppa"
	"ppa/internal/checkpoint"
	"ppa/internal/inorder"
	"ppa/internal/multicore"
	"ppa/internal/mutation"
	"ppa/internal/persist"
)

// inOrderRun is the run configuration of app on a dual-issue in-order
// machine under scheme, with org's changes to the machine.
func inOrderRun(app string, insts int, scheme persist.Config, org func(*multicore.Config)) ppa.RunConfig {
	return ppa.RunConfig{App: app, SchemeOverride: &scheme, InstsPerThread: insts, Customize: func(c *multicore.Config) {
		c.InOrder = true
		c.Pipeline.Width = 2
		if org != nil {
			org(c)
		}
	}}
}

// wb2 gives every core a two-entry write buffer.
func wb2(c *multicore.Config) { c.Hierarchy.WBEntries = 2 }

func mustRun(t *testing.T, rc ppa.RunConfig) *ppa.Result {
	t.Helper()
	res, err := ppa.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInOrderBaselineCompletes(t *testing.T) {
	res := mustRun(t, inOrderRun("gcc", 8000, persist.BaselineDefault(), nil))
	if res.Insts != 8000 {
		t.Fatalf("committed %d", res.Insts)
	}
	if ipc := res.IPC(); ipc <= 0 || ipc > 2 {
		t.Fatalf("IPC %v out of range for a dual-issue core", ipc)
	}
}

func TestInOrderSlowerThanOoO(t *testing.T) {
	// A dual-issue blocking core must be slower than the 4-wide OoO
	// machine on the same trace.
	in := mustRun(t, inOrderRun("sjeng", 8000, persist.BaselineDefault(), nil))
	ooo := mustRun(t, ppa.RunConfig{App: "sjeng", Scheme: ppa.SchemeBaseline, InstsPerThread: 8000})
	if in.IPC() > 1.2 || in.IPC() >= ooo.IPC() {
		t.Fatalf("in-order IPC %v implausibly high (out-of-order %v)", in.IPC(), ooo.IPC())
	}
}

func TestInOrderPPARegions(t *testing.T) {
	sys, err := ppa.NewSystem(inOrderRun("gcc", 15000, inorder.PPAScheme(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(multicore.CycleBudget(15000)); err != nil {
		t.Fatal(err)
	}
	core := sys.Cores()[0]
	st := core.Stats()
	if st.Regions == 0 {
		t.Fatal("value-CSQ PPA must form regions")
	}
	if st.Stores == 0 {
		t.Fatal("no stores committed")
	}
	// CSQ capacity bounds every region.
	if len(core.CSQ()) > 40 {
		t.Fatalf("CSQ holds %d entries", len(core.CSQ()))
	}
}

// TestInOrderStallCounters requires the in-order core to charge the
// stall counters a stall breakdown reads: behind a two-entry write buffer a
// ready store waits for room (WBFullStalls), and mcf's regions fill the
// 40-entry CSQ (CSQMaxDepth).
func TestInOrderStallCounters(t *testing.T) {
	sys, err := ppa.NewSystem(inOrderRun("mcf", 20000, inorder.PPAScheme(), wb2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(multicore.CycleBudget(20000)); err != nil {
		t.Fatal(err)
	}
	st := sys.Cores()[0].Stats()
	if st.WBFullStalls == 0 {
		t.Error("no write-buffer-full stall charged behind a two-entry write buffer")
	}
	if st.CSQMaxDepth != 40 {
		t.Errorf("CSQ high-water mark %d, want the full 40 entries", st.CSQMaxDepth)
	}
}

func TestInOrderRejectsIndexCSQ(t *testing.T) {
	bad := persist.PPADefault() // index-bearing CSQ needs a PRF
	if _, err := ppa.NewSystem(inOrderRun("gcc", 100, bad, nil)); err == nil {
		t.Fatal("an in-order machine must reject a PRF-indexed CSQ")
	}
}

// TestInOrderSchemeSupport pins which schemes the in-order core models:
// merge-only and async store retire without a persist backend. Everything
// else (gating, logging, clwb, a backend, the async ablations) must make
// NewSystem fail, not be silently dropped.
func TestInOrderSchemeSupport(t *testing.T) {
	sync := inorder.PPAScheme()
	sync.SyncStorePersist = true
	eager := inorder.PPAScheme()
	eager.EagerFlush = true
	for _, tc := range []struct {
		name string
		cfg  persist.Config
		ok   bool
	}{
		{"baseline", persist.BaselineDefault(), true},
		{"dram-only", persist.DRAMOnlyDefault(), true},
		{"eadr", persist.EADRDefault(), true},
		{"in-order ppa", inorder.PPAScheme(), true},
		{"sb-gate", persist.SBGateDefault(), false},
		{"undolog", persist.UndoLogDefault(), false},
		{"replaycache", persist.ReplayCacheDefault(), false},
		{"capri", persist.CapriDefault(), false},
		{"htpm", persist.HTPMDefault(), false},
		{"redotxn", persist.RedoTxnDefault(), false},
		{"sync-persist", sync, false},
		{"eager-flush", eager, false},
	} {
		_, err := ppa.NewSystem(inOrderRun("gcc", 100, tc.cfg, nil))
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: the in-order machine must reject it", tc.name)
		}
	}
}

// TestInOrderFunctionalEquivalence runs the core under the lockstep oracle,
// which re-derives every committed instruction's destination value, store
// and LCPC on an independent ISA-level model.
func TestInOrderFunctionalEquivalence(t *testing.T) {
	rc := inOrderRun("xz", 6000, inorder.PPAScheme(), nil)
	rc.Lockstep = true
	sys, err := ppa.NewSystem(rc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(multicore.CycleBudget(6000)); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Oracle().Report(); rep.Commits != 6000 || rep.Barriers == 0 {
		t.Fatalf("the oracle checked %d commits and %d barriers", rep.Commits, rep.Barriers)
	}
}

// failAndRecover cuts power at each cycle of fails on rc's lockstep machine
// through the crash driver, and requires recovery to land on the committed
// prefix, with the oracle's agreement, and the resumed run to complete.
func failAndRecover(t *testing.T, rc ppa.RunConfig, fails ...uint64) []*ppa.CrashVerdict {
	t.Helper()
	rc.Lockstep = true
	var outs []*ppa.CrashVerdict
	for _, fail := range fails {
		out, err := ppa.RunWithFailure(rc, fail)
		if err != nil {
			t.Fatalf("%s fail@%d: %v", rc.App, fail, err)
		}
		switch {
		case out.Completed:
			t.Fatalf("%s fail@%d: the run completed first", rc.App, fail)
		case out.Violation != "" || !out.OracleChecked:
			t.Fatalf("%s fail@%d: %d words lost, oracle checked %v: %s",
				rc.App, fail, out.Inconsistencies, out.OracleChecked, out.Violation)
		case out.Resumed == nil || out.Resumed.Insts == 0:
			t.Fatalf("%s fail@%d: the recovered machine did not resume", rc.App, fail)
		}
		outs = append(outs, out)
	}
	return outs
}

func TestInOrderCrashRecovery(t *testing.T) {
	rc := inOrderRun("mcf", 12000, inorder.PPAScheme(), nil)
	out := failAndRecover(t, rc, 40_000)[0]
	if out.CheckpointBytes == 0 {
		t.Fatal("no checkpoint reached NVM")
	}
	// The checkpoint round-trips through the encoded form too.
	sys, err := ppa.NewSystem(rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunUntil(40_000); err != nil {
		t.Fatal(err)
	}
	im := new(checkpoint.Image)
	im.CaptureFrom(sys.Cores()[0])
	decoded, err := checkpoint.Decode(im.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if im.Committed == 0 || decoded.Committed != im.Committed || decoded.LCPC != im.LCPC ||
		len(decoded.CSQ) != len(im.CSQ) || len(decoded.CRT)+len(decoded.Regs) != 0 {
		t.Fatal("checkpoint round trip lost state")
	}
}

func TestInOrderCrashSweep(t *testing.T) {
	failAndRecover(t, inOrderRun("lbm", 8000, inorder.PPAScheme(), nil), 500, 3_000, 12_000, 30_000)
}

func TestInOrderPPAOverheadModest(t *testing.T) {
	base := mustRun(t, inOrderRun("sjeng", 10000, persist.BaselineDefault(), nil))
	ppaRes := mustRun(t, inOrderRun("sjeng", 10000, inorder.PPAScheme(), nil))
	slow := float64(ppaRes.Cycles) / float64(base.Cycles)
	if slow < 1.0 {
		t.Fatalf("PPA cannot be faster: %.3f", slow)
	}
	if slow > 1.5 {
		t.Fatalf("in-order PPA overhead %.3f implausible", slow)
	}
}

// TestInOrderFullWriteBufferCrashConsistent: a store must not retire past a
// full write buffer. With a two-entry buffer, a store that dropped its
// persist would leave a region closed but not durable, and a power cut would
// recover to an image missing committed words.
func TestInOrderFullWriteBufferCrashConsistent(t *testing.T) {
	for _, app := range []string{"mcf", "lbm", "xz"} {
		failAndRecover(t, inOrderRun(app, 8000, inorder.PPAScheme(), wb2), 12_000, 30_000)
	}
}

// TestInOrderTortureSweep runs the in-order PPA core through the torture
// sweep under lockstep, with the default and a two-entry write buffer:
// every fault kind, nested outages included, must end in a verified
// recovery or a typed refusal. A failure schedule then cuts power again
// and again, each time resuming on a machine built around the surviving
// device.
func TestInOrderTortureSweep(t *testing.T) {
	points := ppa.TorturePoints(11, 30, 200, 32_000)
	for name, org := range map[string]func(*multicore.Config){"wb-default": nil, "wb2": wb2} {
		rc := inOrderRun("mcf", 2000, inorder.PPAScheme(), org)
		rc.Lockstep = true
		rep, err := ppa.RunTorture(rc, points, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 || len(rep.ByKind) != 5 || rep.Recovered == 0 || rep.Detected == 0 {
			t.Fatalf("%s: %d violations (first %+v), kinds %v, %d recovered, %d detected",
				name, len(rep.Violations), rep.Violations, rep.ByKind, rep.Recovered, rep.Detected)
		}
		out, err := ppa.RunWithFailureSchedule(rc, ppa.FailEvery(5000, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed || len(out.Verdicts) < 3 || !out.Consistent() {
			t.Fatalf("%s: failure schedule %+v", name, out)
		}
	}
}

// TestInOrderCrashPathCatchesMutations is the in-order crash path's teeth:
// a lockstep torture sweep of clean cuts every 997 cycles over mcf, lbm and
// xz must flag every point-spanning seeded bug of the write buffer, the
// WPQ and CSQ replay, and must come through clean without one. It enables
// a package-global mutation, so it must not run in parallel.
func TestInOrderCrashPathCatchesMutations(t *testing.T) {
	violations := func() int {
		n := 0
		for _, app := range []string{"mcf", "lbm", "xz"} {
			var points []ppa.TorturePoint
			for cyc := uint64(997); cyc < 70_000; cyc += 997 {
				points = append(points, ppa.TorturePoint{Cycle: cyc})
			}
			rc := inOrderRun(app, 4000, inorder.PPAScheme(), nil)
			rc.Lockstep = true
			rep, err := ppa.RunTorture(rc, points, nil)
			if err != nil {
				t.Fatal(err)
			}
			n += len(rep.Violations)
		}
		return n
	}
	if n := violations(); n != 0 {
		t.Fatalf("the unmutated sweep has %d violations", n)
	}
	for _, m := range []mutation.Mutation{mutation.CacheCoalesceDropWord, mutation.RecoveryReplayOffByOne, mutation.NVMCoalesceSkipImage} {
		mutation.Enable(m)
		n := violations()
		mutation.Disable()
		t.Logf("%v: %d violating points", m, n)
		if n == 0 {
			t.Errorf("%v escaped the in-order crash path", m)
		}
	}
}
