package ppa

import (
	"bytes"
	"slices"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/mutation"
)

func TestAppsPopulation(t *testing.T) {
	apps := Apps()
	if len(apps) != 41 {
		t.Fatalf("%d apps, the paper evaluates 41", len(apps))
	}
}

func TestSchemeConfigResolution(t *testing.T) {
	for _, s := range Schemes() {
		cfg, err := SchemeConfig(s)
		if err != nil {
			t.Errorf("%s: %v", s, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s, err)
		}
	}
	if _, err := SchemeConfig("bogus"); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestRunDefaults(t *testing.T) {
	res, err := Run(RunConfig{App: "gcc", InstsPerThread: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme.Kind.String() != "ppa" {
		t.Fatalf("default scheme %v", res.Scheme.Kind)
	}
	if res.Insts != 5000 {
		t.Fatalf("insts %d", res.Insts)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Fatal("missing app must error")
	}
	if _, err := Run(RunConfig{App: "nope"}); err == nil {
		t.Fatal("unknown app must error")
	}
	if _, err := Run(RunConfig{App: "gcc", Scheme: "nope"}); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestRunWithProfileOverride(t *testing.T) {
	p := WorkloadProfile{
		Name: "custom", Suite: "custom",
		LoadRatio: 0.2, StoreRatio: 0.1, BranchRatio: 0.1,
		DepDistance: 8, HotFraction: 0.9, HotBytes: 4096,
		WarmBytes: 1 << 20, FootprintBytes: 1 << 22,
		StackBytes: 256, Seed: 99,
	}
	res, err := Run(RunConfig{Profile: &p, Scheme: SchemeBaseline, InstsPerThread: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "custom" {
		t.Fatalf("workload %q", res.Workload)
	}
}

func TestCustomizeHook(t *testing.T) {
	small, err := Run(RunConfig{App: "hmmer", Scheme: SchemePPA, InstsPerThread: 8000,
		Customize: func(cfg *MachineConfig) {
			cfg.Pipeline.Rename.IntPhysRegs = 80
			cfg.Pipeline.Rename.FPPhysRegs = 80
		}})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Run(RunConfig{App: "hmmer", Scheme: SchemePPA, InstsPerThread: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if small.AvgRegionLen() >= def.AvgRegionLen() {
		t.Fatalf("80/80 regions (%v) must be shorter than default (%v)",
			small.AvgRegionLen(), def.AvgRegionLen())
	}
}

func TestRunWithFailureMultiCore(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "fft", Scheme: SchemePPA, InstsPerThread: 6000}, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Skip("finished before failure")
	}
	if out.Inconsistencies != 0 {
		t.Fatalf("multi-core recovery inconsistent: %d words", out.Inconsistencies)
	}
	if len(out.PerCore) != 8 {
		t.Fatalf("%d per-core outcomes", len(out.PerCore))
	}
	if out.Resumed == nil {
		t.Fatal("no resumed result")
	}
}

func TestRunWithFailureCompletesCleanly(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 1000}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed || out.Violation != "" {
		t.Fatal("run should complete before such a late failure")
	}
}

// TestFailureSweepProperty crashes PPA at a sweep of cycles on a
// multi-threaded workload and requires consistency at every point.
func TestFailureSweepProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, fail := range []uint64{500, 2_000, 5_000, 9_000, 15_000, 22_000} {
		out, err := RunWithFailure(RunConfig{App: "water-ns", Scheme: SchemePPA, InstsPerThread: 4000}, fail)
		if err != nil {
			t.Fatalf("fail@%d: %v", fail, err)
		}
		if out.Completed {
			continue
		}
		if out.Inconsistencies != 0 {
			t.Fatalf("fail@%d: %d inconsistencies", fail, out.Inconsistencies)
		}
	}
}

// TestCapriCrashConsistency: Capri's battery-backed redo buffer makes it
// durable at store commit, so its NVM image must also hold the committed
// prefix after a crash (no replay needed).
func TestCapriCrashConsistency(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "sjeng", Scheme: SchemeCapri, InstsPerThread: 8000}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Skip("finished early")
	}
	if out.Inconsistencies != 0 {
		t.Fatalf("Capri inconsistent: %d words", out.Inconsistencies)
	}
}

func TestCheckpointSizeIsTiny(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 10000}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Skip("finished early")
	}
	// One core's encoded image stays within a few KB — six orders of
	// magnitude below eADR's flush requirement.
	if out.CheckpointBytes > 8<<10 {
		t.Fatalf("checkpoint %d bytes — should be tiny", out.CheckpointBytes)
	}
}

// TestSBGateCrashConsistency: the Section 6 alternative is also crash
// consistent — its gated store buffer is the (battery-backed) recovery
// log — it is just slower than PPA.
func TestSBGateCrashConsistency(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "lbm", Scheme: SchemeSBGate, InstsPerThread: 10000}, 15_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Skip("finished early")
	}
	if out.Inconsistencies != 0 {
		t.Fatalf("SB gating inconsistent: %d words", out.Inconsistencies)
	}
	if out.Resumed == nil {
		t.Fatal("no resumed result")
	}
}

// TestCrashDuringSyscallHandler exercises Section 5: a power failure in the
// middle of kernel-mode execution recovers exactly like user code — the
// handler resumes from the last commit point.
func TestCrashDuringSyscallHandler(t *testing.T) {
	// memcached profiles trap into the kernel regularly; sweep failure
	// points so several land inside handler bursts.
	for _, fail := range []uint64{3_000, 7_000, 12_000} {
		out, err := RunWithFailure(RunConfig{App: "r20w80", Scheme: SchemePPA, InstsPerThread: 8000}, fail)
		if err != nil {
			t.Fatalf("fail@%d: %v", fail, err)
		}
		if out.Completed {
			continue
		}
		if out.Inconsistencies != 0 {
			t.Fatalf("fail@%d: kernel-mode crash lost %d words", fail, out.Inconsistencies)
		}
	}
}

func TestCharacterize(t *testing.T) {
	c, err := Characterize("mcf", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if c.App != "mcf" || c.Suite != "CPU2006" || c.Threads != 1 {
		t.Fatalf("identity wrong: %+v", c)
	}
	if c.LoadPct < 20 || c.LoadPct > 50 {
		t.Fatalf("load%% %v", c.LoadPct)
	}
	if c.IPC <= 0 || c.PPASlowdown < 0.99 {
		t.Fatalf("measurements wrong: IPC %v slow %v", c.IPC, c.PPASlowdown)
	}
	if c.RegionLen <= 0 || c.RegionStores <= 0 {
		t.Fatal("region characterization missing")
	}
	if _, err := Characterize("bogus", 100); err == nil {
		t.Fatal("unknown app must error")
	}
}

// TestCustomizerRejectsUnsupportedRetire: a JSON override that gives a
// scheme a retire knob no store-retire policy describes must fail at
// assembly. A clwb per store on Capri, which has no async persist path,
// used to be accepted and then hang the machine.
func TestCustomizerRejectsUnsupportedRetire(t *testing.T) {
	customize, err := MachineCustomizer([]byte(`{"Scheme":{"ClwbPerStore":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(RunConfig{App: "mcf", Scheme: SchemeCapri, InstsPerThread: 4000, Customize: customize}); err == nil {
		t.Fatal("capri with a clwb per store must be rejected")
	}
}

func TestMachineConfigJSON(t *testing.T) {
	tmpl, err := DefaultMachineConfigJSON(8, SchemePPA)
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpl) == 0 {
		t.Fatal("empty template")
	}

	customize, err := MachineCustomizer([]byte(`{"NVM": {"WPQEntries": 4}, "Pipeline": {"ROBSize": 96}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 3000, Customize: customize})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no run")
	}

	// The override must actually apply: shrink the ROB drastically and the
	// run slows down.
	tiny, err := MachineCustomizer([]byte(`{"Pipeline": {"ROBSize": 8}}`))
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(RunConfig{App: "gcc", Scheme: SchemeBaseline, InstsPerThread: 5000, Customize: tiny})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(RunConfig{App: "gcc", Scheme: SchemeBaseline, InstsPerThread: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if small.Cycles <= full.Cycles {
		t.Fatalf("ROB-8 (%d cycles) should be slower than ROB-224 (%d)", small.Cycles, full.Cycles)
	}

	if _, err := MachineCustomizer([]byte(`{bad json`)); err == nil {
		t.Fatal("bad JSON must error")
	}
	// A key that sets nothing must error, not load as a no-op: a
	// misspelled field, a per-core field the machine overwrites, and a
	// deleted knob.
	for _, doc := range []string{
		`{"NVM":{"WPQEntires":4}}`,
		`{"Pipeline":{"Scheme":{"CSQEntries":3}}}`,
		`{"NVM":{"WearLeveling":true}}`,
	} {
		if _, err := MachineCustomizer([]byte(doc)); err == nil {
			t.Errorf("%s must error", doc)
		}
	}
	// The template and an override of the in-order core still load.
	for i, doc := range [][]byte{tmpl, []byte(`{"InOrder": true, "Pipeline": {"Width": 2}, "Scheme": {"DynamicRegions": false, "ValueCSQ": true}, "Hierarchy": {"WBEntries": 2}}`)} {
		if _, err := MachineCustomizer(doc); err != nil {
			t.Errorf("document %d: %v", i, err)
		}
	}
	if _, err := MachineCustomizerFromFile("/nonexistent/x.json"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestExportImportTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportTrace(&buf, "gcc", 2000, 0); err != nil {
		t.Fatal(err)
	}
	prog, err := isa.DecodeProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "gcc" || prog.Len() != 2000 {
		t.Fatalf("trace %q/%d", prog.Name, prog.Len())
	}
	if err := ExportTrace(&buf, "fft", 100, 99); err == nil {
		t.Fatal("out-of-range thread id must error")
	}
	if err := ExportTrace(&buf, "bogus", 100, 0); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestRunInOrder(t *testing.T) {
	res, err := RunInOrder("sjeng", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != 8000 || res.Regions == 0 {
		t.Fatalf("in-order run wrong: %+v", res)
	}
	if res.Slowdown < 1.0 || res.Slowdown > 1.5 {
		t.Fatalf("in-order PPA slowdown %.3f out of band", res.Slowdown)
	}
	if _, err := RunInOrder("bogus", 100); err == nil {
		t.Fatal("unknown app must error")
	}
}

// TestEADRCrashFlushes: eADR's defining mechanism — on power failure the
// battery flushes the entire dirty hierarchy, so it is crash consistent
// but pays for megabytes where PPA pays for a couple of kilobytes.
func TestEADRCrashFlushes(t *testing.T) {
	out, err := RunWithFailure(RunConfig{App: "lbm", Scheme: SchemeEADR, InstsPerThread: 15000}, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Skip("finished early")
	}
	if out.Inconsistencies != 0 {
		t.Fatalf("eADR flush-on-failure must be consistent: %d lost", out.Inconsistencies)
	}
	if out.FlushedBytes == 0 {
		t.Fatal("eADR must have flushed dirty data")
	}
	// The energy contrast: PPA checkpoints a fixed couple of KB; eADR
	// flushes its working set's dirty bytes.
	ppaOut, err := RunWithFailure(RunConfig{App: "lbm", Scheme: SchemePPA, InstsPerThread: 15000}, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if ppaOut.FlushedBytes != 0 {
		t.Fatal("PPA flushes nothing on failure")
	}
	if ppaOut.CheckpointBytes >= out.FlushedBytes {
		t.Fatalf("PPA checkpoint (%dB) should be far below eADR's flush (%dB)",
			ppaOut.CheckpointBytes, out.FlushedBytes)
	}
	t.Logf("eADR flushed %d bytes; PPA checkpointed %d bytes", out.FlushedBytes, ppaOut.CheckpointBytes)
}

func TestTables(t *testing.T) {
	if rows := Table1(); len(rows) != 2 || rows[1].Mechanism != "PPA" || rows[1].ReachesNVM == false && rows[0].ReachesNVM == true {
		t.Fatalf("Table 1 wrong: %+v", rows)
	}
	if s := Table2(); len(s) < 100 {
		t.Fatalf("Table 2 rendering too short: %q", s)
	}
	rows3 := Table3()
	if len(rows3) != 9 {
		t.Fatalf("Table 3 has %d rows, want 9", len(rows3))
	}
	for _, r := range rows3 {
		if r.FootprintMB == 0 || r.Description == "" {
			t.Fatalf("Table 3 row incomplete: %+v", r)
		}
	}
	if rows4 := Table4(); len(rows4) != 3 {
		t.Fatalf("Table 4 rows: %d", len(rows4))
	}
	t5 := Table5()
	if len(t5.Rows) != 3 || t5.WorstCaseBytes < 1700 || t5.WorstCaseBytes > 1900 {
		t.Fatalf("Table 5 wrong: %+v", t5)
	}
	if rows6 := Table6(); len(rows6) != 4 || rows6[3].Scheme != "PPA" {
		t.Fatalf("Table 6 wrong")
	}
	// PPA dominates Table 6: no recompilation, transparent, DRAM cache and
	// multi-MC enabled, low complexity and energy.
	ppaRow := Table6()[3]
	if ppaRow.Recompilation || !ppaRow.Transparency || !ppaRow.EnableDRAMCache || !ppaRow.EnableMultiMCs {
		t.Fatalf("PPA's Table 6 row lost its wins: %+v", ppaRow)
	}
}

func TestTable4ArealHeadline(t *testing.T) {
	f := Table4ArealOverhead()
	if f < 0.00004 || f > 0.00007 {
		t.Fatalf("areal overhead %.6f, paper 0.005%%", f)
	}
}

func TestVerifyApp(t *testing.T) {
	report, err := VerifyApp("gcc", SchemePPA, 8000, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("PPA verification failed: %s", report)
	}
	if report.Trials != 4 {
		t.Fatalf("trials %d", report.Trials)
	}
	if report.String() == "" {
		t.Fatal("empty report string")
	}

	base, err := VerifyApp("mcf", SchemeBaseline, 12000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if base.OK() && base.Completed < base.Trials {
		t.Fatal("the baseline should fail verification when interrupted")
	}
}

// TestVerifyAppChecksArchState: a trial whose NVM image recovers to the
// committed prefix but whose recovered register state diverges from the
// golden model is a failed trial. A stale commit-table tag leaves the image
// intact and corrupts only the register state, so every interrupted trial
// that recovers it wrong must be listed in Failed. Not parallel: the
// seeded-bug registry is process-global.
func TestVerifyAppChecksArchState(t *testing.T) {
	mutation.Enable(mutation.RenameCRTStaleTag)
	defer mutation.Disable()
	o := VerifyOptions{App: "mcf", Scheme: SchemePPA, InstsPerThread: 6000, Trials: 8, Seed: 1}
	rep, err := VerifyAppOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	archOnly := 0
	for _, v := range rep.Verdicts {
		if v.Completed || v.ArchConsistent {
			continue
		}
		if v.Inconsistencies == 0 {
			archOnly++
		}
		if !slices.Contains(rep.Failed, v.Point.Cycle) {
			t.Errorf("cycle %d recovered a diverged register state, but VerifyApp counts it consistent", v.Point.Cycle)
		}
	}
	if archOnly == 0 {
		t.Fatal("no trial recovered a consistent image with a diverged register state; the test checks nothing")
	}
}
