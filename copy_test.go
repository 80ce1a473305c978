package ppa

import (
	"testing"

	"ppa/internal/multicore"
	"ppa/internal/workload"
)

// copyCutCycles are where TestSystemCopyMatchesOriginal copies a machine:
// early, mid-run and late in a 2000-instruction mcf run.
var copyCutCycles = []uint64{300, 2500, 6000}

// TestSystemCopyMatchesOriginal is the differential gate on
// System.CopyFrom: for every scheme on mcf and the organization goldens (the
// in-order cores included), with lockstep on and off, a copy must be the
// machine it copied. At each of copyCutCycles the original, reset and run
// there, is copied into one reused machine; both lose power the same way
// (every other cut with a torn dump), and must leave the same encoded
// checkpoint images, flush and dump sizes, checkpoint area, persist logs and
// NVM image. Then a copy taken mid-run runs to completion before the
// original does, and both must collect the Result and final image of a run
// that was never copied.
func TestSystemCopyMatchesOriginal(t *testing.T) {
	for _, c := range copyCases() {
		rc := c.rc
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkCopyCrashes(t, rc)
			checkCopyRuns(t, rc)
		})
	}
}

// copyCase is one machine the copy gates copy.
type copyCase struct {
	name string
	rc   RunConfig
}

// copyCases are every scheme on mcf and the organization goldens (the
// in-order cores included) at 2000 instructions per thread, each with
// lockstep off and on.
func copyCases() []copyCase {
	var base []copyCase
	for _, s := range Schemes() {
		base = append(base, copyCase{"mcf/" + string(s), RunConfig{App: "mcf", Scheme: s, InstsPerThread: 2000}})
	}
	for _, run := range goldenOrgRuns {
		rc := run.rc
		rc.Customize = run.org
		rc.InstsPerThread = 2000
		base = append(base, copyCase{run.name, rc})
	}
	var cases []copyCase
	for _, c := range base {
		cases = append(cases, c)
		c.rc.Lockstep = true
		cases = append(cases, copyCase{c.name + "/lockstep", c.rc})
	}
	return cases
}

// TestCrashCopyMatchesCopyAndCrash is the differential gate on
// System.CrashCopy, which copies only what survives an outage: for every
// machine of copyCases, at each of copyCutCycles the running original is
// crash-copied into one reused machine and fully copied into another that
// then loses power the same way (every other cut with a torn dump). Both
// must report the same images, dump sizes, tear and durable structures,
// and leave the same flush size, checkpoint area, persist logs, NVM image,
// oracle report, collected Result and hierarchy counters. The original must
// then finish with the Result and image of a run that was never copied.
func TestCrashCopyMatchesCopyAndCrash(t *testing.T) {
	for _, c := range copyCases() {
		rc := c.rc
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			orig, full, w := buildPair(t, rc)
			cfg, _, err := assemble(rc, w)
			if err != nil {
				t.Fatal(err)
			}
			crashed, err := multicore.NewSystem(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			for i, cycle := range copyCutCycles {
				done, err := orig.RunUntil(cycle)
				if err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				if done {
					break
				}
				var opt multicore.CrashOptions
				if i%2 == 1 {
					opt.ShortfallPermille = 400
				}
				if err := full.CopyFrom(orig); err != nil {
					t.Fatal(err)
				}
				want := outageDigest(t, full, full.CrashWithOptions(opt))
				rep, err := crashed.CrashCopy(orig, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got := outageDigest(t, crashed, rep); got != want {
					t.Fatalf("cycle %d: the crash copy left %s, a full copy's outage %s", cycle, got, want)
				}
			}
			never, err := NewSystem(rc)
			if err != nil {
				t.Fatal(err)
			}
			budget := multicore.CycleBudget(rc.InstsPerThread)
			for _, sys := range []*multicore.System{never, orig} {
				if err := sys.Run(budget); err != nil {
					t.Fatal(err)
				}
			}
			final := func(sys *multicore.System) string {
				return jsonDigest(t, []any{sys.Collect(), sys.Device().Image().Snapshot()})
			}
			if got, want := final(orig), final(never); got != want {
				t.Errorf("the original finished after its crash copies with %s, a never-copied run with %s", got, want)
			}
		})
	}
}

// outageDigest digests what an outage reported and left on sys.
func outageDigest(t *testing.T, sys *multicore.System, rep *multicore.CrashReport) string {
	t.Helper()
	var images [][]byte
	for _, im := range rep.Images {
		images = append(images, im.Encode())
	}
	dev := sys.Device()
	var logs [][]any
	for core := range sys.Cores() {
		logs = append(logs, []any{dev.LogRecords(core)})
	}
	var orc any
	if m := sys.Oracle(); m != nil {
		orc = m.Report()
	}
	h := sys.Hierarchy()
	return jsonDigest(t, []any{sys.Cycle(), images, rep.CheckpointBytes, rep.FullBytes, rep.Torn,
		rep.StructuresCovered, sys.LastCrashFlushBytes(), dev.ReadCheckpoint(), logs, dev.Image().Snapshot(),
		orc, sys.Collect(), h.NVMWritebacks, h.DRAMWritebacks, h.Invalidations})
}

// buildPair builds two machines for rc over one workload, w.
func buildPair(t *testing.T, rc RunConfig) (orig, dup *multicore.System, w *workload.Workload) {
	t.Helper()
	cfg, w, err := assemble(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if orig, err = multicore.NewSystem(cfg, w); err != nil {
		t.Fatal(err)
	}
	if dup, err = multicore.NewSystem(cfg, w); err != nil {
		t.Fatal(err)
	}
	return orig, dup, w
}

// checkCopyCrashes crashes the original and its copy at every cut cycle
// and compares what each outage left behind.
func checkCopyCrashes(t *testing.T, rc RunConfig) {
	t.Helper()
	orig, dup, w := buildPair(t, rc)
	crashed := func(sys *multicore.System, opt multicore.CrashOptions) string {
		rep := sys.CrashWithOptions(opt)
		var images [][]byte
		for _, im := range rep.Images {
			images = append(images, im.Encode())
		}
		dev := sys.Device()
		var logs [][]any
		for core := range sys.Cores() {
			logs = append(logs, []any{dev.LogRecords(core)})
		}
		return jsonDigest(t, []any{sys.Cycle(), images, rep.CheckpointBytes, rep.FullBytes, rep.Torn,
			rep.StructuresCovered, sys.LastCrashFlushBytes(), dev.ReadCheckpoint(), logs, dev.Image().Snapshot()})
	}
	for i, c := range copyCutCycles {
		if i > 0 {
			if err := orig.Reset(w, orig.Config().StepSeed); err != nil {
				t.Fatal(err)
			}
		}
		done, err := orig.RunUntil(c)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if done {
			continue
		}
		if err := dup.CopyFrom(orig); err != nil {
			t.Fatal(err)
		}
		var opt multicore.CrashOptions
		if i%2 == 1 {
			opt.ShortfallPermille = 400
		}
		if got, want := crashed(dup, opt), crashed(orig, opt); got != want {
			t.Fatalf("cycle %d: the copy's outage left %s, the original's %s", c, got, want)
		}
	}
}

// checkCopyRuns copies a machine into one reused machine at every cut
// cycle it reaches, runs the last copy to completion and then the
// original, and compares both with a run that was never copied.
func checkCopyRuns(t *testing.T, rc RunConfig) {
	t.Helper()
	final := func(sys *multicore.System) string {
		if err := sys.Run(multicore.CycleBudget(rc.InstsPerThread)); err != nil {
			t.Fatal(err)
		}
		return jsonDigest(t, []any{sys.Collect(), sys.Device().Image().Snapshot()})
	}
	never, err := NewSystem(rc)
	if err != nil {
		t.Fatal(err)
	}
	want := final(never)
	orig, dup, _ := buildPair(t, rc)
	for _, c := range copyCutCycles {
		if _, err := orig.RunUntil(c); err != nil {
			t.Fatal(err)
		}
		if err := dup.CopyFrom(orig); err != nil {
			t.Fatal(err)
		}
	}
	if got := final(dup); got != want {
		t.Errorf("the copy finished with %s, a never-copied run with %s", got, want)
	}
	if got := final(orig); got != want {
		t.Errorf("the original finished after its copy with %s, a never-copied run with %s", got, want)
	}
}

// TestSystemCopyRefusesOtherShapes checks that CopyFrom refuses a machine
// of another core count, core model, scheme, ROB or register-file size,
// free-register sampling or lockstep setting before it changes anything.
func TestSystemCopyRefusesOtherShapes(t *testing.T) {
	base := RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000}
	others := map[string]RunConfig{
		"8 cores":        {App: "water-ns", Scheme: SchemePPA, InstsPerThread: 2000},
		"in-order cores": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Customize: inOrderPPA},
		"scheme":         {App: "mcf", Scheme: SchemeUndoLog, InstsPerThread: 2000},
		"ROB size": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000,
			Customize: func(c *multicore.Config) { c.Pipeline.ROBSize /= 2 }},
		"register file": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000,
			Customize: func(c *multicore.Config) { c.Pipeline.Rename.IntPhysRegs -= 20 }},
		"lockstep": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000, Lockstep: true},
		"free-register sampling": {App: "mcf", Scheme: SchemePPA, InstsPerThread: 2000,
			Customize: func(c *multicore.Config) { c.Pipeline.SampleFreeRegs = true }},
	}
	for name, other := range others {
		t.Run(name, func(t *testing.T) {
			dst, err := NewSystem(base)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dst.RunUntil(1000); err != nil {
				t.Fatal(err)
			}
			before := jsonDigest(t, []any{dst.Cycle(), dst.Collect(), dst.Device().Image().Snapshot()})
			src, err := NewSystem(other)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := src.RunUntil(3000); err != nil {
				t.Fatal(err)
			}
			if err := dst.CopyFrom(src); err == nil {
				t.Fatalf("CopyFrom accepted a machine of another %s", name)
			}
			if err := src.CopyFrom(dst); err == nil {
				t.Fatalf("CopyFrom onto a machine of another %s succeeded", name)
			}
			if after := jsonDigest(t, []any{dst.Cycle(), dst.Collect(), dst.Device().Image().Snapshot()}); after != before {
				t.Fatal("a refused CopyFrom changed the machine")
			}
		})
	}
}
