// Package recovery's tests exercise the paper's recovery protocol at the
// unit level and property-test the crash-consistency contract: for any
// failure point, replaying the checkpointed CSQ restores the committed
// prefix of every thread.
package recovery

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppa/internal/cache"
	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
	"ppa/internal/rename"
	"ppa/internal/workload"
)

// crashAt runs one PPA core and cuts power at the given cycle, returning
// everything recovery needs.
func crashAt(t *testing.T, app string, insts int, failCycle uint64) (
	*isa.Program, *nvm.Device, *checkpoint.Image) {
	t.Helper()
	p, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.GenerateThread(p, insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
	core, err := pipeline.New(pipeline.DefaultConfig(persist.PPADefault()), prog, hier, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := uint64(0); !core.Done() && cyc < failCycle; cyc++ {
		hier.Tick(cyc)
		core.Step(cyc)
	}
	im := checkpoint.Capture(core)
	hier.PowerFail()
	return prog, dev, im
}

func TestReplayRestoresConsistency(t *testing.T) {
	prog, dev, im := crashAt(t, "mcf", 20000, 30000)
	if im.Committed == 0 {
		t.Skip("nothing committed before failure")
	}
	// Before replay the image may be inconsistent; after replay it must
	// hold the committed prefix exactly.
	if _, err := Replay(dev, im); err != nil {
		t.Fatal(err)
	}
	if n := CountInconsistencies(dev, isa.RunGolden(prog, im.Committed)); n != 0 {
		t.Fatalf("%d inconsistent words", n)
	}
	if n := CountInconsistencies(dev, isa.RunGolden(prog, im.Committed)); n != 0 {
		t.Fatalf("%d inconsistencies after replay", n)
	}
}

func TestReplayIsIdempotent(t *testing.T) {
	// Footnote 8: stores are idempotent; double replay is harmless.
	prog, dev, im := crashAt(t, "gcc", 20000, 25000)
	if _, err := Replay(dev, im); err != nil {
		t.Fatal(err)
	}
	snap1 := dev.Image().Snapshot()
	if _, err := Replay(dev, im); err != nil {
		t.Fatal(err)
	}
	snap2 := dev.Image().Snapshot()
	if len(snap1) != len(snap2) {
		t.Fatal("double replay changed the image size")
	}
	for a, v := range snap1 {
		if snap2[a] != v {
			t.Fatalf("double replay changed %#x", a)
		}
	}
	_ = prog
}

func TestReplayThroughEncodedCheckpoint(t *testing.T) {
	// The full hardware path: encode to the NVM checkpoint area, decode,
	// then replay.
	prog, dev, im := crashAt(t, "xz", 20000, 30000)
	dev.WriteCheckpoint(im.Encode())
	decoded, err := checkpoint.Decode(dev.ReadCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dev, decoded); err != nil {
		t.Fatal(err)
	}
	if n := CountInconsistencies(dev, isa.RunGolden(prog, decoded.Committed)); n != 0 {
		t.Fatalf("%d inconsistent words", n)
	}
}

func TestRestoreRenamerMatchesGolden(t *testing.T) {
	prog, _, im := crashAt(t, "sjeng", 20000, 30000)
	ren := rename.New(rename.DefaultConfig())
	if err := RestoreRenamer(ren, im); err != nil {
		t.Fatal(err)
	}
	if err := VerifyArchState(ren, isa.RunGolden(prog, im.Committed)); err != nil {
		t.Fatal(err)
	}
}

func TestResumeIndex(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog, _ := workload.GenerateThread(p, 100, 0)
	// Nothing committed.
	if idx, err := ResumeIndex(prog, 0); err != nil || idx != 0 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
	// After instruction k, resume at k+1.
	lcpc := prog.Insts[41].PC
	idx, err := ResumeIndex(prog, lcpc)
	if err != nil || idx != 42 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
	// LCPC of the last instruction resumes past the end.
	idx, err = ResumeIndex(prog, prog.Insts[99].PC)
	if err != nil || idx != 100 {
		t.Fatalf("end idx=%d err=%v", idx, err)
	}
	// Out-of-range LCPCs error.
	if _, err := ResumeIndex(prog, prog.Insts[99].PC+4); err == nil {
		t.Fatal("beyond-end LCPC must error")
	}
	if _, err := ResumeIndex(prog, prog.Insts[0].PC-8); err == nil {
		t.Fatal("below-base LCPC must error")
	}
	if _, err := ResumeIndex(&isa.Program{}, 4); err == nil {
		t.Fatal("empty program must error")
	}
}

func TestRecoverEndToEnd(t *testing.T) {
	prog, dev, im := crashAt(t, "lbm", 20000, 30000)
	out, err := Recover(dev, im, prog)
	if err != nil {
		t.Fatal(err)
	}
	if out.ResumeIndex != im.Committed {
		t.Fatalf("resume index %d, committed %d", out.ResumeIndex, im.Committed)
	}
	if n := CountInconsistencies(dev, isa.RunGolden(prog, im.Committed)); n != 0 {
		t.Fatalf("%d inconsistent words", n)
	}
}

func TestReplayMissingRegisterRejected(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	im := &checkpoint.Image{
		CSQ: []pipeline.CSQEntry{{
			Phys: rename.PhysRef{Class: isa.ClassInt, Idx: 7},
			Addr: 0x100,
		}},
	}
	if _, err := Replay(dev, im); err == nil {
		t.Fatal("CSQ referencing an uncheckpointed register must error")
	}
}

func TestValueBearingReplay(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	im := &checkpoint.Image{
		CSQ: []pipeline.CSQEntry{
			{Addr: 0x200, Val: 99, ValueBearing: true},
		},
	}
	out, err := Replay(dev, im)
	if err != nil {
		t.Fatal(err)
	}
	if out.ReplayedWords != 1 || dev.ReadWord(0x200) != 99 {
		t.Fatal("value-bearing entry not replayed")
	}
}

// TestCrashConsistencyProperty is the paper's central claim as a property
// test: crash PPA at ANY cycle, replay, and the NVM image equals the
// committed prefix.
func TestCrashConsistencyProperty(t *testing.T) {
	apps := []string{"gcc", "mcf", "lbm", "bzip2", "xz"}
	rng := rand.New(rand.NewSource(12345))
	f := func(seed uint32) bool {
		app := apps[int(seed)%len(apps)]
		failCycle := 1000 + uint64(rng.Intn(60000))
		p, _ := workload.ByName(app)
		prog, _ := workload.GenerateThread(p, 15000, 0)
		dev := nvm.NewDevice(nvm.DefaultConfig())
		hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
		core, err := pipeline.New(pipeline.DefaultConfig(persist.PPADefault()), prog, hier, nil)
		if err != nil {
			return false
		}
		for cyc := uint64(0); !core.Done() && cyc < failCycle; cyc++ {
			hier.Tick(cyc)
			core.Step(cyc)
		}
		im := checkpoint.Capture(core)
		hier.PowerFail()
		if _, err := Replay(dev, im); err != nil {
			t.Logf("%s@%d: replay error %v", app, failCycle, err)
			return false
		}
		if n := CountInconsistencies(dev, isa.RunGolden(prog, im.Committed)); n != 0 {
			t.Logf("%s@%d: %d inconsistent words", app, failCycle, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredArchStateProperty: for any failure point the recovered
// committed register state equals the golden in-order state.
func TestRecoveredArchStateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	f := func(_ uint32) bool {
		failCycle := 2000 + uint64(rng.Intn(40000))
		p, _ := workload.ByName("sjeng")
		prog, _ := workload.GenerateThread(p, 12000, 0)
		dev := nvm.NewDevice(nvm.DefaultConfig())
		hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
		core, _ := pipeline.New(pipeline.DefaultConfig(persist.PPADefault()), prog, hier, nil)
		for cyc := uint64(0); !core.Done() && cyc < failCycle; cyc++ {
			hier.Tick(cyc)
			core.Step(cyc)
		}
		im := checkpoint.Capture(core)
		ren := rename.New(rename.DefaultConfig())
		if err := RestoreRenamer(ren, im); err != nil {
			return false
		}
		return VerifyArchState(ren, isa.RunGolden(prog, im.Committed)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestContextSwitchCrashRecovery exercises Section 5: a hardware thread
// time-slicing between two processes, with power failing at points that
// land inside scheduler bursts and process quanta alike. Recovery must
// restore the committed prefix regardless.
func TestContextSwitchCrashRecovery(t *testing.T) {
	a, _ := workload.ByName("gcc")
	b, _ := workload.ByName("mcf")
	prog, err := workload.GenerateMultiProcess([]workload.Profile{a, b}, 800, 15000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range []uint64{1_500, 4_000, 9_000, 20_000, 45_000} {
		dev := nvm.NewDevice(nvm.DefaultConfig())
		hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
		core, err := pipeline.New(pipeline.DefaultConfig(persist.PPADefault()), prog, hier, nil)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := uint64(0); !core.Done() && cyc < fail; cyc++ {
			hier.Tick(cyc)
			core.Step(cyc)
		}
		im := checkpoint.Capture(core)
		hier.PowerFail()
		if _, err := Replay(dev, im); err != nil {
			t.Fatalf("fail@%d: %v", fail, err)
		}
		if n := CountInconsistencies(dev, isa.RunGolden(prog, im.Committed)); n != 0 {
			t.Fatalf("fail@%d: %d inconsistent words", fail, n)
		}
		// The resume point is derivable from the LCPC alone.
		idx, err := ResumeIndex(prog, im.LCPC)
		if err != nil {
			t.Fatalf("fail@%d: %v", fail, err)
		}
		if idx != im.Committed {
			t.Fatalf("fail@%d: resume %d != committed %d", fail, idx, im.Committed)
		}
	}
}
