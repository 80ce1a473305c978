package inorder

import (
	"testing"

	"ppa/internal/cache"
	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/persist"
	"ppa/internal/recovery"
	"ppa/internal/workload"
)

func build(t *testing.T, app string, insts int, scheme persist.Config) (*Core, *cache.Hierarchy) {
	t.Helper()
	p, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.GenerateThread(p, insts, 0)
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
	core, err := New(DefaultConfig(scheme), prog, hier)
	if err != nil {
		t.Fatal(err)
	}
	return core, hier
}

func run(t *testing.T, c *Core, h *cache.Hierarchy, maxCycles uint64) {
	t.Helper()
	for cyc := uint64(0); !c.Done(); cyc++ {
		if cyc >= maxCycles {
			t.Fatalf("in-order core wedged at %d/%d", c.Committed(), c.Program().Len())
		}
		h.Tick(cyc)
		c.Step(cyc)
	}
}

func TestInOrderBaselineCompletes(t *testing.T) {
	c, h := build(t, "gcc", 8000, persist.BaselineDefault())
	run(t, c, h, 50_000_000)
	if c.Committed() != 8000 {
		t.Fatalf("committed %d", c.Committed())
	}
	st := c.Stats()
	if st.IPC() <= 0 || st.IPC() > 2 {
		t.Fatalf("IPC %v out of range for a dual-issue core", st.IPC())
	}
}

func TestInOrderSlowerThanOoO(t *testing.T) {
	// Sanity: a dual-issue blocking core must be slower than the 4-wide
	// OoO machine on the same trace. (Indirect check through IPC.)
	c, h := build(t, "sjeng", 8000, persist.BaselineDefault())
	run(t, c, h, 50_000_000)
	if c.Stats().IPC() > 1.2 {
		t.Fatalf("in-order IPC %v implausibly high", c.Stats().IPC())
	}
}

func TestInOrderPPARegions(t *testing.T) {
	c, h := build(t, "gcc", 15000, PPAScheme())
	run(t, c, h, 100_000_000)
	st := c.Stats()
	if st.Regions == 0 {
		t.Fatal("value-CSQ PPA must form regions")
	}
	if st.Stores == 0 {
		t.Fatal("no stores committed")
	}
	// CSQ capacity bounds every region.
	if len(c.CSQ()) > 40 {
		t.Fatalf("CSQ holds %d entries", len(c.CSQ()))
	}
}

func TestInOrderRejectsIndexCSQ(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog := workload.GenerateThread(p, 100, 0)
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hier := cache.New(cache.DefaultParams(1), dev, nil, nil)
	bad := persist.PPADefault() // index-bearing CSQ needs a PRF
	if _, err := New(DefaultConfig(bad), prog, hier); err == nil {
		t.Fatal("an in-order core must reject a PRF-indexed CSQ")
	}
}

// TestInOrderSchemeSupport pins which schemes the in-order core models:
// merge-only and async store retire without a persist backend. Everything
// else (gating, logging, clwb, a backend, the async ablations) must be
// rejected, not silently dropped.
func TestInOrderSchemeSupport(t *testing.T) {
	p, _ := workload.ByName("gcc")
	prog := workload.GenerateThread(p, 100, 0)
	hier := cache.New(cache.DefaultParams(1), nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
	sync := PPAScheme()
	sync.SyncStorePersist = true
	eager := PPAScheme()
	eager.EagerFlush = true
	for _, tc := range []struct {
		name string
		cfg  persist.Config
		ok   bool
	}{
		{"baseline", persist.BaselineDefault(), true},
		{"dram-only", persist.DRAMOnlyDefault(), true},
		{"eadr", persist.EADRDefault(), true},
		{"in-order ppa", PPAScheme(), true},
		{"sb-gate", persist.SBGateDefault(), false},
		{"undolog", persist.UndoLogDefault(), false},
		{"replaycache", persist.ReplayCacheDefault(), false},
		{"capri", persist.CapriDefault(), false},
		{"htpm", persist.HTPMDefault(), false},
		{"redotxn", persist.RedoTxnDefault(), false},
		{"sync-persist", sync, false},
		{"eager-flush", eager, false},
	} {
		_, err := New(DefaultConfig(tc.cfg), prog, hier)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: the in-order core must reject it", tc.name)
		}
	}
}

func TestInOrderFunctionalEquivalence(t *testing.T) {
	p, _ := workload.ByName("xz")
	prog := workload.GenerateThread(p, 6000, 0)
	golden := isa.RunGolden(prog, -1)
	c, h := build(t, "xz", 6000, PPAScheme())
	_ = prog
	run(t, c, h, 100_000_000)
	// The front oracle carries the architectural state.
	for i := 0; i < isa.NumIntRegs; i++ {
		r := isa.Int(i)
		if got, want := c.front.Regs.Read(r), golden.Regs.Read(r); got != want {
			t.Fatalf("%v = %#x want %#x", r, got, want)
		}
	}
}

func TestInOrderCrashRecovery(t *testing.T) {
	p, _ := workload.ByName("mcf")
	prog := workload.GenerateThread(p, 12000, 0)
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
	core, err := New(DefaultConfig(PPAScheme()), prog, hier)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := uint64(0); !core.Done() && cyc < 40_000; cyc++ {
		hier.Tick(cyc)
		core.Step(cyc)
	}
	if core.Committed() == 0 {
		t.Skip("nothing committed")
	}
	im := core.Checkpoint()
	hier.PowerFail()
	if _, err := recovery.Replay(dev, im); err != nil {
		t.Fatal(err)
	}
	if err := recovery.VerifyConsistency(dev, prog, im.Committed); err != nil {
		t.Fatalf("in-order recovery violated crash consistency: %v", err)
	}
	// The checkpoint round-trips through the encoded form too.
	decoded, err := recoveryDecode(im.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Committed != im.Committed || len(decoded.CSQ) != len(im.CSQ) {
		t.Fatal("checkpoint round trip lost state")
	}
}

func TestInOrderCrashSweep(t *testing.T) {
	p, _ := workload.ByName("lbm")
	prog := workload.GenerateThread(p, 8000, 0)
	for _, fail := range []uint64{500, 3_000, 12_000, 30_000} {
		if err := cutAndRecover(prog, cache.DefaultParams(1), fail); err != nil {
			t.Fatalf("fail@%d: %v", fail, err)
		}
	}
}

// cutAndRecover runs the in-order PPA core over prog on a hierarchy built
// from params, cuts power at cycle fail, replays the checkpoint and
// verifies the committed prefix is in NVM.
func cutAndRecover(prog *isa.Program, params cache.Params, fail uint64) error {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hier := cache.New(params, dev, workload.WarmResident, workload.L2Resident)
	core, err := New(DefaultConfig(PPAScheme()), prog, hier)
	if err != nil {
		return err
	}
	for cyc := uint64(0); !core.Done() && cyc < fail; cyc++ {
		hier.Tick(cyc)
		core.Step(cyc)
	}
	im := core.Checkpoint()
	hier.PowerFail()
	if _, err := recovery.Replay(dev, im); err != nil {
		return err
	}
	return recovery.VerifyConsistency(dev, prog, im.Committed)
}

func TestInOrderPPAOverheadModest(t *testing.T) {
	base, h1 := build(t, "sjeng", 10000, persist.BaselineDefault())
	run(t, base, h1, 100_000_000)
	ppa, h2 := build(t, "sjeng", 10000, PPAScheme())
	run(t, ppa, h2, 100_000_000)
	slow := float64(ppa.Stats().Cycles) / float64(base.Stats().Cycles)
	if slow < 1.0 {
		t.Fatalf("PPA cannot be faster: %.3f", slow)
	}
	if slow > 1.5 {
		t.Fatalf("in-order PPA overhead %.3f implausible", slow)
	}
}

// recoveryDecode parses an encoded checkpoint blob.
func recoveryDecode(blob []byte) (*checkpoint.Image, error) { return checkpoint.Decode(blob) }

// TestInOrderFullWriteBufferCrashConsistent: a store must not retire past a
// full write buffer. With a two-entry buffer, a store that dropped its
// persist would leave a region closed but not durable, and a power cut would
// recover to an image missing committed words.
func TestInOrderFullWriteBufferCrashConsistent(t *testing.T) {
	for _, app := range []string{"mcf", "lbm", "xz"} {
		p, err := workload.ByName(app)
		if err != nil {
			t.Fatal(err)
		}
		prog := workload.GenerateThread(p, 8000, 0)
		params := cache.DefaultParams(1)
		params.WBEntries = 2
		for _, fail := range []uint64{12_000, 30_000} {
			if err := cutAndRecover(prog, params, fail); err != nil {
				t.Fatalf("%s fail@%d: %v", app, fail, err)
			}
		}
	}
}
