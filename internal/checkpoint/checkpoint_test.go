package checkpoint

import (
	"math"
	"testing"
	"testing/quick"

	"ppa/internal/cache"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/persist"
	"ppa/internal/pipeline"
	"ppa/internal/rename"
	"ppa/internal/workload"
)

// liveCore runs a PPA core partway through a trace and returns it.
func liveCore(t *testing.T, app string, insts int, stopAt uint64) *pipeline.Core {
	t.Helper()
	p, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.GenerateThread(p, insts, 0)
	dev := nvm.NewDevice(nvm.DefaultConfig())
	hier := cache.New(cache.DefaultParams(1), dev, workload.WarmResident, workload.L2Resident)
	core, err := pipeline.New(pipeline.DefaultConfig(persist.PPADefault()), prog, hier, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := uint64(0); !core.Done() && cyc < stopAt; cyc++ {
		hier.Tick(cyc)
		core.Step(cyc)
	}
	return core
}

func TestCaptureContents(t *testing.T) {
	core := liveCore(t, "gcc", 10000, 8000)
	im := Capture(core)
	if im.LCPC == 0 || im.Committed == 0 {
		t.Fatal("capture missed commit state")
	}
	if len(im.CRT) != 2 {
		t.Fatalf("CRT snapshots %d", len(im.CRT))
	}
	if len(im.MaskInt) != 180 || len(im.MaskFP) != 168 {
		t.Fatalf("mask sizes %d/%d", len(im.MaskInt), len(im.MaskFP))
	}
	// Every non-value-bearing CSQ entry's register is checkpointed.
	regs := im.RegLookup()
	for _, e := range im.CSQ {
		if e.ValueBearing {
			continue
		}
		if _, ok := regs[e.Phys]; !ok {
			t.Fatalf("CSQ register %v not checkpointed", e.Phys)
		}
	}
	// At most CSQ + CRT-mapped registers are saved (Section 4.5: not the
	// whole PRF).
	if len(im.Regs) > 40+isa.NumIntRegs+isa.NumFPRegs {
		t.Fatalf("checkpointed %d registers — should be minimal", len(im.Regs))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	core := liveCore(t, "mcf", 10000, 10000)
	im := Capture(core)
	im.CoreID = 3
	blob := im.Encode()
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoreID != 3 || got.LCPC != im.LCPC || got.Committed != im.Committed {
		t.Fatal("header mismatch")
	}
	if len(got.CSQ) != len(im.CSQ) {
		t.Fatalf("CSQ %d vs %d", len(got.CSQ), len(im.CSQ))
	}
	for i := range im.CSQ {
		if got.CSQ[i] != im.CSQ[i] {
			t.Fatalf("CSQ[%d] mismatch: %+v vs %+v", i, got.CSQ[i], im.CSQ[i])
		}
	}
	for i := range im.MaskInt {
		if got.MaskInt[i] != im.MaskInt[i] {
			t.Fatalf("MaskInt[%d] mismatch", i)
		}
	}
	for i := range im.Regs {
		if got.Regs[i] != im.Regs[i] {
			t.Fatalf("Regs[%d] mismatch", i)
		}
	}
	for i := range im.CRT {
		if got.CRT[i].Class != im.CRT[i].Class || len(got.CRT[i].CRT) != len(im.CRT[i].CRT) {
			t.Fatal("CRT mismatch")
		}
		for j := range im.CRT[i].CRT {
			if got.CRT[i].CRT[j] != im.CRT[i].CRT[j] {
				t.Fatal("CRT entry mismatch")
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("bad magic must fail")
	}
	core := liveCore(t, "gcc", 5000, 5000)
	blob := Capture(core).Encode()
	if _, err := Decode(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob must fail")
	}
}

func TestCostModelMatchesPaper(t *testing.T) {
	m := DefaultCostModel()
	bytes := m.WorstCaseBytes(40, 16, 32, 180, 168)
	// Section 7.13: 1838 bytes worst case.
	if bytes < 1750 || bytes > 1900 {
		t.Fatalf("worst-case checkpoint %d bytes, paper says 1838", bytes)
	}
	// 21.7 uJ at 11.839 nJ/B.
	if e := m.EnergyUJ(bytes); math.Abs(e-21.7) > 1.0 {
		t.Fatalf("energy %.2f uJ, paper says 21.7", e)
	}
	// 114.9 ns to read at 8 B/cycle at 2 GHz.
	if ns := m.ReadTimeNS(bytes); math.Abs(ns-114.9) > 6 {
		t.Fatalf("read time %.1f ns, paper says 114.9", ns)
	}
	// ~0.8-0.91 us to flush at 2.3 GB/s.
	if us := m.FlushTimeUS(bytes); us < 0.7 || us > 1.0 {
		t.Fatalf("flush time %.2f us, paper says ~0.91", us)
	}
}

func TestHardwareBytesAccounting(t *testing.T) {
	core := liveCore(t, "gcc", 10000, 8000)
	im := Capture(core)
	m := DefaultCostModel()
	hw := m.HardwareBytes(im)
	if hw <= 0 || hw%8 != 0 {
		t.Fatalf("hardware bytes %d must be positive and 8-byte aligned", hw)
	}
	worst := m.WorstCaseBytes(40, 16, 32, 180, 168)
	// A live image cannot exceed the worst case by much (rounding only).
	if hw > worst+128 {
		t.Fatalf("live image %d exceeds worst case %d", hw, worst)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	core := liveCore(t, "xz", 8000, 8000)
	im := Capture(core)
	a := im.Encode()
	b := im.Encode()
	if string(a) != string(b) {
		t.Fatal("encoding must be deterministic")
	}
}

func TestDecodeFuzzDoesNotPanic(t *testing.T) {
	f := func(blob []byte) bool {
		_, _ = Decode(blob) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegLookup(t *testing.T) {
	im := &Image{Regs: []RegValue{
		{Phys: rename.PhysRef{Class: isa.ClassInt, Idx: 5}, Val: 42},
	}}
	m := im.RegLookup()
	if m[rename.PhysRef{Class: isa.ClassInt, Idx: 5}] != 42 {
		t.Fatal("lookup lost a register")
	}
}
