package checkpoint

import (
	"bytes"
	"encoding/binary"
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

// liveImage runs a PPA core partway through a trace and captures it.
func liveImage(t *testing.T, app string, insts int, stopAt uint64) *Image {
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
	for cyc := uint64(0); !core.Done() && cyc < stopAt; cyc++ {
		hier.Tick(cyc)
		core.Step(cyc)
	}
	im := new(Image)
	im.CaptureFrom(core)
	return im
}

func TestCaptureContents(t *testing.T) {
	im := liveImage(t, "gcc", 10000, 8000)
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
	for _, e := range im.CSQ {
		if e.ValueBearing {
			continue
		}
		if _, ok := im.RegValue(e.Phys); !ok {
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
	im := liveImage(t, "mcf", 10000, 10000)
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

// TestSizesMatchEncoding: EncodedLen and StructuresCovered compute sizes
// without encoding; they must agree with the frames of the encoded bytes
// for captured images and for a hand-built one with ragged masks and empty
// sections. EncodeAll must be the images' encodings back to back.
func TestSizesMatchEncoding(t *testing.T) {
	images := []*Image{
		liveImage(t, "mcf", 10000, 6000),
		liveImage(t, "gcc", 10000, 8000),
		{CoreID: 2, MaskInt: make([]bool, 13), MaskFP: []bool{true}},
		{},
	}
	var concat []byte
	for _, im := range images {
		concat = append(concat, im.Encode()...)
	}
	if all := EncodeAll(nil, images); !bytes.Equal(all, concat) || cap(all) != len(all) {
		t.Fatalf("EncodeAll gave %d bytes (capacity %d), the encodings %d", len(all), cap(all), len(concat))
	}
	for i, im := range images {
		blob := im.Encode()
		if n := im.EncodedLen(); n != len(blob) {
			t.Fatalf("image %d: EncodedLen %d, encoded %d bytes", i, n, len(blob))
		}
		// The units' ends, read off the frames' length fields.
		ends := []int{headerBytes}
		for off := headerBytes; off < len(blob); {
			off += 8 + int(binary.LittleEndian.Uint32(blob[off:]))
			ends = append(ends, off)
		}
		if len(ends) != 1+int(numSections) {
			t.Fatalf("image %d: %d units", i, len(ends))
		}
		for n := 0; n <= len(blob); n++ {
			want := 0
			for _, end := range ends {
				if n >= end {
					want++
				}
			}
			if got := im.StructuresCovered(n); got != want {
				t.Fatalf("image %d: StructuresCovered(%d) = %d, frames say %d", i, n, got, want)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3, 4}); err == nil {
		t.Fatal("bad magic must fail")
	}
	blob := liveImage(t, "gcc", 5000, 5000).Encode()
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

func TestEncodeDeterministic(t *testing.T) {
	im := liveImage(t, "xz", 8000, 8000)
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
	if v, ok := im.RegValue(rename.PhysRef{Class: isa.ClassInt, Idx: 5}); !ok || v != 42 {
		t.Fatal("lookup lost a register")
	}
	if _, ok := im.RegValue(rename.PhysRef{Class: isa.ClassFP, Idx: 5}); ok {
		t.Fatal("lookup found a register the image does not hold")
	}
}
