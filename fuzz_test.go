package ppa

import (
	"bytes"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/obs"
	"ppa/internal/pipeline"
	"ppa/internal/recovery"
	"ppa/internal/rename"
)

// randomProfile draws a random valid workload profile — the fuzz surface
// for whole-simulator robustness properties.
func randomProfile(rng *rand.Rand) WorkloadProfile {
	p := WorkloadProfile{
		Name:               "fuzz",
		Suite:              "fuzz",
		LoadRatio:          0.05 + rng.Float64()*0.30,
		StoreRatio:         0.02 + rng.Float64()*0.18,
		BranchRatio:        0.05 + rng.Float64()*0.15,
		FPRatio:            rng.Float64() * 0.8,
		MulRatio:           rng.Float64() * 0.3,
		CmpRatio:           rng.Float64() * 0.8,
		DepDistance:        1 + rng.Intn(16),
		HotFraction:        0.2 + rng.Float64()*0.6,
		WarmFraction:       rng.Float64() * 0.3,
		HotBytes:           uint64(1+rng.Intn(512)) << 10,
		WarmBytes:          uint64(1+rng.Intn(64)) << 20,
		FootprintBytes:     uint64(8+rng.Intn(256)) << 20,
		StoreStreamBias:    rng.Float64() * 0.5,
		StackStoreFraction: rng.Float64() * 0.7,
		StackBytes:         uint64(64+rng.Intn(1024)) &^ 7,
		StoreHotBias:       rng.Float64(),
		StoreHotBytes:      uint64(1+rng.Intn(32)) << 10,
		Seed:               rng.Int63(),
	}
	if rng.Intn(3) == 0 {
		p.Threads = 2 + rng.Intn(3)
		p.SyncEvery = 500 + rng.Intn(4000)
		p.SyncContention = rng.Float64() * 2
	}
	if rng.Intn(4) == 0 {
		p.SyscallEvery = 800 + rng.Intn(4000)
		p.KernelBurstLen = 20 + rng.Intn(200)
	}
	if p.HotFraction+p.WarmFraction > 0.99 {
		p.WarmFraction = 0.99 - p.HotFraction
	}
	return p
}

// TestFuzzProfilesCompleteEverywhere: any valid profile must run to
// completion under every scheme without wedging the machine.
func TestFuzzProfilesCompleteEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(2024))
	f := func(_ uint8) bool {
		p := randomProfile(rng)
		for _, scheme := range []Scheme{SchemeBaseline, SchemePPA, SchemeCapri, SchemeSBGate} {
			res, err := Run(RunConfig{Profile: &p, Scheme: scheme, InstsPerThread: 2500})
			if err != nil {
				t.Logf("%s: %v (profile %+v)", scheme, err, p)
				return false
			}
			if res.Insts == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzCrashConsistency: any valid profile, crashed at a random cycle
// under PPA, must recover consistently.
func TestFuzzCrashConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(777))
	f := func(_ uint8) bool {
		p := randomProfile(rng)
		fail := 500 + uint64(rng.Intn(20000))
		out, err := RunWithFailure(RunConfig{Profile: &p, Scheme: SchemePPA, InstsPerThread: 4000}, fail)
		if err != nil {
			t.Logf("error: %v", err)
			return false
		}
		if out.Completed {
			return true
		}
		if out.Inconsistencies != 0 {
			t.Logf("profile %+v fail@%d lost %d words", p, fail, out.Inconsistencies)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCheckpointDecode: checkpoint.Decode must never panic or allocate
// unboundedly on attacker-controlled bytes, and any blob it accepts must
// survive an Encode/Decode round trip unchanged (the controller re-streams
// images it reads back).
func FuzzCheckpointDecode(f *testing.F) {
	seed := &checkpoint.Image{
		CoreID:    1,
		LCPC:      0x4020,
		Committed: 37,
		CSQ: []pipeline.CSQEntry{
			{Phys: rename.PhysRef{Class: isa.ClassInt, Idx: 12}, Addr: 0x1000, Seq: 3},
			{Addr: 0x2008, Val: 99, Seq: 4, ValueBearing: true},
		},
		CRT: []rename.TableSnapshot{
			{Class: isa.ClassInt, CRT: []uint16{1, 2, 3}},
			{Class: isa.ClassFP, CRT: []uint16{7}},
		},
		MaskInt: []bool{true, false, true, true, false, false, true, false, true},
		MaskFP:  []bool{false, true},
		Regs: []checkpoint.RegValue{
			{Phys: rename.PhysRef{Class: isa.ClassInt, Idx: 12}, Val: 0xdead},
		},
	}
	blob := seed.Encode()
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x41, 0x50, 0x50}) // magic, nothing else
	// v2-format adversarial seeds: torn tails, a flipped header length
	// bit, a flipped section-payload bit, and a lone header.
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:16])
	for _, bit := range []int{8*8 + 1, 18 * 8, len(blob)*8 - 3} {
		m := append([]byte(nil), blob...)
		m[bit/8] ^= 1 << (bit % 8)
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		im, err := checkpoint.Decode(b)
		if err != nil {
			return
		}
		again, err := checkpoint.Decode(im.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted image failed: %v", err)
		}
		if !reflect.DeepEqual(im, again) {
			t.Fatalf("round trip drifted:\nfirst  %+v\nsecond %+v", im, again)
		}
	})
}

// FuzzRecoverTorn: the recovery entry point must hold the torture
// contract against arbitrary NVM checkpoint contents — truncated,
// bit-flipped, or wholly attacker-authored regions either fail with a
// typed detection error or decode to images that are stable under
// re-encoding and replay without untyped failure. It must never panic and
// never accept damage silently.
func FuzzRecoverTorn(f *testing.F) {
	one := &checkpoint.Image{
		CoreID:    0,
		LCPC:      0x4010,
		Committed: 5,
		CSQ: []pipeline.CSQEntry{
			{Addr: 0x1000, Val: 7, Seq: 1, ValueBearing: true},
			{Phys: rename.PhysRef{Class: isa.ClassInt, Idx: 3}, Addr: 0x1008, Seq: 2},
		},
		CRT:     []rename.TableSnapshot{{Class: isa.ClassInt, CRT: []uint16{3}}},
		MaskInt: []bool{true, false, true},
		MaskFP:  []bool{false},
		Regs:    []checkpoint.RegValue{{Phys: rename.PhysRef{Class: isa.ClassInt, Idx: 3}, Val: 42}},
	}
	two := &checkpoint.Image{CoreID: 1, LCPC: 0x4004, Committed: 1}
	multi := encodeAll([]*checkpoint.Image{one, two})
	f.Add(multi)
	f.Add(one.Encode())
	f.Add([]byte{})
	f.Add(multi[:len(multi)-9])
	for _, bit := range []int{5, 14 * 8, len(multi)*8 - 17} {
		m := append([]byte(nil), multi...)
		m[bit/8] ^= 1 << (bit % 8)
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		dev := nvm.NewDevice(nvm.DefaultConfig())
		dev.WriteCheckpoint(b)
		images, err := recovery.LoadImages(dev, nil)
		if err != nil {
			if !recovery.IsDetection(err) {
				t.Fatalf("untyped recovery error: %v", err)
			}
			return
		}
		// Accepted regions must behave: stable under re-encode and
		// replayable (or refused with a typed error) per image.
		again, err := checkpoint.DecodeAll(nil, encodeAll(images))
		if err != nil {
			t.Fatalf("re-decode of accepted region failed: %v", err)
		}
		if !reflect.DeepEqual(images, again) {
			t.Fatal("accepted region drifted across a re-encode round trip")
		}
		for _, im := range images {
			if _, rerr := recovery.ReplayN(dev, im, -1); rerr != nil && !recovery.IsDetection(rerr) {
				t.Fatalf("untyped replay error: %v", rerr)
			}
		}
	})
}

// FuzzChromeTraceRead: obs.ReadChromeTrace must never panic on arbitrary
// bytes, and anything it parses must re-serialize into a trace the reader
// accepts again with the same event count.
func FuzzChromeTraceRead(f *testing.F) {
	f.Add([]byte(`{"displayTimeUnit":"ns","traceEvents":[` +
		`{"name":"region","cat":"region","ph":"X","ts":0,"dur":9,"pid":0,"tid":0,"args":{"cause":1}},` +
		`{"name":"persist-drain","cat":"persist","ph":"i","ts":4,"pid":0,"tid":1,"s":"t"}]}`))
	f.Add([]byte(`[{"name":"x","ph":"C","ts":1,"tid":-1,"args":{"depth":2}}]`))
	f.Add([]byte(`not json`))
	if golden, err := os.ReadFile("internal/obs/testdata/golden_trace.json"); err == nil {
		f.Add(golden)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		events, err := obs.ReadChromeTrace(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("re-serialize of parsed trace failed: %v", err)
		}
		again, err := obs.ReadChromeTrace(&buf)
		if err != nil {
			t.Fatalf("re-read of own output failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-read lost events: %d, want %d", len(again), len(events))
		}
	})
}

// encodeAll concatenates encoded images the way the crash path streams
// them into the checkpoint area.
func encodeAll(images []*checkpoint.Image) []byte {
	var b []byte
	for _, im := range images {
		b = append(b, im.Encode()...)
	}
	return b
}
