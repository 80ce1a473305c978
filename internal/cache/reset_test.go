package cache

import (
	"reflect"
	"testing"

	"ppa/internal/isa"
	"ppa/internal/nvm"
)

// driveTrace is everything a driven hierarchy reports: each operation's
// result, then its counters and its device's image.
type driveTrace struct {
	results  []uint64
	counters [14]uint64
	image    map[uint64]uint64
}

// drive runs a seeded mix of loads, stores, persists, flushes and ticks
// over a small two-core hierarchy, sized so lines conflict and evict at
// every level, and records what the hierarchy reports.
func drive(t *testing.T, h *Hierarchy, seed uint64) driveTrace {
	t.Helper()
	var tr driveTrace
	state := seed
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for cycle := uint64(0); cycle < 4000; cycle++ {
		if err := h.Tick(cycle); err != nil {
			t.Fatal(err)
		}
		r := next()
		core := int(r & 1)
		// Half the traffic hits 32 shared hot lines (coherence and
		// coalescing), the rest spreads over 4 MiB (conflicts).
		addr := (r >> 8) % (4 << 20) &^ 7
		if r&(1<<4) != 0 {
			addr %= 32 * isa.LineSize
		}
		switch (r >> 1) % 8 {
		case 0, 1, 2:
			tr.results = append(tr.results, h.Access(core, addr, false, cycle))
		case 3, 4:
			h.StoreData(addr, r)
			tr.results = append(tr.results, h.Access(core, addr, true, cycle))
			tok, ok := h.PersistStore(core, addr, r, cycle)
			if !ok {
				tok = -1
			}
			tr.results = append(tr.results, uint64(tok))
		case 5:
			h.FlushWB(core, cycle)
		default:
			tr.results = append(tr.results, h.ReadWord(addr), uint64(h.PersistBacklog()))
		}
	}
	enq, coal := h.WBStats()
	d := h.Device()
	tr.counters = [14]uint64{h.NVMWritebacks, h.DRAMWritebacks, h.Invalidations, enq, coal,
		uint64(h.DirtyWordCount()), uint64(h.L2MissRate() * 1e9), uint64(h.DRAMCacheMissRate() * 1e9),
		d.Reads, d.LineWrites, d.Coalesced, d.RejectedFull, d.MediaWrites, d.WPQOccupancyX}
	tr.image = h.Device().Image().Snapshot()
	return tr
}

func smallParams() Params {
	p := DefaultParams(2)
	p.L1DSize = 4 << 10
	p.L2Size = 32 << 10
	p.DRAMCacheSize = 256 << 10
	p.WBEntries = 4
	p.PersistTransit = 8
	p.PersistLag = 16
	return p
}

// TestHierarchyResetMatchesNew: a hierarchy and its device, dirtied by one
// run (and a power failure during another) and then reset, must behave
// exactly like a newly built pair: the same result for every operation,
// the same counters and the same image.
func TestHierarchyResetMatchesNew(t *testing.T) {
	for _, org := range []struct {
		name string
		set  func(*Params)
	}{
		{"l2", func(*Params) {}},
		{"l3", func(p *Params) { p.UseL3 = true; p.L2PrivSz = 8 << 10 }},
	} {
		t.Run(org.name, func(t *testing.T) {
			p := smallParams()
			org.set(&p)
			want := drive(t, New(p, nvm.NewDevice(nvm.DefaultConfig()), nil, nil), 1)
			if want.counters[0] == 0 || want.counters[1] == 0 || want.counters[2] == 0 ||
				want.counters[4] == 0 || want.counters[10] == 0 || want.counters[12] == 0 {
				t.Fatalf("the drive does not exercise writebacks, invalidations, coalescing and media drains: %v", want.counters)
			}

			dev := nvm.NewDevice(nvm.DefaultConfig())
			h := New(p, dev, nil, nil)
			drive(t, h, 2)
			h.PowerFail()
			drive(t, h, 3)
			dev.Reset()
			h.Reset()
			got := drive(t, h, 1)
			if !reflect.DeepEqual(got.results, want.results) {
				t.Fatalf("a reset hierarchy's operations diverge from a new one's")
			}
			if got.counters != want.counters {
				t.Fatalf("reset counters %v, new %v", got.counters, want.counters)
			}
			if !reflect.DeepEqual(got.image, want.image) {
				t.Fatalf("reset image has %d words, new %d", len(got.image), len(want.image))
			}
		})
	}
}

// TestCopyStatsFromMatchesCopyAcrossPowerFail: a hierarchy that takes a
// driven source's crash copy (CrashCopyFrom, over a crash copy of the
// source's device) and then loses power must go on exactly like the source
// losing power in place: the same result for every operation, the same
// counters and the same image. With the battery flush, the copy writes the
// source's dirty words into its own device (WriteDirty) before the outage,
// and the source flushes its own (FlushAllDirty).
func TestCopyStatsFromMatchesCopyAcrossPowerFail(t *testing.T) {
	for _, flush := range []bool{false, true} {
		p := smallParams()
		srcDev := nvm.NewDevice(nvm.DefaultConfig())
		src := New(p, srcDev, nil, nil)
		drive(t, src, 1)
		if src.DirtyWordCount() == 0 {
			t.Fatal("the drive leaves no dirty words to flush")
		}
		dev := nvm.NewDevice(nvm.DefaultConfig())
		h := New(p, dev, nil, nil)
		drive(t, h, 2) // leave stale state behind
		dev.CrashCopyFrom(srcDev)
		h.CrashCopyFrom(src)
		if flush {
			src.WriteDirty(dev.Image())
		}
		h.PowerFail()
		copied := drive(t, h, 4)

		if flush {
			src.FlushAllDirty()
		}
		src.PowerFail()
		inPlace := drive(t, src, 4)
		if !reflect.DeepEqual(copied.results, inPlace.results) {
			t.Fatalf("flush %v: after CrashCopyFrom the operations diverge from an outage in place", flush)
		}
		if copied.counters != inPlace.counters {
			t.Fatalf("flush %v: CrashCopyFrom counters %v, in place %v", flush, copied.counters, inPlace.counters)
		}
		if !reflect.DeepEqual(copied.image, inPlace.image) {
			t.Fatalf("flush %v: CrashCopyFrom image has %d words, in place %d", flush, len(copied.image), len(inPlace.image))
		}
	}
}
