package nvm

import (
	"errors"

	"testing"

	"ppa/internal/isa"
)

func words(pairs ...uint64) *isa.LineWords {
	lw := &isa.LineWords{}
	for i := 0; i+1 < len(pairs); i += 2 {
		lw.Set(pairs[i], pairs[i+1])
	}
	return lw
}

// try offers a write whose line is known to be aligned, so an alignment
// error here is a test bug.
func try(d *Device, line uint64, w *isa.LineWords) bool {
	ok, err := d.TryAccept(line, w)
	if err != nil {
		panic(err)
	}
	return ok
}

func TestAcceptIsDurableImmediately(t *testing.T) {
	d := NewDevice(DefaultConfig())
	if !try(d, 0x1000, words(0x1000, 42)) {
		t.Fatal("accept failed")
	}
	// ADR domain: durable at accept, before any drain.
	if d.ReadWord(0x1000) != 42 {
		t.Fatal("accepted write not durable")
	}
	// And it survives a power failure.
	d.PowerFail()
	if d.ReadWord(0x1000) != 42 {
		t.Fatal("WPQ contents lost across power failure")
	}
}

func TestWPQCapacityAndRejection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.WPQEntries = 2
	d := NewDevice(cfg)
	if !try(d, 0x0, words(0x0, 1)) || !try(d, 0x40, words(0x40, 2)) {
		t.Fatal("first two accepts must succeed")
	}
	if try(d, 0x80, words(0x80, 3)) {
		t.Fatal("third accept must be rejected (WPQ full)")
	}
	if d.RejectedFull != 1 {
		t.Fatalf("rejections = %d", d.RejectedFull)
	}
	if d.WPQLen() != 2 {
		t.Fatalf("WPQ len %d", d.WPQLen())
	}
}

func TestWPQCoalescing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.WPQEntries = 1
	d := NewDevice(cfg)
	if !try(d, 0x1000, words(0x1000, 1)) {
		t.Fatal("accept failed")
	}
	// Same line coalesces even though the WPQ is full.
	if !try(d, 0x1000, words(0x1008, 2)) {
		t.Fatal("same-line write must coalesce")
	}
	if d.Coalesced != 1 {
		t.Fatalf("coalesced = %d", d.Coalesced)
	}
	if d.ReadWord(0x1008) != 2 {
		t.Fatal("coalesced word not durable")
	}
	// A different line is rejected.
	if try(d, 0x2000, words(0x2000, 3)) {
		t.Fatal("different line must be rejected")
	}
}

func TestCoalescingDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.WPQEntries = 1
	cfg.CoalesceWPQ = false
	d := NewDevice(cfg)
	try(d, 0x1000, words(0x1000, 1))
	if try(d, 0x1000, words(0x1008, 2)) {
		t.Fatal("coalescing disabled: same line must still need a slot")
	}
}

func TestDrainFreesSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.WPQEntries = 1
	cfg.WCBEntries = 4
	d := NewDevice(cfg)
	try(d, 0x0, words(0x0, 1))
	if try(d, 0x40, words(0x40, 2)) {
		t.Fatal("should be full")
	}
	// One tick moves the entry into the write-combining buffer.
	d.Tick(0)
	if !try(d, 0x40, words(0x40, 2)) {
		t.Fatal("slot must free after WPQ->WCB transfer")
	}
}

func TestWCBCoalescingKeepsHotLineResident(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.WPQEntries = 4
	cfg.WCBEntries = 4
	cfg.WriteDrainCycles = 10
	d := NewDevice(cfg)
	try(d, 0x0, words(0x0, 1))
	d.Tick(0) // into WCB; drain starts
	lw := d.LineWrites
	// Repeated writes to the WCB-resident line coalesce without new
	// entries.
	for i := 0; i < 5; i++ {
		if !try(d, 0x0, words(0x0, uint64(i))) {
			t.Fatal("WCB-resident line must coalesce")
		}
	}
	if d.LineWrites != lw {
		t.Fatal("coalesced writes must not count as new line writes")
	}
	if d.Coalesced < 5 {
		t.Fatalf("coalesced = %d", d.Coalesced)
	}
}

func TestDrainedAndTickProgress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.WriteDrainCycles = 10
	d := NewDevice(cfg)
	try(d, 0x0, words(0x0, 1))
	if d.Drained(0) {
		t.Fatal("not drained with a queued entry")
	}
	cycle := uint64(0)
	for ; cycle < 100 && !d.Drained(cycle); cycle++ {
		d.Tick(cycle)
	}
	if !d.Drained(cycle) {
		t.Fatal("device never drained")
	}
}

func TestChannelsInterleaveByLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.WPQEntries = 1
	d := NewDevice(cfg)
	// Lines 0 and 64 land on different channels: both accepts succeed
	// even with one WPQ slot each.
	if !try(d, 0x0, words(0x0, 1)) || !try(d, 0x40, words(0x40, 2)) {
		t.Fatal("adjacent lines must use different channels")
	}
	// Lines 0 and 128 share channel 0: second is rejected.
	if try(d, 0x80, words(0x80, 3)) {
		t.Fatal("same-channel line must be rejected")
	}
}

func TestReadTiming(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	d := NewDevice(cfg)
	done := d.ReadAccess(0x0, 100)
	if done != 100+uint64(cfg.ReadLatency) {
		t.Fatalf("read done at %d", done)
	}
	if d.Reads != 1 {
		t.Fatal("read not counted")
	}
}

func TestReadWaitsForInProgressDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.WriteDrainCycles = 50
	cfg.WCBEntries = 2 // watermark 1: a second line triggers a drain
	d := NewDevice(cfg)
	try(d, 0x0, words(0x0, 1))
	try(d, 0x40, words(0x40, 2))
	d.Tick(0) // line 0 -> WCB
	d.Tick(1) // line 1 -> WCB; above watermark: drain starts, busy to 51
	done := d.ReadAccess(0x0, 10)
	if done != 51+uint64(cfg.ReadLatency) {
		t.Fatalf("read must wait for the drain: done=%d", done)
	}
}

func TestWithWriteBandwidth(t *testing.T) {
	cfg := DefaultConfig().WithWriteBandwidth(1.0)
	if cfg.WriteDrainCycles != 128 {
		t.Fatalf("1GB/s at 2GHz = 128 cycles/line, got %d", cfg.WriteDrainCycles)
	}
	cfg = DefaultConfig().WithWriteBandwidth(0) // no-op
	if cfg.WriteDrainCycles != DefaultConfig().WriteDrainCycles {
		t.Fatal("zero bandwidth must not change the config")
	}
}

func TestCheckpointArea(t *testing.T) {
	d := NewDevice(DefaultConfig())
	if d.ReadCheckpoint() != nil {
		t.Fatal("fresh device has no checkpoint")
	}
	blob := []byte{1, 2, 3}
	d.WriteCheckpoint(blob)
	got := d.ReadCheckpoint()
	if len(got) != 3 || got[0] != 1 {
		t.Fatal("checkpoint roundtrip failed")
	}
	got[0] = 99
	if d.ReadCheckpoint()[0] != 1 {
		t.Fatal("ReadCheckpoint must return a copy")
	}
	// The checkpoint survives a power failure.
	d.PowerFail()
	if d.ReadCheckpoint() == nil {
		t.Fatal("checkpoint lost across power failure")
	}
	d.ClearCheckpoint()
	if d.ReadCheckpoint() != nil {
		t.Fatal("checkpoint not cleared")
	}
}

func TestUnalignedLineTypedError(t *testing.T) {
	d := NewDevice(DefaultConfig())
	ok, err := d.TryAccept(0x3, words(0x0, 1))
	if ok || err == nil {
		t.Fatal("unaligned line must be rejected with an error")
	}
	var ae *AlignmentError
	if !errors.As(err, &ae) || ae.Addr != 0x3 {
		t.Fatalf("want *AlignmentError{Addr: 0x3}, got %v", err)
	}
	// The failed accept must leave no partial state behind.
	if d.ReadWord(0x0) != 0 || d.WPQLen() != 0 || d.LineWrites != 0 {
		t.Fatal("rejected write mutated device state")
	}
}

func TestMutateCheckpoint(t *testing.T) {
	d := NewDevice(DefaultConfig())
	// Mutating an empty region reports no change.
	if d.MutateCheckpoint(func(b []byte) []byte { return b }) {
		t.Fatal("empty region cannot change")
	}
	d.WriteCheckpoint([]byte{1, 2, 3, 4})
	if n := len(d.ReadCheckpoint()); n != 4 {
		t.Fatalf("checkpoint length = %d", n)
	}
	// An identity mutation reports no change.
	if d.MutateCheckpoint(func(b []byte) []byte { return b }) {
		t.Fatal("identity mutation must report no change")
	}
	// A bit flip reports a change and sticks.
	changed := d.MutateCheckpoint(func(b []byte) []byte {
		b[1] ^= 0x80
		return b
	})
	if !changed || d.ReadCheckpoint()[1] != 2^0x80 {
		t.Fatal("bit flip not applied")
	}
	// A truncation reports a change.
	if !d.MutateCheckpoint(func(b []byte) []byte { return b[:2] }) {
		t.Fatal("truncation must report a change")
	}
	if n := len(d.ReadCheckpoint()); n != 2 {
		t.Fatalf("checkpoint length after truncation = %d", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	d := NewDevice(cfg)
	for i := uint64(0); i < 4; i++ {
		try(d, i*isa.LineSize, words(i*isa.LineSize, i))
	}
	if d.LineWrites != 4 {
		t.Fatalf("line writes %d", d.LineWrites)
	}
	if d.BytesWritten != 4*isa.LineSize {
		t.Fatalf("bytes %d", d.BytesWritten)
	}
	if d.AvgWPQOccupancy() <= 0 {
		t.Fatal("occupancy must be positive")
	}
}
