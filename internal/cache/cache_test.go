package cache

import (
	"testing"

	"ppa/internal/isa"
	"ppa/internal/nvm"
)

func newHier(t *testing.T, mode Mode, cores int) *Hierarchy {
	t.Helper()
	p := DefaultParams(cores)
	p.Mode = mode
	return New(p, nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
}

func TestSetAssocHitAfterInstall(t *testing.T) {
	c := newSetAssoc(64<<10, 8)
	line := uint64(0x1000)
	if c.access(line, false) {
		t.Fatal("cold access must miss")
	}
	c.install(line, false)
	if !c.access(line, false) {
		t.Fatal("installed line must hit")
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", c.MissRate())
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// 2-way tiny cache: 2 sets.
	c := newSetAssoc(4*isa.LineSize, 2)
	// Three lines in the same set (set stride = 2 lines).
	l := func(i uint64) uint64 { return i * 2 * isa.LineSize }
	c.install(l(0), false)
	c.install(l(1), false)
	c.access(l(0), false) // make l(0) MRU
	victim, _, ev := c.install(l(2), false)
	if !ev || victim != l(1) {
		t.Fatalf("expected LRU victim %#x, got %#x (ev=%v)", l(1), victim, ev)
	}
}

func TestSetAssocDirtyVictim(t *testing.T) {
	c := newSetAssoc(2*isa.LineSize, 1) // direct-mapped, 2 sets
	c.install(0, true)
	victim, dirty, ev := c.install(2*isa.LineSize, false) // same set
	if !ev || victim != 0 || !dirty {
		t.Fatalf("dirty victim lost: %#x %v %v", victim, dirty, ev)
	}
}

func TestSetAssocInvalidate(t *testing.T) {
	c := newSetAssoc(64<<10, 8)
	c.install(0x40, true)
	present, dirty := c.invalidate(0x40)
	if !present || !dirty {
		t.Fatal("invalidate lost state")
	}
	if c.access(0x40, false) {
		t.Fatal("invalidated line must miss")
	}
	if p, _ := c.invalidate(0x999000); p {
		t.Fatal("absent line reported present")
	}
}

func TestDRAMCacheDirectMappedConflict(t *testing.T) {
	d := newDRAMCache(1 << 20) // 16384 sets
	d.install(0, true)
	if !d.access(0, false) {
		t.Fatal("hit expected")
	}
	// A line one cache-size away maps to the same set: conflict eviction.
	v, dirty, ev := d.install(uint64(1<<20), false)
	if !ev || v != 0 || !dirty {
		t.Fatalf("conflict eviction wrong: %#x %v %v", v, dirty, ev)
	}
	// The new resident hits; the old line misses.
	if !d.access(uint64(1<<20), false) || d.access(0, false) {
		t.Fatal("direct-mapped replacement broken")
	}
}

func TestHierarchyLatencyLadder(t *testing.T) {
	h := newHier(t, MemoryMode, 1)
	addr := uint64(1) << 36 // cold, non-resident? (no warm classifier)

	// Cold miss goes to NVM.
	done := h.Access(0, addr, false, 0)
	if done < 350 {
		t.Fatalf("cold miss finished at %d, expected NVM latency", done)
	}
	// Now L1-resident.
	done = h.Access(0, addr, false, 1000)
	if done != 1000+uint64(h.p.L1DLat) {
		t.Fatalf("L1 hit at %d", done)
	}
	// Evict from L1 by thrashing its set, then expect an L2 hit.
	for i := uint64(1); i <= 16; i++ {
		h.Access(0, addr+i*h.l1[0].setMask*isa.LineSize+i*isa.LineSize*128, false, 2000)
	}
	_ = done
}

func TestWarmResidentFirstTouchIsDRAMHit(t *testing.T) {
	p := DefaultParams(1)
	dev := nvm.NewDevice(nvm.DefaultConfig())
	h := New(p, dev, func(addr uint64) bool { return true }, nil)
	done := h.Access(0, 0x5000, false, 0)
	if done >= 350 {
		t.Fatalf("warm-resident first touch paid NVM latency (%d)", done)
	}
	if dev.Reads != 0 {
		t.Fatal("no NVM read expected")
	}
}

func TestStoreDataAndReadWord(t *testing.T) {
	h := newHier(t, MemoryMode, 1)
	h.StoreData(0x1008, 77)
	if h.ReadWord(0x1008) != 77 {
		t.Fatal("volatile value lost")
	}
	if h.Device().ReadWord(0x1008) != 0 {
		t.Fatal("value must not be durable yet")
	}
	if h.DirtyWordCount() != 1 {
		t.Fatalf("dirty words %d", h.DirtyWordCount())
	}
}

func TestPersistPathDurability(t *testing.T) {
	h := newHier(t, MemoryMode, 1)
	h.StoreData(0x2000, 5)
	tok, ok := h.PersistStore(0, 0x2000, 5, 0)
	if !ok {
		t.Fatal("persist enqueue failed")
	}
	if h.PersistPending(0) != 1 {
		t.Fatal("pending counter must be 1")
	}
	if h.PersistAcked(0, tok) {
		t.Fatal("not acked yet")
	}
	// Flush cancels the lag; ticking accepts it into the WPQ once the
	// transit latency elapses.
	h.FlushWB(0, 0)
	for c := uint64(0); c < 1000 && h.PersistPending(0) > 0; c++ {
		h.Tick(c)
	}
	if h.PersistPending(0) != 0 {
		t.Fatal("persist never accepted")
	}
	if !h.PersistAcked(0, tok) {
		t.Fatal("token must ack")
	}
	if h.Device().ReadWord(0x2000) != 5 {
		t.Fatal("persisted value must be durable")
	}
}

func TestPersistCoalescingInWB(t *testing.T) {
	h := newHier(t, MemoryMode, 1)
	for i := uint64(0); i < 8; i++ {
		h.StoreData(0x3000+i*8, i)
		if _, ok := h.PersistStore(0, 0x3000+i*8, i, 0); !ok {
			t.Fatal("enqueue failed")
		}
	}
	lines, coalesced := h.WBStats()
	if lines != 1 {
		t.Fatalf("same-line persists must coalesce: %d lines", lines)
	}
	if coalesced != 7 {
		t.Fatalf("coalesced = %d", coalesced)
	}
	if h.PersistPending(0) != 8 {
		t.Fatal("all 8 stores pending")
	}
}

func TestPersistedThroughSnapshot(t *testing.T) {
	h := newHier(t, MemoryMode, 1)
	if !h.PersistedThrough(0, h.CurrentPersistSeq(0)) {
		t.Fatal("empty buffer: snapshot trivially persisted")
	}
	h.PersistStore(0, 0x100, 1, 0)
	snap := h.CurrentPersistSeq(0)
	if h.PersistedThrough(0, snap) {
		t.Fatal("pending entry cannot be persisted-through")
	}
	h.PersistStore(0, 0x4000, 2, 0) // later entry must not matter
	h.FlushWB(0, 0)
	for c := uint64(0); c < 200 && !h.PersistedThrough(0, snap); c++ {
		h.Tick(c)
	}
	if !h.PersistedThrough(0, snap) {
		t.Fatal("snapshot never persisted")
	}
}

func TestCrossCoreWBIndependence(t *testing.T) {
	// One core's lagging entry must not block another core's drain.
	p := DefaultParams(2)
	p.PersistLag = 1_000_000 // park core 0's entry far in the future
	h := New(p, nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
	h.PersistStore(0, 0x100, 1, 0)
	h.PersistStore(1, 0x200, 2, 0)
	h.FlushWB(1, 0)
	for c := uint64(0); c < 200 && h.PersistPending(1) > 0; c++ {
		h.Tick(c)
	}
	if h.PersistPending(1) != 0 {
		t.Fatal("core 1 starved by core 0's lagging entry")
	}
	if h.PersistPending(0) != 1 {
		t.Fatal("core 0 should still be pending")
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	h := newHier(t, MemoryMode, 2)
	line := uint64(0x8000)
	h.Access(0, line, false, 0)          // core 0 caches it
	done := h.Access(1, line, true, 100) // core 1 writes it
	// The write misses core 1's L1D, hits the shared LLC, and pays the
	// invalidation of core 0's copy on top.
	if want := uint64(100 + h.p.L2Lat + h.p.CoherenceInvalidateLat); done != want {
		t.Fatalf("write to a line core 0 holds completes at %d, want %d", done, want)
	}
	// Core 0 must re-miss now.
	if h.l1[0].lookup(line) != nil {
		t.Fatal("core 0 still holds an invalidated line")
	}
}

func TestPowerFailLosesVolatileState(t *testing.T) {
	h := newHier(t, MemoryMode, 1)
	h.StoreData(0x100, 9)
	h.PersistStore(0, 0x100, 9, 0)
	h.PowerFail()
	if h.DirtyWordCount() != 0 {
		t.Fatal("dirty words survived power failure")
	}
	if h.PersistPending(0) != 0 {
		t.Fatal("write buffer survived power failure")
	}
	if h.ReadWord(0x100) != 0 {
		t.Fatal("unpersisted value visible after failure")
	}
}

func TestEvictionWritesReachNVM(t *testing.T) {
	p := DefaultParams(1)
	p.Mode = MemoryMode
	p.DRAMCacheSize = 1 << 20 // tiny DRAM cache to force conflicts
	dev := nvm.NewDevice(nvm.DefaultConfig())
	h := New(p, dev, nil, nil)

	// Write a line, then access its direct-mapped conflict to evict it.
	h.StoreData(0x100, 123)
	h.Access(0, 0x100, true, 0)
	conflict := uint64(0x100) + (1 << 20)
	// Evict through the whole SRAM hierarchy too: touch enough conflicting
	// lines. Easiest: force DRAM-cache conflict, which back-invalidates.
	h.Access(0, conflict, false, 10)
	// Drain the eviction buffer.
	for c := uint64(100); c < 10_000; c++ {
		h.Tick(c)
	}
	if dev.ReadWord(0x100) != 123 {
		t.Fatalf("evicted dirty line not durable: %d", dev.ReadWord(0x100))
	}
	if h.DirtyWordCount() != 0 {
		t.Fatal("dirty word should have retired with the eviction")
	}
}

func TestDRAMOnlyWritebackGoesToImage(t *testing.T) {
	p := DefaultParams(1)
	p.Mode = DRAMOnly
	p.L2Size = 1 << 16 // tiny L2 to force evictions
	dev := nvm.NewDevice(nvm.DefaultConfig())
	h := New(p, dev, nil, nil)
	h.StoreData(0x40, 7)
	h.Access(0, 0x40, true, 0)
	// Thrash the L2 to evict.
	for i := uint64(1); i < 4096; i++ {
		h.Access(0, 0x40+i*isa.LineSize, false, i)
	}
	if dev.ReadWord(0x40) != 7 {
		t.Fatal("DRAM-only writeback lost")
	}
}

func TestAppDirectSkipsDRAMCache(t *testing.T) {
	h := newHier(t, AppDirect, 1)
	done := h.Access(0, 0x7000, false, 0)
	if done < 350 {
		t.Fatalf("app-direct cold miss must pay NVM latency, got %d", done)
	}
	if h.DRAMCacheMissRate() != 0 {
		t.Fatal("app-direct has no DRAM cache")
	}
}

func TestUseL3Organization(t *testing.T) {
	p := DefaultParams(2)
	p.UseL3 = true
	h := New(p, nvm.NewDevice(nvm.DefaultConfig()), func(uint64) bool { return true }, nil)
	addr := uint64(0x9000)
	h.Access(0, addr, false, 0) // cold: DRAM-cache (resident)
	// L1 hit now.
	if done := h.Access(0, addr, false, 100); done != 100+uint64(p.L1DLat) {
		t.Fatalf("L1 hit at %d", done)
	}
	// Another core misses L1+private L2, hits shared L3.
	if done := h.Access(1, addr, false, 200); done != 200+uint64(p.L3Lat) {
		t.Fatalf("L3 hit at %d", done)
	}
	if h.L2MissRate() <= 0 {
		t.Fatal("L3 stats must track misses")
	}
}

func TestWBFullBackpressure(t *testing.T) {
	p := DefaultParams(1)
	p.WBEntries = 2
	p.CoalesceWB = false
	h := New(p, nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
	if _, ok := h.PersistStore(0, 0x000, 1, 0); !ok {
		t.Fatal("first")
	}
	if _, ok := h.PersistStore(0, 0x040, 2, 0); !ok {
		t.Fatal("second")
	}
	if _, ok := h.PersistStore(0, 0x080, 3, 0); ok {
		t.Fatal("third must fail: write buffer full")
	}
	if !h.WBFull(0) {
		t.Fatal("WBFull must report full")
	}
}

func TestWriteBufferRingReleasesPoppedEntries(t *testing.T) {
	// Regression: the old reslice-FIFO (entries = entries[1:]) kept every
	// popped entry — and its per-line word map — reachable through the
	// backing array for the run's lifetime. Once the ring has reached its
	// capacity it must keep its backing array and zero a slot the moment
	// the WPQ accepts its entry. (The ring grows from its first enqueue;
	// with 4 entries, below the minimum ring, that first growth is final.)
	p := DefaultParams(1)
	p.WBEntries = 4
	p.PersistLag = 0
	h := New(p, nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
	wb := h.wbs[0]
	var storage *wbEntry

	// Push and drain three times the ring's capacity so head wraps.
	cycle := uint64(0)
	for i := 0; i < 3*p.WBEntries; i++ {
		addr := uint64(i) * isa.LineSize // distinct lines: no coalescing
		if _, ok := h.PersistStore(0, addr, uint64(i+1), cycle); !ok {
			t.Fatalf("enqueue %d failed", i)
		}
		if storage == nil {
			storage = &wb.buf[0]
		}
		h.FlushWB(0, cycle)
		for c := cycle; c < cycle+10_000 && h.PersistPending(0) > 0; c++ {
			if err := h.Tick(c); err != nil {
				t.Fatal(err)
			}
			cycle = c + 1
		}
		if h.PersistPending(0) != 0 {
			t.Fatalf("entry %d never drained", i)
		}
	}

	if len(wb.buf) != p.WBEntries || &wb.buf[0] != storage {
		t.Fatalf("ring storage changed: len %d, realloc %v",
			len(wb.buf), &wb.buf[0] != storage)
	}
	if wb.depth() != 0 {
		t.Fatalf("depth %d after full drain", wb.depth())
	}
	for i := range wb.buf {
		if e := wb.buf[i]; e != (wbEntry{}) {
			t.Fatalf("popped slot %d retains entry %+v", i, e)
		}
	}
	if len(wb.index) != 0 {
		t.Fatalf("coalesce index retains %d lines", len(wb.index))
	}
}

func TestWriteBufferGrowsInOrder(t *testing.T) {
	// The ring starts empty and doubles when full; a growth with head != 0
	// must move the live entries to the front in FIFO order without moving
	// any token, and a later store must still coalesce into a moved entry.
	const capacity = 64
	wb := newWriteBuffer(capacity, true, false)
	if len(wb.buf) != 0 {
		t.Fatalf("fresh ring holds %d slots", len(wb.buf))
	}
	line := func(i int) uint64 { return uint64(i) * isa.LineSize }
	enqueue := func(i int) {
		t.Helper()
		tok, ok := wb.add(line(i), line(i), uint64(i), 0, 0)
		if !ok || tok != int64(i) {
			t.Fatalf("enqueue %d: token %d ok %v", i, tok, ok)
		}
	}
	for i := 0; i < 10; i++ {
		enqueue(i)
	}
	if len(wb.buf) != minWBRing {
		t.Fatalf("first ring %d slots, want %d", len(wb.buf), minWBRing)
	}
	for i := 0; i < 6; i++ {
		wb.pop()
	}
	// Refill the wrapped ring, then one more entry forces growth at head 6.
	for i := 10; i < 6+minWBRing; i++ {
		enqueue(i)
	}
	if wb.head == 0 || wb.depth() != len(wb.buf) {
		t.Fatalf("head %d depth %d ring %d: growth would not move a wrapped ring",
			wb.head, wb.depth(), len(wb.buf))
	}
	enqueue(6 + minWBRing)
	if len(wb.buf) != 2*minWBRing || wb.head != 0 {
		t.Fatalf("after growth: ring %d slots, head %d", len(wb.buf), wb.head)
	}
	for tok := int64(0); tok < 6+minWBRing+1; tok++ {
		if got, want := wb.acked(tok), tok < 6; got != want {
			t.Fatalf("acked(%d) = %v after growth", tok, got)
		}
	}
	// Coalesce into entry 7, which the growth moved from slot 7 to slot 1.
	if tok, ok := wb.add(line(7), line(7)+8, 77, 0, 0); !ok || tok != 7 {
		t.Fatalf("coalescing store: token %d ok %v", tok, ok)
	}
	if e := wb.at(7); e.line != line(7) || e.stores != 2 {
		t.Fatalf("moved entry %+v", e)
	} else if v, ok := e.words.Get(line(7) + 8); !ok || v != 77 {
		t.Fatalf("coalesced word %d %v", v, ok)
	}
	// Fill to the bound: the ring stops at capacity and back-pressures.
	for i := 6 + minWBRing + 1; i < 6+capacity; i++ {
		enqueue(i)
	}
	if len(wb.buf) != capacity || !wb.full() {
		t.Fatalf("ring %d slots full %v at the bound", len(wb.buf), wb.full())
	}
	if _, ok := wb.add(line(1000), line(1000), 1, 0, 0); ok {
		t.Fatal("enqueue past the bound succeeded")
	}
	for seq := int64(6); seq < 6+capacity; seq++ {
		e := wb.front()
		if e.seq != seq || e.line != line(int(seq)) {
			t.Fatalf("pop %d: entry seq %d line %#x", seq, e.seq, e.line)
		}
		wb.pop()
		if !wb.acked(seq) || wb.acked(seq+1) {
			t.Fatalf("acked tokens wrong after popping %d", seq)
		}
	}
	if wb.depth() != 0 || len(wb.index) != 0 {
		t.Fatalf("depth %d index %d after draining", wb.depth(), len(wb.index))
	}
}

func TestCoalesceAtReadyBoundary(t *testing.T) {
	// A store arriving the very cycle the WPQ accepts its line's entry must
	// open a fresh entry, not coalesce into the popped one: the system ticks
	// the hierarchy before stepping cores, so the accept has already cleared
	// the coalesce index. Were the ordering reversed, the store would bump
	// stores on an entry whose pending contribution was already subtracted,
	// and the Section 4.3 counter would never return to zero.
	p := DefaultParams(1)
	p.PersistTransit = 2
	p.PersistLag = 0
	dev := nvm.NewDevice(nvm.DefaultConfig())
	h := New(p, dev, nil, nil)

	line := uint64(0x2000)
	if _, ok := h.PersistStore(0, line, 11, 0); !ok { // ready at cycle 2
		t.Fatal("enqueue failed")
	}
	if err := h.Tick(1); err != nil { // still in transit
		t.Fatal(err)
	}
	if h.PersistPending(0) != 1 {
		t.Fatal("entry drained before its transit elapsed")
	}
	if err := h.Tick(2); err != nil { // boundary cycle: WPQ accepts
		t.Fatal(err)
	}
	if h.PersistPending(0) != 0 {
		t.Fatal("ready entry not accepted at its boundary cycle")
	}
	// Same-cycle store after Tick — the position a core's Step occupies.
	if _, ok := h.PersistStore(0, line+8, 22, 2); !ok {
		t.Fatal("boundary store failed")
	}
	lines, coalesced := h.WBStats()
	if lines != 2 || coalesced != 0 {
		t.Fatalf("boundary store must open a fresh entry: lines=%d coalesced=%d",
			lines, coalesced)
	}
	if h.PersistPending(0) != 1 {
		t.Fatalf("pending %d after boundary store", h.PersistPending(0))
	}
	for c := uint64(3); c < 1000 && h.PersistPending(0) > 0; c++ {
		if err := h.Tick(c); err != nil {
			t.Fatal(err)
		}
	}
	if h.PersistPending(0) != 0 {
		t.Fatalf("persist counter stuck at %d", h.PersistPending(0))
	}
	if dev.ReadWord(line) != 11 || dev.ReadWord(line+8) != 22 {
		t.Fatalf("boundary values not durable: %d %d",
			dev.ReadWord(line), dev.ReadWord(line+8))
	}
}

func TestCoalesceIntoPastReadyQueuedEntry(t *testing.T) {
	// When the WPQ is full, an entry can sit in the write buffer with its
	// ready cycle long past. Stores coalescing into it are still pending
	// stores; when the entry finally drains, pending must drop by the full
	// coalesced count — exactly once.
	cfg := nvm.DefaultConfig()
	cfg.Channels = 1
	cfg.WPQEntries = 1
	cfg.WCBEntries = 2
	cfg.WriteDrainCycles = 50 // media busy keeps the WCB (then WPQ) backed up
	cfg.CoalesceWPQ = false
	p := DefaultParams(1)
	p.PersistTransit = 1
	p.PersistLag = 0
	dev := nvm.NewDevice(cfg)
	h := New(p, dev, nil, nil)

	// Four blockers drain one per cycle into the device until the WCB is
	// full behind a busy media write and the last blocker occupies the
	// single WPQ slot; the fifth entry (the victim) then sits past-ready.
	victim := uint64(0x5000)
	for i := uint64(0); i < 4; i++ {
		if _, ok := h.PersistStore(0, 0x1000+i*0x40, i+1, 0); !ok {
			t.Fatalf("blocker %d enqueue failed", i)
		}
	}
	if _, ok := h.PersistStore(0, victim, 7, 0); !ok { // ready at cycle 1
		t.Fatal("victim enqueue failed")
	}
	for c := uint64(1); c <= 5; c++ {
		if err := h.Tick(c); err != nil {
			t.Fatal(err)
		}
	}
	if h.PersistPending(0) != 1 {
		t.Fatalf("pending %d: victim should be the only queued store, held "+
			"back by a full WPQ", h.PersistPending(0))
	}
	// Coalesce a second store into the past-ready, still-queued entry.
	if _, ok := h.PersistStore(0, victim+8, 8, 5); !ok {
		t.Fatal("coalescing store failed")
	}
	if _, coalesced := h.WBStats(); coalesced != 1 {
		t.Fatalf("expected 1 coalesced store, got %d", coalesced)
	}
	if h.PersistPending(0) != 2 {
		t.Fatalf("pending %d, want 2", h.PersistPending(0))
	}
	for c := uint64(6); c < 5000 && h.PersistPending(0) > 0; c++ {
		if err := h.Tick(c); err != nil {
			t.Fatal(err)
		}
	}
	if h.PersistPending(0) != 0 {
		t.Fatalf("persist counter stuck at %d — under- or over-count",
			h.PersistPending(0))
	}
	if dev.ReadWord(victim) != 7 || dev.ReadWord(victim+8) != 8 {
		t.Fatalf("coalesced values not durable: %d %d",
			dev.ReadWord(victim), dev.ReadWord(victim+8))
	}
}

func BenchmarkL1Hit(b *testing.B) {
	h := New(DefaultParams(1), nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
	h.Access(0, 0x1000, false, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, 0x1000, false, uint64(i))
	}
}

func BenchmarkPersistEnqueue(b *testing.B) {
	h := New(DefaultParams(1), nvm.NewDevice(nvm.DefaultConfig()), nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%64) * 8 // coalescing-heavy stream
		h.PersistStore(0, addr, uint64(i), uint64(i))
		h.Tick(uint64(i))
	}
}
