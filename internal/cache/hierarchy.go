package cache

import (
	"fmt"

	"ppa/internal/isa"
	"ppa/internal/mutation"
	"ppa/internal/nvm"
	"ppa/internal/obs"
)

// Mode selects the memory organization below the SRAM caches.
type Mode int

const (
	// MemoryMode is PMEM's memory mode: a direct-mapped DRAM cache in
	// front of NVM (the paper's baseline and PPA's home configuration).
	MemoryMode Mode = iota
	// DRAMOnly is a conventional volatile system: DRAM main memory, no
	// NVM (the Figure 9 reference).
	DRAMOnly
	// AppDirect is PSP's app-direct mode: NVM is main memory, DRAM is not
	// a cache (the Figure 10 eADR/BBB configuration).
	AppDirect
)

func (m Mode) String() string {
	switch m {
	case MemoryMode:
		return "memory-mode"
	case DRAMOnly:
		return "dram-only"
	case AppDirect:
		return "app-direct"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Params configures the hierarchy. Latencies are cumulative load-to-use
// cycles for a hit at that level.
type Params struct {
	Mode  Mode
	Cores int `json:"-"` // set by the machine assembler from the workload

	L1DSize uint64 // bytes (Table 2: 64 KB)
	L1DWays int
	L1DLat  int // 4 cycles

	L2Size uint64 // bytes (Table 2: 16 MB shared)
	L2Ways int
	L2Lat  int // 44 cycles

	// UseL3 selects the Figure 14 organization: a private L2 of L2PrivSz
	// per core (L2PrivLat) between each L1D and the shared last level,
	// which keeps L2Size/L2Ways but answers at L3Lat.
	UseL3     bool
	L2PrivSz  uint64
	L2PrivLat int
	L3Lat     int

	DRAMCacheSize uint64 // bytes (Table 2: 4 GB)
	DRAMLat       int    // DRAM access latency (~96-140 cycles)

	// Write buffer (async persist path, per core).
	WBEntries int // entries in the L1D write buffer
	// PersistTransit is the minimum latency from L1D merge to WPQ-accept
	// eligibility (core-to-memory-controller transit).
	PersistTransit int
	// PersistLag additionally delays lazy writeback of a pending line so
	// nearby stores coalesce into it (the Section 4.3 persist coalescing
	// window). A region boundary flushes pending lines immediately, so lag
	// trades steady-state write traffic against nothing but boundary-flush
	// length.
	PersistLag int

	// CoalesceWB enables persist coalescing in the write buffer
	// (Section 4.3); disabling it is an ablation.
	CoalesceWB bool

	// CoherenceInvalidateLat is the extra latency charged to a store whose
	// line is present in another core's L1D.
	CoherenceInvalidateLat int
}

// DefaultParams returns the Table 2 hierarchy for n cores.
func DefaultParams(n int) Params {
	return Params{
		Mode:                   MemoryMode,
		Cores:                  n,
		L1DSize:                64 << 10,
		L1DWays:                8,
		L1DLat:                 4,
		L2Size:                 16 << 20,
		L2Ways:                 16,
		L2Lat:                  44,
		L2PrivSz:               1 << 20,
		L2PrivLat:              14,
		L3Lat:                  44,
		DRAMCacheSize:          4 << 30,
		DRAMLat:                120,
		WBEntries:              1024, // one needs-persist slot per L1D line
		PersistTransit:         120,
		PersistLag:             600,
		CoalesceWB:             true,
		CoherenceInvalidateLat: 20,
	}
}

// wbEntry is one pending asynchronous persist in the L1D write buffer.
type wbEntry struct {
	seq    int64 // absolute append sequence, for ack tokens
	line   uint64
	words  isa.LineWords
	ready  uint64 // cycle at which it may enter the WPQ
	stores int    // coalesced store count (for the persist counter)

	// Commit-cycle stamps for persist-lifetime attribution: the cycle the
	// opening store committed and the sum over every coalesced store. The
	// ring keeps no per-store records, so WPQ accept attributes the drain
	// latency exactly to the opener (the longest-waiting store, which is
	// what the tail quantiles care about) and by mean to the rest.
	commitFirst uint64
	commitSum   uint64
}

// writeBuffer is the per-core persist path between L1D and the WPQ. Its
// capacity is the L1D's line count: the hardware realization is a
// needs-persist bit per L1D line plus the Section 4.3 counter, so the
// "buffer" can never outgrow the cache. A store to a line that already has
// a pending persist coalesces into it — under write-bandwidth pressure the
// queue deepens, residency grows, and coalescing rises, which is exactly
// the self-limiting behaviour persist coalescing provides.
//
// The FIFO is a ring that grows on demand up to its capacity (see grow):
// a machine that never persists a store allocates no ring. A popped slot
// is zeroed immediately, so a long simulation retains no storage for
// entries the WPQ already accepted (the old reslice-FIFO kept every popped
// entry reachable through the backing array for the run's lifetime).
type writeBuffer struct {
	buf      []wbEntry        // ring storage, len(buf) <= size
	size     int              // capacity bound: the buffer is full at size entries
	head     int              // ring index of the front (oldest) entry
	n        int              // live entries
	index    map[uint64]int64 // line -> entry seq (when coalescing)
	pending  int              // outstanding (unacked) stores — the Section 4.3 counter
	coalesce bool
	// multi marks buffers of a multi-core hierarchy; the seeded
	// CacheCoalesceStaleWord bug only manifests under multicore
	// contention, so the single-core crash campaigns never see it.
	multi bool

	appended int64 // entries ever appended
	popped   int64 // entries ever accepted into the WPQ

	CoalescedStores uint64
	EnqueuedLines   uint64
	MaxDepth        int
}

// minWBRing is the ring length of a write buffer's first allocation.
const minWBRing = 16

func newWriteBuffer(capEntries int, coalesce, multi bool) *writeBuffer {
	if capEntries <= 0 {
		capEntries = 1
	}
	return &writeBuffer{size: capEntries, coalesce: coalesce, multi: multi, index: make(map[uint64]int64)}
}

// reset empties the buffer as newWriteBuffer builds it, keeping its ring
// and index for reuse. Stale ring slots are never read: add writes a whole
// entry before it counts as live.
func (w *writeBuffer) reset() {
	clear(w.index)
	*w = writeBuffer{buf: w.buf, size: w.size, index: w.index, coalesce: w.coalesce, multi: w.multi}
}

func (w *writeBuffer) full() bool { return w.n >= w.size }

// grow doubles the ring (at least minWBRing, at most size slots), copying
// the live entries to the front of the new ring in FIFO order. Tokens are
// sequences, not ring indices, so no outstanding token moves.
func (w *writeBuffer) grow() {
	buf := make([]wbEntry, min(max(2*len(w.buf), minWBRing), w.size))
	for i := 0; i < w.n; i++ {
		buf[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	w.buf, w.head = buf, 0
}

func (w *writeBuffer) depth() int { return w.n }

// at returns the queued entry with the given seq; entries are FIFO with
// consecutive seqs, so its ring offset from head is seq - popped.
func (w *writeBuffer) at(seq int64) *wbEntry {
	return &w.buf[(w.head+int(seq-w.popped))%len(w.buf)]
}

// front returns the oldest queued entry; the caller must check depth() > 0.
func (w *writeBuffer) front() *wbEntry { return &w.buf[w.head] }

// add enqueues one store's persist; it returns the ack token of the entry
// carrying the store and ok=false when the buffer is full and nothing
// could coalesce.
//
// Ordering invariant: callers add stores only after the cycle's Tick has
// run (the system ticks the hierarchy before stepping cores), so an entry
// whose ready cycle has already passed and that the WPQ accepted this
// cycle was popped — and its index mapping cleared — before any same-cycle
// store could coalesce into it. A store arriving at the accept boundary
// therefore opens a fresh entry, and Tick's pending -= stores reads a
// count no later store can inflate. The coalesce-at-ready-boundary test in
// cache_test.go pins this.
func (w *writeBuffer) add(line, addr, val uint64, ready, commit uint64) (token int64, ok bool) {
	if w.coalesce {
		if seq, hit := w.index[line]; hit {
			e := w.at(seq)
			// Seeded bug CacheCoalesceStaleWord: on a multicore machine a
			// coalescing hit whose word slot is already populated keeps the
			// stale value — the newer store is acked but its value never
			// becomes durable, violating per-location persist order.
			stale := false
			if w.multi && mutation.Is(mutation.CacheCoalesceStaleWord) {
				_, stale = e.words.Get(addr)
			}
			if !mutation.Is(mutation.CacheCoalesceDropWord) && !stale {
				// Seeded bug CacheCoalesceDropWord: the coalescing hit is
				// counted but the incoming word's value never lands in the
				// entry's payload.
				e.words.Set(addr, val)
			}
			e.stores++
			e.commitSum += commit
			w.pending++
			w.CoalescedStores++
			return seq, true
		}
	}
	if w.full() {
		return 0, false
	}
	if w.n == len(w.buf) {
		w.grow()
	}
	seq := w.appended
	w.appended++
	e := &w.buf[(w.head+w.n)%len(w.buf)]
	*e = wbEntry{seq: seq, line: line, ready: ready, stores: 1, commitFirst: commit, commitSum: commit}
	e.words.Set(addr, val)
	w.n++
	if w.coalesce {
		w.index[line] = seq
	}
	if w.n > w.MaxDepth {
		w.MaxDepth = w.n
	}
	w.pending++
	w.EnqueuedLines++
	return seq, true
}

// pop removes the front entry after WPQ acceptance, releasing its slot.
func (w *writeBuffer) pop() {
	front := &w.buf[w.head]
	if w.coalesce {
		delete(w.index, front.line)
	}
	*front = wbEntry{}
	w.head = (w.head + 1) % len(w.buf)
	w.n--
	w.popped++
}

// acked reports whether the entry with the given token has entered the WPQ.
func (w *writeBuffer) acked(token int64) bool { return token < w.popped }

// evictionBuf is the memory-controller-side queue of dirty lines on their
// way to NVM. It is volatile: a power failure drops it. The slice is
// reused: the head index advances on pop and the storage resets to the
// front once drained or reset, so steady-state eviction traffic stops
// allocating.
type evictionBuf struct {
	entries []evictEntry
	head    int
}

type evictEntry struct {
	line  uint64
	words isa.LineWords
}

func (b *evictionBuf) depth() int { return len(b.entries) - b.head }

func (b *evictionBuf) front() *evictEntry { return &b.entries[b.head] }

func (b *evictionBuf) push(e evictEntry) {
	if b.head > 0 && b.head == len(b.entries) {
		b.entries = b.entries[:0]
		b.head = 0
	}
	b.entries = append(b.entries, e)
}

func (b *evictionBuf) pop() {
	b.entries[b.head] = evictEntry{}
	b.head++
}

func (b *evictionBuf) reset() {
	b.entries = b.entries[:0]
	b.head = 0
}

// dirtyStore is the volatile latest-value layer: the current value of every
// written-but-not-durable word. Storage is line-granular with a one-line
// cursor — commits arrive in same-line runs, so the common case is an
// array-slot hit instead of a per-word map probe (which dominated the
// cycle-loop profile as map[word]value).
type dirtyStore struct {
	lines    map[uint64]*isa.LineWords
	words    int // occupied slots across all lines
	lastBase uint64
	last     *isa.LineWords
}

func newDirtyStore() dirtyStore {
	return dirtyStore{lines: make(map[uint64]*isa.LineWords)}
}

// line returns the entry covering base, or nil, moving the cursor on a hit.
func (d *dirtyStore) line(base uint64) *isa.LineWords {
	if d.last != nil && d.lastBase == base {
		return d.last
	}
	lw := d.lines[base]
	if lw != nil {
		d.last, d.lastBase = lw, base
	}
	return lw
}

func (d *dirtyStore) get(a uint64) (uint64, bool) {
	lw := d.line(isa.LineAlign(a))
	if lw == nil {
		return 0, false
	}
	return lw.Get(a)
}

func (d *dirtyStore) set(a, v uint64) {
	base := isa.LineAlign(a)
	lw := d.line(base)
	if lw == nil {
		lw = &isa.LineWords{}
		d.lines[base] = lw
		d.last, d.lastBase = lw, base
	}
	s := isa.Slot(a)
	if lw.Mask&(1<<s) == 0 {
		d.words++
	}
	lw.Words[s] = v
	lw.Mask |= 1 << s
}

// clearSlot drops one occupied slot, deleting the line when it empties.
func (d *dirtyStore) clearSlot(base uint64, lw *isa.LineWords, s int) {
	lw.Mask &^= 1 << s
	d.words--
	if lw.Mask == 0 {
		d.deleteLine(base)
	}
}

func (d *dirtyStore) deleteLine(base uint64) {
	if lw, ok := d.lines[base]; ok {
		d.words -= lw.Len()
		delete(d.lines, base)
	}
	if d.lastBase == base {
		d.last = nil
	}
}

func (d *dirtyStore) reset() {
	clear(d.lines)
	d.words = 0
	d.last, d.lastBase = nil, 0
}

// Hierarchy is the full memory system shared by all cores.
type Hierarchy struct {
	p   Params
	dev *nvm.Device

	// The SRAM levels are inclusive: per-core L1Ds, an optional per-core
	// private L2 (the Figure 14 organization, nil otherwise), and one
	// shared last-level cache answering at llcLat. l1Below[c] is the level
	// under core c's L1D (its private L2, or the LLC), which a dirty L1D
	// victim marks dirty.
	l1      []*setAssoc
	l2p     []*setAssoc
	llc     *setAssoc
	l1Below []*setAssoc
	llcLat  uint64
	dramc   *dramCache // memory mode only

	// volatile latest values of written-but-not-durable words
	dirty dirtyStore

	wbs      []*writeBuffer
	evictq   evictionBuf
	wbNext   int // round-robin pointer for WB draining
	channels int // cached dev.Config().Channels (Tick runs every cycle)

	// warmResident classifies addresses whose backing lines are assumed
	// DRAM-cache-resident from long before the simulation window;
	// l2Resident does the same for the SRAM LLC (small hot working sets).
	warmResident func(uint64) bool
	l2Resident   func(uint64) bool

	// perturb, when non-nil, lets a schedule-perturbation harness defer a
	// core's write-buffer accept for one cycle (the litmus engine jitters
	// WPQ accept timing with it). It must be deterministic in (core,
	// cycle). Deferral never reorders within a buffer — the FIFO front
	// simply waits — so any perturbation keeps per-core persist order.
	perturb func(core int, cycle uint64) bool

	// Statistics.
	NVMWritebacks  uint64
	DRAMWritebacks uint64

	// Observability (all nil-safe when disabled).
	tr              *obs.Tracer
	ackedStores     *obs.Counter
	drainedLines    *obs.Counter
	commitToDurable *obs.Histogram
	drainBatch      *obs.Histogram
}

// New builds the hierarchy over the given NVM device. warmResident and
// l2Resident may be nil (no pre-warmed regions).
func New(p Params, dev *nvm.Device, warmResident, l2Resident func(uint64) bool) *Hierarchy {
	if p.Cores <= 0 {
		p.Cores = 1
	}
	h := &Hierarchy{
		p:            p,
		dev:          dev,
		channels:     dev.Config().Channels,
		dirty:        newDirtyStore(),
		warmResident: warmResident,
		l2Resident:   l2Resident,
	}
	h.llc = newSetAssoc(p.L2Size, p.L2Ways)
	h.llcLat = uint64(p.L2Lat)
	h.l1 = make([]*setAssoc, p.Cores)
	h.l1Below = make([]*setAssoc, p.Cores)
	if p.UseL3 {
		h.l2p = make([]*setAssoc, p.Cores)
		h.llcLat = uint64(p.L3Lat)
	}
	for i := range h.l1 {
		h.l1[i] = newSetAssoc(p.L1DSize, p.L1DWays)
		h.l1Below[i] = h.llc
		if h.l2p != nil {
			h.l2p[i] = newSetAssoc(p.L2PrivSz, p.L2Ways)
			h.l1Below[i] = h.l2p[i]
		}
	}
	if p.Mode == MemoryMode {
		h.dramc = newDRAMCache(p.DRAMCacheSize)
	}
	h.wbs = make([]*writeBuffer, p.Cores)
	for i := range h.wbs {
		h.wbs[i] = newWriteBuffer(p.WBEntries, p.CoalesceWB, p.Cores > 1)
	}
	h.Reset()
	return h
}

// Reset returns the hierarchy to the state New builds over the same device:
// empty caches, write buffers and eviction queue, zero statistics and no
// persist perturbation. It keeps every structure's storage and the obs
// handles SetObs bound. The device is not touched; nvm.Device.Reset
// rewinds it.
func (h *Hierarchy) Reset() {
	*h = Hierarchy{
		p:               h.p,
		dev:             h.dev,
		l1:              h.l1,
		l2p:             h.l2p,
		llc:             h.llc,
		l1Below:         h.l1Below,
		llcLat:          h.llcLat,
		dramc:           h.dramc,
		dirty:           h.dirty,
		wbs:             h.wbs,
		evictq:          h.evictq,
		channels:        h.channels,
		warmResident:    h.warmResident,
		l2Resident:      h.l2Resident,
		tr:              h.tr,
		ackedStores:     h.ackedStores,
		drainedLines:    h.drainedLines,
		commitToDurable: h.commitToDurable,
		drainBatch:      h.drainBatch,
	}
	h.clearVolatile()
}

// CrashCopyFrom makes h, a hierarchy built from the same parameters, what
// src leaves behind across a power failure once PowerFail clears h: the
// writeback counts, the write-buffer drain pointer and the persist
// perturbation. The caches, dirty words and buffers the outage
// loses are not copied; a flush-on-failure scheme writes src's dirty words
// to NVM with WriteDirty instead.
func (h *Hierarchy) CrashCopyFrom(src *Hierarchy) {
	h.wbNext = src.wbNext
	h.perturb = src.perturb
	h.NVMWritebacks, h.DRAMWritebacks = src.NVMWritebacks, src.DRAMWritebacks
}

// clearVolatile empties, in place, everything a power failure loses: the
// SRAM tag arrays, the DRAM cache, the write buffers, the memory
// controller's eviction queue and the dirty-word layer.
func (h *Hierarchy) clearVolatile() {
	for _, c := range h.l1 {
		c.reset()
	}
	for _, c := range h.l2p {
		c.reset()
	}
	h.llc.reset()
	if h.dramc != nil {
		h.dramc.reset()
	}
	for _, wb := range h.wbs {
		wb.reset()
	}
	h.evictq.reset()
	h.dirty.reset()
}

// Params returns the hierarchy configuration.
func (h *Hierarchy) Params() Params { return h.p }

// SetObs attaches the observability hub: write-buffer drains become trace
// events and the persist-ack counters register as metrics. A nil hub (or
// never calling SetObs) leaves instrumentation disabled.
func (h *Hierarchy) SetObs(hub *obs.Hub) {
	h.tr = hub.Tracer()
	reg := hub.Registry()
	h.ackedStores = reg.Counter("persist.acked-stores")
	h.drainedLines = reg.Counter("persist.drained-lines")
	h.commitToDurable = reg.Histogram("store.commit-to-durable-cycles")
	h.drainBatch = reg.Histogram("persist.drain-batch-stores")
	reg.BindGaugeFunc("persist.wb-pending", func() float64 {
		n := 0
		for _, wb := range h.wbs {
			n += wb.pending
		}
		return float64(n)
	})
}

// Device returns the underlying NVM device.
func (h *Hierarchy) Device() *nvm.Device { return h.dev }

// ReadWord returns the current (volatile-latest) value of a word.
func (h *Hierarchy) ReadWord(addr uint64) uint64 {
	a := isa.WordAlign(addr)
	if v, ok := h.dirty.get(a); ok {
		return v
	}
	return h.dev.ReadWord(a)
}

// dramAccess models one DRAM device transfer and returns its finish cycle.
// DRAM bandwidth is ample relative to our request rates, and serializing
// out-of-order-issued future requests on a scalar clock would create
// order-coupling artifacts, so the transfer costs its fixed latency.
func (h *Hierarchy) dramAccess(cycle uint64, lat int) uint64 {
	return cycle + uint64(lat)
}

// Access performs a load (write=false) or a store's L1D merge (write=true)
// by core at the given cycle, returning the completion cycle. It installs
// the line at every level and cascades evictions toward NVM.
func (h *Hierarchy) Access(core int, addr uint64, write bool, cycle uint64) uint64 {
	line := isa.LineAlign(addr)

	// Coherence: a store must own the line exclusively.
	extra := uint64(0)
	if write && h.p.Cores > 1 {
		for c := range h.l1 {
			if c == core {
				continue
			}
			if present, _ := h.l1[c].invalidate(line); present {
				extra = uint64(h.p.CoherenceInvalidateLat)
			}
		}
	}

	if h.l1[core].access(line, write) {
		return cycle + uint64(h.p.L1DLat) + extra
	}

	var done uint64
	if h.l2p != nil && h.l2p[core].access(line, write) {
		done = cycle + uint64(h.p.L2PrivLat)
	} else {
		done = h.accessLLC(line, write, cycle)
		h.fillL2(core, line, write)
	}
	h.fillL1(core, line, write)
	return done + extra
}

// accessLLC resolves a miss in a core's private levels at the shared LLC
// and below, installing the line in the LLC.
func (h *Hierarchy) accessLLC(line uint64, write bool, cycle uint64) uint64 {
	if h.llc.access(line, write) {
		return cycle + h.llcLat
	}
	done := cycle + h.llcLat
	if h.l2Resident != nil && h.l2Resident(line) {
		// Pre-warmed hot working sets: first touch behaves as an LLC hit.
		h.llc.Misses--
		h.llc.Hits++
	} else {
		done = h.belowSRAM(line, write, cycle)
	}
	h.installLLC(line, write)
	return done
}

// belowSRAM resolves an access that missed all SRAM levels.
func (h *Hierarchy) belowSRAM(line uint64, write bool, cycle uint64) uint64 {
	switch h.p.Mode {
	case DRAMOnly:
		return h.dramAccess(cycle, h.p.DRAMLat)
	case AppDirect:
		return h.dev.ReadAccess(line, cycle)
	default: // MemoryMode
		if h.dramc.access(line, write) {
			return h.dramAccess(cycle, h.p.DRAMLat)
		}
		// Pre-warmed resident region: modeled as a DRAM-cache hit on first
		// touch (the resident set was installed long before our window).
		if h.warmResident != nil && h.warmResident(line) {
			h.dramc.Misses--
			h.dramc.Hits++
			h.installDRAM(line, write)
			return h.dramAccess(cycle, h.p.DRAMLat)
		}
		// Cold or conflict miss: fetch from NVM, install in DRAM cache.
		done := h.dev.ReadAccess(line, cycle)
		h.installDRAM(line, write)
		return done
	}
}

// fillL1 installs a line into a core's L1D, propagating a dirty victim's
// state to the level below (inclusive hierarchy: the victim is present
// there).
func (h *Hierarchy) fillL1(core int, line uint64, write bool) {
	if v, d, ev := h.l1[core].install(line, write); ev && d {
		h.l1Below[core].markDirty(v)
	}
}

// fillL2 installs a line into a core's private L2, when the hierarchy has
// one, marking a dirty victim dirty in the LLC.
func (h *Hierarchy) fillL2(core int, line uint64, write bool) {
	if h.l2p == nil {
		return
	}
	if v, d, ev := h.l2p[core].install(line, write); ev && d {
		h.llc.markDirty(v)
	}
}

// installLLC installs a line into the shared LLC. Its victim leaves the
// SRAM: every private copy is back-invalidated (inclusive LLC), and the
// line goes below dirty if any copy was.
func (h *Hierarchy) installLLC(line uint64, write bool) {
	v, d, ev := h.llc.install(line, write)
	if !ev {
		return
	}
	if h.invalidatePrivate(v) {
		d = true
	}
	h.evictBelowSRAM(v, d)
}

// invalidatePrivate back-invalidates a line from every core's private
// levels, reporting whether any copy was dirty.
func (h *Hierarchy) invalidatePrivate(line uint64) (dirty bool) {
	for _, c := range h.l1 {
		if _, d := c.invalidate(line); d {
			dirty = true
		}
	}
	for _, c := range h.l2p {
		if _, d := c.invalidate(line); d {
			dirty = true
		}
	}
	return dirty
}

// evictBelowSRAM routes a line evicted from SRAM to the next level down.
func (h *Hierarchy) evictBelowSRAM(line uint64, dirty bool) {
	if !dirty {
		return
	}
	switch h.p.Mode {
	case DRAMOnly:
		// DRAM main memory absorbs the writeback; it is the home of the
		// data, so the words become "durable" in the volatile sense: they
		// leave the dirty set and land in the backing image.
		h.flushLineToImage(line)
		h.DRAMWritebacks++
	case AppDirect:
		h.queueNVMWriteback(line)
	default: // MemoryMode
		h.dramc.markDirtyOrInstall(line, h)
		h.DRAMWritebacks++
	}
}

// markDirtyOrInstall marks an existing DRAM-cache line dirty, or installs
// it (write-allocate) cascading any victim to NVM.
func (d *dramCache) markDirtyOrInstall(line uint64, h *Hierarchy) {
	idx := d.setIndex(line)
	if e, ok := d.sets[idx]; ok && e.tag == line {
		e.dirty = true
		d.sets[idx] = e
		return
	}
	h.installDRAM(line, true)
}

// installDRAM installs a line into the DRAM cache, evicting a conflicting
// dirty victim toward NVM with full back-invalidation (inclusive).
func (h *Hierarchy) installDRAM(line uint64, write bool) {
	v, d, ev := h.dramc.install(line, write)
	if !ev {
		return
	}
	// Back-invalidate SRAM copies of the victim.
	if h.invalidatePrivate(v) {
		d = true
	}
	if _, pd := h.llc.invalidate(v); pd {
		d = true
	}
	if d {
		h.queueNVMWriteback(v)
	}
}

// queueNVMWriteback snapshots the line's dirty words into the (volatile)
// memory-controller eviction buffer on its way to the WPQ.
func (h *Hierarchy) queueNVMWriteback(line uint64) {
	words := h.lineWords(line)
	if words.Empty() {
		return
	}
	h.evictq.push(evictEntry{line: line, words: words})
	h.NVMWritebacks++
}

// lineWords snapshots the current dirty word values of a line.
func (h *Hierarchy) lineWords(line uint64) isa.LineWords {
	if lw := h.dirty.line(line); lw != nil {
		return *lw
	}
	return isa.LineWords{}
}

// flushLineToImage moves a line's dirty words straight into the backing
// image (DRAM-only mode: DRAM is home).
func (h *Hierarchy) flushLineToImage(line uint64) {
	lw := h.dirty.line(line)
	if lw == nil {
		return
	}
	lw.Range(line, func(a, v uint64) { h.dev.Image().WriteWord(a, v) })
	h.dirty.deleteLine(line)
}

// StoreData records a store's value in the volatile functional layer. It is
// called when the store merges into L1D.
func (h *Hierarchy) StoreData(addr, val uint64) {
	h.dirty.set(isa.WordAlign(addr), val)
}

// PersistStore enqueues a committed store on the asynchronous persist path
// (PPA/ReplayCache). It returns an ack token and ok=false when the core's
// write buffer is full; the caller must retry (stalling the store pipeline).
func (h *Hierarchy) PersistStore(core int, addr, val uint64, cycle uint64) (token int64, ok bool) {
	a := isa.WordAlign(addr)
	ready := cycle + uint64(h.p.PersistTransit) + uint64(h.p.PersistLag)
	return h.wbs[core].add(isa.LineAlign(a), a, val, ready, cycle)
}

// FlushWB removes the lazy-coalescing lag from every pending persist of a
// core: a region boundary needs them in the WPQ as soon as the transit
// latency allows. Entries whose transit already elapsed become ready now.
func (h *Hierarchy) FlushWB(core int, cycle uint64) {
	lag := uint64(h.p.PersistLag)
	wb := h.wbs[core]
	if h.tr != nil && wb.depth() > 0 {
		h.tr.Emit(obs.Event{
			Cycle: cycle,
			Type:  obs.EvInstant,
			Core:  core,
			Name:  "wb-flush",
			Cat:   "persist",
			Args:  [obs.MaxEventArgs]obs.Arg{{Key: "entries", Val: int64(wb.depth())}},
		})
	}
	for i := 0; i < wb.n; i++ {
		e := &wb.buf[(wb.head+i)%len(wb.buf)]
		if e.ready <= cycle {
			continue
		}
		ready := cycle
		if e.ready > lag && e.ready-lag > cycle {
			ready = e.ready - lag // transit portion still pending
		}
		e.ready = ready
	}
}

// PersistAcked reports whether the persist identified by token (from
// PersistStore) has been accepted into the WPQ — i.e., is durable.
func (h *Hierarchy) PersistAcked(core int, token int64) bool {
	return h.wbs[core].acked(token)
}

// CurrentPersistSeq returns the sequence of the newest write-buffer entry
// (-1 when none was ever enqueued). A region boundary snapshots this value:
// the region is durable once every entry up to the snapshot has entered the
// WPQ, regardless of entries the next region adds meanwhile.
func (h *Hierarchy) CurrentPersistSeq(core int) int64 { return h.wbs[core].appended - 1 }

// PersistedThrough reports whether every write-buffer entry with sequence
// <= seq has been accepted into the WPQ.
func (h *Hierarchy) PersistedThrough(core int, seq int64) bool {
	return seq < h.wbs[core].popped
}

// PersistPending returns the core's outstanding-persist counter — the
// hardware counter of Section 4.3 that region boundaries compare with zero.
func (h *Hierarchy) PersistPending(core int) int { return h.wbs[core].pending }

// PersistBacklog returns the queued-but-not-yet-accepted persist work:
// write-buffer entries across all cores plus pending demand evictions.
// Zero means every durable-bound line has reached the WPQ (the ADR
// domain), so further ticks change no NVM state.
func (h *Hierarchy) PersistBacklog() int {
	n := h.evictq.depth()
	for _, wb := range h.wbs {
		n += wb.depth()
	}
	return n
}

// SetPersistPerturb attaches a deterministic accept-timing perturbation:
// when fn(core, cycle) is true, that core's front write-buffer entry is
// not offered to the WPQ this cycle. nil (the default) disables it.
func (h *Hierarchy) SetPersistPerturb(fn func(core int, cycle uint64) bool) {
	h.perturb = fn
}

// WBFull reports whether the core's write buffer cannot take a new line.
func (h *Hierarchy) WBFull(core int) bool { return h.wbs[core].full() }

// Tick advances the persist and eviction machinery one cycle:
// the NVM device drains, one eviction-buffer entry may enter the WPQ, and
// one write-buffer entry (round-robin across cores) may enter the WPQ.
// A typed device error (e.g. an unaligned word reaching the WPQ) aborts the
// cycle and is returned for the machine to surface — it indicates state
// corruption, not contention.
func (h *Hierarchy) Tick(cycle uint64) error {
	h.dev.Tick(cycle)

	// Demand evictions first: they compete with persists for WPQ slots.
	if h.evictq.depth() > 0 {
		e := h.evictq.front()
		ok, err := h.dev.TryAccept(e.line, &e.words)
		if err != nil {
			return fmt.Errorf("hierarchy: eviction of line %#x: %w", e.line, err)
		}
		if ok {
			// The words are durable now; retire them from the volatile
			// layer unless overwritten since the snapshot.
			if lw := h.dirty.line(e.line); lw != nil {
				for s := 0; s < isa.LineWordCount; s++ {
					if e.words.Mask&lw.Mask&(1<<s) != 0 && lw.Words[s] == e.words.Words[s] {
						h.dirty.clearSlot(e.line, lw, s)
					}
				}
			}
			h.evictq.pop()
		}
	}

	// Persist accepts: up to one per memory channel per cycle, round-robin
	// across cores. A core whose front entry is still in its coalescing
	// window does not block the others.
	n := len(h.wbs)
	maxAccepts := h.channels
	accepted := 0
	core := h.wbNext - 1
	for i := 0; i < n && accepted < maxAccepts; i++ {
		if core++; core == n {
			core = 0
		}
		wb := h.wbs[core]
		if wb.depth() == 0 {
			continue
		}
		if h.perturb != nil && h.perturb(core, cycle) {
			continue
		}
		e := wb.front()
		if e.ready > cycle {
			continue
		}
		ok, err := h.dev.TryAccept(e.line, &e.words)
		if err != nil {
			return fmt.Errorf("hierarchy: core %d persist of line %#x: %w", core, e.line, err)
		}
		if ok {
			wb.pending -= e.stores
			h.drainedLines.Inc()
			h.ackedStores.Add(uint64(e.stores))
			if h.commitToDurable != nil {
				// WPQ accept is the durability point (ADR domain). The
				// opening store is attributed exactly — it waited longest,
				// so the tail quantiles are exact — and the coalesced rest
				// by their mean commit cycle.
				h.commitToDurable.Observe(float64(cycle - e.commitFirst))
				if k := uint64(e.stores); k > 1 {
					mean := (e.commitSum - e.commitFirst) / (k - 1)
					h.commitToDurable.ObserveN(float64(cycle-mean), k-1)
				}
				h.drainBatch.Observe(float64(e.stores))
			}
			if h.tr != nil {
				h.tr.Emit(obs.Event{
					Cycle: cycle,
					Type:  obs.EvInstant,
					Core:  core,
					Name:  "persist-drain",
					Cat:   "persist",
					Args: [obs.MaxEventArgs]obs.Arg{
						{Key: "pending", Val: int64(wb.pending)},
						{Key: "stores", Val: int64(e.stores)},
					},
				})
			}
			wb.pop()
			accepted++
		}
	}
	if h.wbNext++; h.wbNext >= n {
		h.wbNext = 0
	}
	return nil
}

// NextEvent reports the earliest cycle, no earlier than cycle, at which
// Tick may change the hierarchy or the device under it while nothing else
// does: the device's own events, an eviction or a ready write-buffer front
// the device would take now, or a front's ready cycle. math.MaxUint64
// means never. A ready front the device would refuse waits for the
// device. Under a persist perturbation such a front reports cycle+1: the
// perturbation decides per cycle whether it is offered, and so whether a
// skipped cycle would count a rejection.
func (h *Hierarchy) NextEvent(cycle uint64) uint64 {
	next := h.dev.NextEvent(cycle)
	if next <= cycle {
		return cycle
	}
	if h.evictq.depth() > 0 && h.dev.Accepts(h.evictq.front().line) {
		return cycle
	}
	for _, wb := range h.wbs {
		if wb.depth() == 0 {
			continue
		}
		e := wb.front()
		switch {
		case e.ready > cycle:
			next = min(next, e.ready)
		case h.dev.Accepts(e.line):
			return cycle
		case h.perturb != nil:
			next = min(next, cycle+1)
		}
	}
	return next
}

// ChargeIdle accounts k more ticks like the idle one just run, in which
// the device refused rejects offers: the round-robin drain pointer turns
// and the device counts the rejections. The caller guarantees, through
// NextEvent, that nothing else changes in those ticks.
func (h *Hierarchy) ChargeIdle(k, rejects uint64) {
	h.wbNext = int((uint64(h.wbNext) + k) % uint64(len(h.wbs)))
	h.dev.ChargeIdle(k, rejects*k)
}

// CanPersist reports whether PersistStore would take a store to addr by
// core now: the store coalesces into a pending line, or the buffer has
// room.
func (h *Hierarchy) CanPersist(core int, addr uint64) bool {
	wb := h.wbs[core]
	if !wb.full() {
		return true
	}
	_, hit := wb.index[isa.LineAlign(addr)]
	return wb.coalesce && hit
}

// WarmInstall installs a set of clean lines for one core, bottom-up
// (DRAM cache, shared SRAM, private levels, L1D), without touching hit/miss
// statistics — the sampled runner's functional warm-up, replaying the lines
// a fast-forwarded stretch touched so a detailed window does not open on a
// cold hierarchy. Lines must be ordered oldest-touch first so recency
// replacement leaves the most recently touched lines resident. Installs are
// clean; on the fresh hierarchy a window opens with, victims carry no dirty
// words, so nothing is queued toward the NVM.
func (h *Hierarchy) WarmInstall(core int, lines []uint64) {
	for _, line := range lines {
		if h.p.Mode == MemoryMode {
			h.installDRAM(line, false)
		}
		h.installLLC(line, false)
		h.fillL2(core, line, false)
		h.fillL1(core, line, false)
	}
}

// WriteDirty writes every volatile dirty word into img — the
// eADR/battery-backed flush-on-failure path, whose energy cost is the
// supercapacitor budget PPA's tiny checkpoint replaces — and returns the
// number of bytes written. It leaves the hierarchy as it is, so an outage
// copied to another machine can flush its source's words into its own
// device.
func (h *Hierarchy) WriteDirty(img *isa.MapMemory) int {
	n := 0
	for base, lw := range h.dirty.lines {
		lw.Range(base, func(a, v uint64) {
			img.WriteWord(a, v)
			n += isa.WordSize
		})
	}
	return n
}

// FlushAllDirty writes every volatile dirty word to the hierarchy's NVM
// image and drops it from the volatile layer, leaving the image
// architecturally complete.
func (h *Hierarchy) FlushAllDirty() {
	h.WriteDirty(h.dev.Image())
	h.dirty.reset()
}

// PowerFail models the loss of all volatile state: SRAM caches, the DRAM
// cache, write buffers, and the memory-controller eviction buffer. The NVM
// image (including WPQ contents, which are in the ADR domain) survives.
func (h *Hierarchy) PowerFail() {
	h.clearVolatile()
	h.dev.PowerFail()
}

// DirtyWordCount returns the number of volatile (not-yet-durable) words —
// the data at risk across a power failure.
func (h *Hierarchy) DirtyWordCount() int { return h.dirty.words }

// L2MissRate returns the shared SRAM LLC miss rate (the paper quotes L2
// miss rates when selecting Figure 10's applications).
func (h *Hierarchy) L2MissRate() float64 { return h.llc.MissRate() }

// DRAMCacheMissRate returns the DRAM-cache miss rate (memory mode only).
func (h *Hierarchy) DRAMCacheMissRate() float64 {
	if h.dramc == nil {
		return 0
	}
	return h.dramc.MissRate()
}

// WBStats returns aggregate write-buffer statistics across cores.
func (h *Hierarchy) WBStats() (enqueuedLines, coalescedStores uint64) {
	for _, wb := range h.wbs {
		enqueuedLines += wb.EnqueuedLines
		coalescedStores += wb.CoalescedStores
	}
	return
}
