// Package nvm models the persistent main-memory device: a byte-addressable
// NVM behind the machine's integrated memory controllers, each with a
// bounded write-pending queue (WPQ), finite write bandwidth, and asymmetric
// read/write latency, following the Intel PMEM characterization the paper
// configures in Table 2 (175 ns reads, 90 ns writes, 16-entry WPQs,
// 2.3 GB/s write bandwidth per DIMM, two integrated memory controllers).
//
// The WPQs sit inside the persistence domain (ADR): a write is durable the
// moment it is accepted into a WPQ. The device also hosts the designated
// checkpoint storage the JIT-checkpointing controller writes on power
// failure (Section 4.5).
package nvm

import (
	"bytes"
	"fmt"
	"math"

	"ppa/internal/isa"
	"ppa/internal/mutation"
	"ppa/internal/obs"
)

// Config holds the device parameters. All latencies are in core cycles.
type Config struct {
	// Channels is the number of memory controllers; lines interleave
	// across them (Table 2: two integrated memory controllers).
	Channels int
	// ReadLatency is the full load-to-use latency of an NVM read.
	ReadLatency int
	// WPQEntries is the per-channel write-pending-queue depth (Table 2: 16).
	WPQEntries int
	// WCBEntries is the per-channel media write-combining buffer depth:
	// PMEM DIMMs internally buffer and combine writes (Optane's AIT/write
	// buffering), so repeated writes to a resident line coalesce without
	// consuming media bandwidth. The buffer drains least-recently-written
	// lines first, keeping hot lines resident.
	WCBEntries int
	// WriteDrainCycles is how long writing one 64B line to the media
	// occupies its channel; it encodes the per-channel write bandwidth
	// (64 B / 2.3 GB/s at 2 GHz ~= 56 cycles).
	WriteDrainCycles int
	// CoalesceWPQ merges a newly accepted line into an already-queued entry
	// for the same line (persist coalescing, Section 4.3).
	CoalesceWPQ bool
}

// DefaultConfig returns the Table 2 configuration at a 2 GHz core clock.
func DefaultConfig() Config {
	return Config{
		Channels:         2,
		ReadLatency:      350, // 175 ns
		WPQEntries:       16,
		WCBEntries:       256,
		WriteDrainCycles: 56, // 2.3 GB/s write bandwidth per channel
		CoalesceWPQ:      true,
	}
}

// WithWriteBandwidth returns a copy of c with WriteDrainCycles set for the
// given per-channel bandwidth in GB/s at a 2 GHz clock (Figure 18 sweeps
// this).
func (c Config) WithWriteBandwidth(gbps float64) Config {
	if gbps <= 0 {
		return c
	}
	c.WriteDrainCycles = int(float64(isa.LineSize) / (gbps / 2.0))
	if c.WriteDrainCycles < 1 {
		c.WriteDrainCycles = 1
	}
	return c
}

// wpqEntry is one pending line write inside the persistence domain.
type wpqEntry struct {
	line  uint64
	words isa.LineWords
}

// channel is one memory controller's queue and media state. Only write
// drains serialize on the channel clock: read requests are issued by the
// out-of-order cores at arbitrary future cycles, so serializing them on a
// scalar clock would let one far-future read block every near-term one
// (an order-coupling artifact, not contention). Read-side bandwidth limits
// are therefore folded into the fixed read latency, while a read arriving
// mid-drain still pays for the non-preemptive write drain.
//
// The write path is WPQ (accept gate, persistence domain) -> WCB (media
// write-combining buffer, also inside the persistence domain) -> media.
// The WPQ is a fixed ring (entries at (wpqHead+i)%len(wpq), i < wpqN),
// allocated lazily at WPQEntries capacity.
type channel struct {
	wpq       []wpqEntry
	wpqHead   int
	wpqN      int
	wcb       wcbBuf
	writeBusy uint64
}

// wcbBuf is the media write-combining buffer: a fixed-capacity set of
// resident lines in least-recently-written order. Re-writing a resident
// line moves it to the back; the drain victim is always the front, so
// eviction order is identical to the stamp-map this replaces — but finding
// the victim is O(1) instead of a full map scan per drain, and the node
// pool makes residency churn allocation-free.
type wcbBuf struct {
	idx        map[uint64]int32 // line -> node index
	nodes      []wcbNode
	head, tail int32 // LRW list ends (-1 when empty)
	free       int32 // free-list head through next (-1 when full)
	n          int
}

type wcbNode struct {
	line       uint64
	prev, next int32
}

func (b *wcbBuf) init(capacity int) {
	b.idx = make(map[uint64]int32, capacity)
	b.nodes = make([]wcbNode, capacity)
	for i := range b.nodes {
		b.nodes[i].next = int32(i + 1)
	}
	b.nodes[capacity-1].next = -1
	b.free = 0
	b.head, b.tail = -1, -1
}

// empty evicts every resident line. Which node holds a line is invisible
// outside the buffer, so an emptied buffer behaves exactly like a newly
// initialized one, and emptying costs the lines it held, not its capacity.
func (b *wcbBuf) empty() {
	for b.n > 0 {
		b.evictOldest()
	}
}

func (b *wcbBuf) unlink(i int32) {
	nd := &b.nodes[i]
	if nd.prev >= 0 {
		b.nodes[nd.prev].next = nd.next
	} else {
		b.head = nd.next
	}
	if nd.next >= 0 {
		b.nodes[nd.next].prev = nd.prev
	} else {
		b.tail = nd.prev
	}
}

func (b *wcbBuf) pushBack(i int32) {
	nd := &b.nodes[i]
	nd.prev, nd.next = b.tail, -1
	if b.tail >= 0 {
		b.nodes[b.tail].next = i
	} else {
		b.head = i
	}
	b.tail = i
}

// touch moves a resident line to the most-recently-written position,
// reporting whether the line was resident.
func (b *wcbBuf) touch(line uint64) bool {
	i, ok := b.idx[line]
	if !ok {
		return false
	}
	if b.tail != i {
		b.unlink(i)
		b.pushBack(i)
	}
	return true
}

// insert adds a non-resident line at the most-recently-written position.
// The caller guarantees space (n < capacity).
func (b *wcbBuf) insert(line uint64) {
	i := b.free
	b.free = b.nodes[i].next
	b.nodes[i].line = line
	b.pushBack(i)
	b.idx[line] = i
	b.n++
}

// evictOldest removes and returns the least-recently-written line.
func (b *wcbBuf) evictOldest() uint64 {
	i := b.head
	line := b.nodes[i].line
	b.unlink(i)
	b.nodes[i].next = b.free
	b.free = i
	delete(b.idx, line)
	b.n--
	return line
}

// Device is the NVM main-memory device shared by all cores.
type Device struct {
	cfg   Config
	image *isa.MapMemory // durable memory contents

	chans []channel

	// checkpoint is the designated JIT-checkpoint storage area; it is
	// durable but separate from the memory image. Empty means no
	// checkpoint; its storage is kept for the next dump. spare is the
	// copy MutateCheckpoint hands its fault, kept likewise.
	checkpoint []byte
	spare      []byte

	// plog is the designated per-core persist-log storage area (undo/redo
	// transaction logs): durable like the checkpoint area, separate from
	// the image, surviving PowerFail. logObs observes every append — the
	// oracle's log-stream checker attaches here. See log.go.
	plog   [][]LogRecord
	logObs []func(core int, rec LogRecord)

	// mediaWrites counts actual media programs per line index
	// (endurance/wear accounting; persist coalescing exists to keep this
	// down).
	mediaWrites map[uint64]uint64
	MediaWrites uint64

	// Statistics.
	Reads         uint64
	LineWrites    uint64
	Coalesced     uint64
	RejectedFull  uint64
	BytesWritten  uint64
	WPQOccupancyX uint64 // sum of occupancy per accepted write, for averages

	// Observability (nil-safe when disabled). now is the last ticked cycle,
	// used to stamp TryAccept events (TryAccept has no cycle parameter; the
	// hierarchy calls it from the same cycle's Tick).
	tr         *obs.Tracer
	wpqRejects *obs.Counter
	wpqAtWrite *obs.Histogram
	now        uint64

	// acceptObs observes every successful TryAccept — the ADR durability
	// point — with the offered word values. The persist-ordering checker
	// (internal/oracle) and the litmus conformance harness hang off this.
	acceptObs []func(cycle, line uint64, words *isa.LineWords)
}

// SetAcceptObserver replaces the accept-observer list with the given
// callback, fired on every successful line accept (including coalescing
// accepts), stamped with the device's current cycle. A nil observer (the
// default) costs one length check per accept.
func (d *Device) SetAcceptObserver(fn func(cycle, line uint64, words *isa.LineWords)) {
	d.acceptObs = d.acceptObs[:0]
	if fn != nil {
		d.acceptObs = append(d.acceptObs, fn)
	}
}

// AddAcceptObserver appends an accept observer, preserving any already
// attached (the lockstep oracle and the litmus recorder can tap the same
// accept stream). Observers fire in attachment order.
func (d *Device) AddAcceptObserver(fn func(cycle, line uint64, words *isa.LineWords)) {
	d.acceptObs = append(d.acceptObs, fn)
}

// fireAccept notifies every attached observer of a successful accept.
func (d *Device) fireAccept(line uint64, words *isa.LineWords) {
	for _, fn := range d.acceptObs {
		fn(d.now, line, words)
	}
}

// NewDevice creates an NVM device with the given configuration.
func NewDevice(cfg Config) *Device {
	if cfg.WPQEntries <= 0 {
		cfg.WPQEntries = 1
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	d := &Device{cfg: cfg, chans: make([]channel, cfg.Channels)}
	d.Reset()
	return d
}

// Reset returns the device to the state NewDevice builds: an empty image,
// log area and checkpoint area, fresh wear state and statistics, empty
// queues and no accept or log observers. It keeps the channels' WPQ rings,
// write-combining buffers, checkpoint storage and observer lists' storage
// for reuse, and the obs handles SetObs bound.
func (d *Device) Reset() {
	for i := range d.chans {
		d.chans[i].reset()
	}
	*d = Device{
		cfg:        d.cfg,
		image:      isa.NewMapMemory(),
		chans:      d.chans,
		checkpoint: d.checkpoint[:0],
		spare:      d.spare[:0],
		logObs:     d.logObs[:0],
		acceptObs:  d.acceptObs[:0],
		tr:         d.tr,
		wpqRejects: d.wpqRejects,
		wpqAtWrite: d.wpqAtWrite,
	}
}

// CrashCopyFrom makes d what src leaves behind across a power failure,
// for a device of the same configuration: its image (copied into d's own
// map), checkpoint and log areas, wear state, statistics and clock. The
// channels' queues and write-combining buffers, which PowerFail empties,
// are left empty instead of copied; their contents are already in the
// image. It keeps d's own storage, obs handles and accept and log
// observers, and shares no mutable storage with src: every field is src's
// except those it restores.
func (d *Device) CrashCopyFrom(src *Device) {
	own := *d
	*d = *src
	d.image = own.image
	d.image.CopyFrom(src.image)
	d.chans = own.chans
	d.PowerFail()
	d.checkpoint = append(own.checkpoint[:0], src.checkpoint...)
	d.spare = own.spare
	d.plog = own.plog[:0]
	for i, recs := range src.plog {
		var log []LogRecord
		if i < len(own.plog) {
			log = own.plog[i][:0]
		}
		if recs != nil {
			log = append(log, recs...)
		}
		d.plog = append(d.plog, log)
	}
	d.mediaWrites = nil
	if src.mediaWrites != nil {
		d.mediaWrites = own.mediaWrites
		if d.mediaWrites == nil {
			d.mediaWrites = make(map[uint64]uint64, len(src.mediaWrites))
		}
		clear(d.mediaWrites)
		for line, n := range src.mediaWrites {
			d.mediaWrites[line] = n
		}
	}
	d.tr, d.wpqRejects, d.wpqAtWrite = own.tr, own.wpqRejects, own.wpqAtWrite
	d.acceptObs, d.logObs = own.acceptObs, own.logObs
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetObs attaches the observability hub: WPQ-full rejections become trace
// events and the device's write-path statistics register as metrics.
func (d *Device) SetObs(hub *obs.Hub) {
	d.tr = hub.Tracer()
	reg := hub.Registry()
	d.wpqRejects = reg.Counter("nvm.wpq-rejects")
	d.wpqAtWrite = reg.Histogram("nvm.wpq-occupancy-at-accept")
	reg.BindGaugeFunc("nvm.line-writes", func() float64 { return float64(d.LineWrites) })
	reg.BindGaugeFunc("nvm.coalesced", func() float64 { return float64(d.Coalesced) })
	reg.BindGaugeFunc("nvm.media-writes", func() float64 { return float64(d.MediaWrites) })
	reg.BindGaugeFunc("nvm.wpq-occupancy", func() float64 { return float64(d.WPQLen()) })
}

// Image exposes the durable memory image (for recovery and verification).
func (d *Device) Image() *isa.MapMemory { return d.image }

// ReadWord returns the durable value of one word. Timing is accounted
// separately via ReadAccess.
func (d *Device) ReadWord(addr uint64) uint64 { return d.image.ReadWord(addr) }

// chanOf maps a line to its memory controller (line-interleaved).
func (d *Device) chanOf(line uint64) *channel {
	return &d.chans[(line/isa.LineSize)%uint64(len(d.chans))]
}

// ReadAccess models the timing of a demand line read issued at the given
// cycle and returns the cycle at which data is available.
func (d *Device) ReadAccess(line uint64, cycle uint64) uint64 {
	ch := d.chanOf(line)
	start := cycle
	// Write drains are non-preemptive: a read arriving mid-drain waits for
	// the in-progress drain to finish. This is the WPQ contention that
	// penalizes write-heavy PPA workloads (Section 7.2's rb discussion).
	if ch.writeBusy > start {
		start = ch.writeBusy
	}
	d.Reads++
	return start + uint64(d.cfg.ReadLatency)
}

// reset empties the channel, keeping its WPQ ring and its write-combining
// buffer's storage.
func (ch *channel) reset() {
	if ch.wcb.nodes != nil {
		ch.wcb.empty()
	}
	*ch = channel{wpq: ch.wpq, wcb: ch.wcb}
}

// wpqAt returns the i-th queued entry (0 = front) of the channel's ring.
func (ch *channel) wpqAt(i int) *wpqEntry {
	return &ch.wpq[(ch.wpqHead+i)%len(ch.wpq)]
}

// wpqPush appends an entry at the ring's tail, allocating the fixed
// storage on first use. The caller guarantees space (wpqN < WPQEntries).
func (ch *channel) wpqPush(capacity int, e wpqEntry) {
	if ch.wpq == nil {
		ch.wpq = make([]wpqEntry, capacity)
	}
	ch.wpq[(ch.wpqHead+ch.wpqN)%len(ch.wpq)] = e
	ch.wpqN++
}

// wpqPop removes the front entry, returning its line. The word payload is
// already durable in the image, so nothing copies the 72-byte body.
func (ch *channel) wpqPop() uint64 {
	line := ch.wpq[ch.wpqHead].line
	if ch.wpqHead++; ch.wpqHead == len(ch.wpq) {
		ch.wpqHead = 0
	}
	ch.wpqN--
	return line
}

// WPQLen returns the total write-pending-queue occupancy across channels.
func (d *Device) WPQLen() int {
	n := 0
	for i := range d.chans {
		n += d.chans[i].wpqN
	}
	return n
}

// AlignmentError reports a write offered at a non-line-aligned address.
// Word slots within a line are 8-byte aligned by construction
// (isa.LineWords), so the remaining protocol hazard is a line base that is
// not line-aligned (e.g. one reconstructed from corrupted state). The
// device rejects it rather than silently rounding — and, since fault
// injection can synthesize such addresses, it must be an error the caller
// can handle, never a crash.
type AlignmentError struct {
	Addr uint64
}

func (e *AlignmentError) Error() string {
	return fmt.Sprintf("nvm: unaligned line address %#x", e.Addr)
}

// TryAccept offers one line write (with its dirty word values) to the
// line's channel. On success the data is durable immediately (ADR domain):
// the image is updated and true is returned. A write whose line is already
// resident in the WPQ or the media write-combining buffer coalesces
// without consuming a new entry; otherwise it needs a free WPQ slot.
// A non-line-aligned base address returns a typed *AlignmentError with no
// state changed.
func (d *Device) TryAccept(line uint64, words *isa.LineWords) (bool, error) {
	if isa.LineAlign(line) != line {
		return false, &AlignmentError{Addr: line}
	}
	ch := d.chanOf(line)
	if d.cfg.CoalesceWPQ {
		if ch.wcb.touch(line) {
			if !mutation.Is(mutation.NVMCoalesceSkipImage) {
				// Seeded bug NVMCoalesceSkipImage: the WCB hit is counted
				// but the durable image never sees the new words.
				d.applyWords(line, words)
			}
			d.Coalesced++
			d.fireAccept(line, words)
			return true, nil
		}
		for i := 0; i < ch.wpqN; i++ {
			if e := ch.wpqAt(i); e.line == line {
				e.words.Merge(words)
				d.applyWords(line, words)
				d.Coalesced++
				d.fireAccept(line, words)
				return true, nil
			}
		}
	}
	if ch.wpqN >= d.cfg.WPQEntries {
		d.RejectedFull++
		d.wpqRejects.Inc()
		if d.tr != nil {
			d.tr.Emit(obs.Event{
				Cycle: d.now,
				Type:  obs.EvInstant,
				Core:  obs.SystemTrack,
				Name:  "wpq-reject",
				Cat:   "persist",
				Args:  [obs.MaxEventArgs]obs.Arg{{Key: "occupancy", Val: int64(ch.wpqN)}},
			})
		}
		return false, nil
	}
	d.applyWords(line, words)
	ch.wpqPush(d.cfg.WPQEntries, wpqEntry{line: line, words: *words})
	d.LineWrites++
	d.BytesWritten += isa.LineSize
	d.WPQOccupancyX += uint64(ch.wpqN)
	// Distribution companion to the WPQOccupancyX running average: how full
	// the channel's queue was when this write became durable.
	d.wpqAtWrite.Observe(float64(ch.wpqN))
	d.fireAccept(line, words)
	return true, nil
}

func (d *Device) applyWords(line uint64, words *isa.LineWords) {
	words.Range(line, func(a, v uint64) { d.image.WriteWord(a, v) })
}

// Tick advances the device one cycle. Per channel: one WPQ entry may move
// into the write-combining buffer (fast), and when the buffer is above its
// drain watermark and the media idle, the least-recently-written WCB line
// drains, occupying the channel for WriteDrainCycles. Because the WCB is
// inside the persistence domain there is no need to drain it eagerly, so
// hot lines stay resident and absorb repeated persists without media
// traffic — the behaviour Optane's internal write buffering provides.
func (d *Device) Tick(cycle uint64) {
	d.now = cycle
	watermark := d.cfg.WCBEntries / 2
	for i := range d.chans {
		ch := &d.chans[i]

		// WPQ -> WCB transfer (one per cycle, needs WCB space).
		if ch.wpqN > 0 && ch.wcb.n < d.cfg.WCBEntries {
			if ch.wcb.nodes == nil {
				ch.wcb.init(d.cfg.WCBEntries)
			}
			line := ch.wpqPop()
			if !ch.wcb.touch(line) {
				ch.wcb.insert(line)
			}
		}

		// WCB -> media drain (least recently written first).
		if ch.wcb.n <= watermark || ch.writeBusy > cycle {
			continue
		}
		victim := ch.wcb.evictOldest()
		ch.writeBusy = cycle + uint64(d.cfg.WriteDrainCycles)
		if d.mediaWrites == nil {
			d.mediaWrites = make(map[uint64]uint64)
		}
		d.mediaWrites[victim/isa.LineSize]++
		d.MediaWrites++
	}
}

// NextEvent reports the earliest cycle, no earlier than cycle, at which Tick
// may change the device or Drained may change its answer: a WPQ entry that
// can move into its write-combining buffer now, a media drain due now, or
// a channel's busy deadline. math.MaxUint64 means never. While a traced
// device has a full WPQ it reports cycle+1: each rejection there is a
// trace event, which a skipped cycle cannot emit.
func (d *Device) NextEvent(cycle uint64) uint64 {
	next := uint64(math.MaxUint64)
	watermark := d.cfg.WCBEntries / 2
	for i := range d.chans {
		ch := &d.chans[i]
		switch {
		case ch.wpqN > 0 && ch.wcb.n < d.cfg.WCBEntries:
			return cycle
		case ch.writeBusy > cycle:
			next = min(next, ch.writeBusy)
		case ch.wcb.n > watermark:
			return cycle
		}
		if d.tr != nil && ch.wpqN >= d.cfg.WPQEntries {
			next = min(next, cycle+1)
		}
	}
	return next
}

// Accepts reports whether TryAccept would take line now, as a new WPQ
// entry or by coalescing, or fail with an error, without changing
// anything.
func (d *Device) Accepts(line uint64) bool {
	if isa.LineAlign(line) != line {
		return true
	}
	ch := d.chanOf(line)
	if ch.wpqN < d.cfg.WPQEntries {
		return true
	}
	if !d.cfg.CoalesceWPQ {
		return false
	}
	if _, ok := ch.wcb.idx[line]; ok {
		return true
	}
	for i := 0; i < ch.wpqN; i++ {
		if ch.wpqAt(i).line == line {
			return true
		}
	}
	return false
}

// ChargeIdle accounts k ticks in which nothing reached the device and
// nothing left its queues, rejecting rejects offers in all: it advances the
// observer clock and counts the rejections, as k calls of Tick and the
// rejected TryAccepts would.
func (d *Device) ChargeIdle(k, rejects uint64) {
	d.now += k
	d.RejectedFull += rejects
	d.wpqRejects.Add(rejects)
}

// MaxLineWear returns the largest media program count any single line has
// seen — the endurance hot spot.
func (d *Device) MaxLineWear() uint64 {
	var max uint64
	for _, n := range d.mediaWrites {
		if n > max {
			max = n
		}
	}
	return max
}

// Drained reports whether every WPQ has been accepted into the persistence
// domain and the media is idle. WCB residency is irrelevant to durability:
// its contents are already persistent.
func (d *Device) Drained(cycle uint64) bool {
	for i := range d.chans {
		ch := &d.chans[i]
		if ch.wpqN > 0 || ch.writeBusy > cycle {
			return false
		}
	}
	return true
}

// AvgWPQOccupancy returns the mean channel WPQ occupancy observed at
// accept time.
func (d *Device) AvgWPQOccupancy() float64 {
	if d.LineWrites == 0 {
		return 0
	}
	return float64(d.WPQOccupancyX) / float64(d.LineWrites)
}

// WriteCheckpoint stores the JIT-checkpoint blob durably (Section 4.5). It
// is called by the checkpoint controller while running on residual
// capacitor energy, so it has no timing interaction with the WPQs.
func (d *Device) WriteCheckpoint(blob []byte) {
	d.checkpoint = append(d.checkpoint[:0], blob...)
}

// ReadCheckpoint returns a copy of the stored checkpoint blob (nil if
// none: an empty area, such as a dump torn before its first byte, holds no
// checkpoint).
func (d *Device) ReadCheckpoint() []byte {
	if len(d.checkpoint) == 0 {
		return nil
	}
	out := make([]byte, len(d.checkpoint))
	copy(out, d.checkpoint)
	return out
}

// Checkpoint returns the checkpoint area itself (empty if none), without
// ReadCheckpoint's copy: the caller must not change it, and it is valid
// until the area is next written, mutated or cleared.
func (d *Device) Checkpoint() []byte { return d.checkpoint }

// ClearCheckpoint erases the checkpoint area (after successful recovery),
// keeping its storage for the next dump.
func (d *Device) ClearCheckpoint() { d.checkpoint = d.checkpoint[:0] }

// MutateCheckpoint applies fn to the checkpoint region in place — the
// fault-injection hook for modeling NVM-level corruption (torn 8-byte
// words, bit flips, dropped WPQ tails). fn receives a copy of the region,
// which it may change in place, and returns the corrupted replacement; a
// nil return or an unchanged slice models a fault that missed. It reports
// whether the region's bytes actually changed. The copy and the area keep
// their storage from one mutation to the next.
func (d *Device) MutateCheckpoint(fn func([]byte) []byte) bool {
	if len(d.checkpoint) == 0 {
		return false
	}
	d.spare = append(d.spare[:0], d.checkpoint...)
	out := fn(d.spare)
	if out == nil {
		return false
	}
	changed := !bytes.Equal(out, d.checkpoint)
	d.checkpoint = append(d.checkpoint[:0], out...)
	return changed
}

// PowerFail models the device across a power failure: the WPQs are inside
// the persistence domain, so accepted-but-undrained entries are NOT lost;
// only the volatile caches above lose state. The queues are considered
// flushed by ADR during the outage.
func (d *Device) PowerFail() {
	for i := range d.chans {
		d.chans[i].reset()
	}
}

// ResetClock rebases the device's absolute-cycle timing state (per-channel
// media-busy deadlines and the observer stamp) to cycle zero. The sampled
// runner calls it between detailed windows — each window's system restarts
// its cycle clock at zero, and a stale busy deadline from the previous
// window would otherwise stall the channel for thousands of phantom
// cycles. Callers must have drained the device first (empty WPQs); WCB
// residency carries no timestamps and survives as timing warmth.
func (d *Device) ResetClock() {
	d.now = 0
	for i := range d.chans {
		d.chans[i].writeBusy = 0
	}
}
