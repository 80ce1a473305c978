// Package cache models the memory hierarchy of Table 2: per-core L1D, a
// shared SRAM L2 (optionally a private L2 + shared L3 for the Figure 14
// study), a direct-mapped DRAM cache (PMEM memory mode), and the NVM device
// below. It also implements the L1D write buffer that carries PPA's
// asynchronous store persistence with persist coalescing (Section 4.3).
//
// The hierarchy is split into two layers:
//
//   - a timing layer: set-associative tag arrays that decide hit level,
//     latency, and evictions;
//   - a functional layer: a single "volatile dirty words" map holding every
//     word value that has been written but is not yet durable in NVM. A
//     power failure drops this map (and the write buffers); recovery
//     correctness is judged against what survived in the NVM image.
package cache

import (
	"math"
	"math/bits"

	"ppa/internal/isa"
)

// saWay is one way's tag state. The fields pack to 16 bytes so a whole
// 4-way set shares one hardware cache line — the tag arrays are probed
// several times per simulated cycle, and the previous parallel-slice layout
// (tags/valid/dirty/lru in four separate arrays) cost four cache lines per
// probe.
type saWay struct {
	tag   uint64
	lru   uint32
	valid bool
	dirty bool
}

// A tag array stores a set's ways only once an install touches it. The
// sets are indexed in groups of 2^shift, and a group's storage is one unit:
// idx maps each group to the 1-based ordinal of its unit, and 0 marks an
// untouched group, which reads as all-invalid exactly like a zeroed one.
// Ordinals are handed out in install order, and unit i lives in chunk
// chunkOf(i). Chunk k holds 4·2^k units, up to 256, and is never copied or
// moved once allocated, so a run pays for the sets it touches and a power
// failure reuses the chunks. Only claim writes idx, and it lists each group
// it hands a unit to, so a reset zeroes those entries alone instead of the
// whole index (32 KiB for Table 2's L2). idx holds no pointers, so the
// collector never scans it. The chunk sizes were chosen by measuring the crash-sweep and
// litmus benchmarks: fixed 64-set chunks slow litmus down, and one doubling
// slab spends crash-sweep's time copying.
const (
	firstChunkLog = 2 // chunk 0 holds 1<<firstChunkLog units
	maxChunkLog   = 8 // no chunk holds more than 1<<maxChunkLog units
	// smallChunks is the number of chunks that double in size, and
	// smallUnits the units they hold together (4+8+...+128).
	smallChunks = maxChunkLog - firstChunkLog
	smallUnits  = 1<<maxChunkLog - 1<<firstChunkLog
)

// chunkOf locates storage unit i (0-based): its chunk and its offset in
// units within that chunk.
func chunkOf(i int) (k, off int) {
	if i < smallUnits {
		k = bits.Len(uint(i+1<<firstChunkLog)) - firstChunkLog - 1
		return k, i + 1<<firstChunkLog - 1<<(firstChunkLog+k)
	}
	i -= smallUnits
	return smallChunks + i>>maxChunkLog, i & (1<<maxChunkLog - 1)
}

// setAssoc is an LRU set-associative tag array.
type setAssoc struct {
	ways    int
	setMask uint64
	// shift is log2 of the sets per storage unit: the smallest that lets a
	// uint16 ordinal number every unit. It is 0 for every Table 2 array.
	shift  uint
	idx    []uint16  // per group of sets: 1-based unit ordinal, 0 = untouched
	chunks [][]saWay // unit storage, set-major within a unit
	clock  uint32

	Hits   uint64
	Misses uint64

	// claimed lists the group of each unit handed out since construction
	// or reset, in claim order.
	claimed []uint16
}

// newSetAssoc builds a cache with the given total size in bytes and
// associativity; sets = size / (64 * ways). Size must make sets a power of
// two, which all Table 2 configurations do.
func newSetAssoc(sizeBytes uint64, ways int) *setAssoc {
	sets := sizeBytes / uint64(isa.LineSize) / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two.
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	shift := uint(0)
	for sets>>shift > math.MaxUint16 {
		shift++
	}
	return &setAssoc{
		ways:    ways,
		setMask: sets - 1,
		shift:   shift,
		idx:     make([]uint16, sets>>shift),
	}
}

// reset empties the array in place, exactly as a fresh one starts, keeping
// its chunks for reuse. Only the groups claimed since the last reset hold a
// nonzero index entry.
func (c *setAssoc) reset() {
	for _, g := range c.claimed {
		c.idx[g] = 0
	}
	c.claimed = c.claimed[:0]
	c.clock, c.Hits, c.Misses = 0, 0, 0
}

// set returns the ways of line's set, or nil when no install has touched
// its group yet.
func (c *setAssoc) set(line uint64) []saWay {
	s := (line / isa.LineSize) & c.setMask
	o := c.idx[s>>c.shift]
	if o == 0 {
		return nil
	}
	k, off := chunkOf(int(o) - 1)
	base := (off<<c.shift | int(s&(1<<c.shift-1))) * c.ways
	return c.chunks[k][base : base+c.ways]
}

// claim gives line's untouched group the next storage unit, all-invalid,
// and returns line's set. A chunk is allocated when its first unit is
// claimed, and holds no more units than the array has left to hand out.
func (c *setAssoc) claim(line uint64) []saWay {
	i := len(c.claimed)
	k, off := chunkOf(i)
	unit := c.ways << c.shift
	if k == len(c.chunks) {
		n := min(1<<(firstChunkLog+min(k, smallChunks)), len(c.idx)-i)
		c.chunks = append(c.chunks, make([]saWay, n*unit))
	}
	clear(c.chunks[k][off*unit : (off+1)*unit])
	g := ((line / isa.LineSize) & c.setMask) >> c.shift
	c.claimed = append(c.claimed, uint16(g))
	c.idx[g] = uint16(len(c.claimed))
	return c.set(line)
}

// lookup probes the array without changing state; returns the line's way
// or nil.
func (c *setAssoc) lookup(line uint64) *saWay {
	set := c.set(line)
	for w := range set {
		if e := &set[w]; e.valid && e.tag == line {
			return e
		}
	}
	return nil
}

// access probes and updates LRU; returns hit.
func (c *setAssoc) access(line uint64, write bool) bool {
	c.clock++
	if e := c.lookup(line); e != nil {
		e.lru = c.clock
		if write {
			e.dirty = true
		}
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// install inserts a line, returning the evicted victim line and whether it
// was dirty. ok=false means no eviction was necessary.
func (c *setAssoc) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	c.clock++
	set := c.set(line)
	if set == nil {
		set = c.claim(line)
	}
	// Prefer an invalid way.
	slot := -1
	for w := range set {
		if !set[w].valid {
			slot = w
			break
		}
	}
	if slot < 0 {
		// Evict LRU.
		slot = 0
		for w := 1; w < len(set); w++ {
			if set[w].lru < set[slot].lru {
				slot = w
			}
		}
		victim, victimDirty, evicted = set[slot].tag, set[slot].dirty, true
	}
	set[slot] = saWay{tag: line, lru: c.clock, valid: true, dirty: write}
	return victim, victimDirty, evicted
}

// invalidate removes a line (back-invalidation), reporting whether it was
// present and dirty.
func (c *setAssoc) invalidate(line uint64) (present, dirty bool) {
	if e := c.lookup(line); e != nil {
		e.valid = false
		return true, e.dirty
	}
	return false, false
}

// markDirty sets the dirty bit if present.
func (c *setAssoc) markDirty(line uint64) {
	if e := c.lookup(line); e != nil {
		e.dirty = true
	}
}

// MissRate returns the fraction of accesses that missed.
func (c *setAssoc) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// dmEntry is a direct-mapped DRAM-cache slot.
type dmEntry struct {
	tag   uint64
	dirty bool
}

// dramCache is the direct-mapped 4 GB DRAM cache of PMEM's memory mode.
// Only touched sets are materialized.
type dramCache struct {
	setMask uint64
	sets    map[uint64]dmEntry

	Hits   uint64
	Misses uint64
}

func newDRAMCache(sizeBytes uint64) *dramCache {
	sets := sizeBytes / isa.LineSize
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	return &dramCache{setMask: p - 1, sets: make(map[uint64]dmEntry)}
}

// reset empties the cache in place, keeping its map's storage.
func (d *dramCache) reset() {
	clear(d.sets)
	d.Hits, d.Misses = 0, 0
}

func (d *dramCache) setIndex(line uint64) uint64 { return (line / isa.LineSize) & d.setMask }

// access probes; on hit (write) marks dirty.
func (d *dramCache) access(line uint64, write bool) bool {
	idx := d.setIndex(line)
	e, ok := d.sets[idx]
	if ok && e.tag == line {
		if write && !e.dirty {
			e.dirty = true
			d.sets[idx] = e
		}
		d.Hits++
		return true
	}
	d.Misses++
	return false
}

// install inserts a line, returning the conflicting victim if any.
func (d *dramCache) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	idx := d.setIndex(line)
	if e, ok := d.sets[idx]; ok && e.tag != line {
		victim, victimDirty, evicted = e.tag, e.dirty, true
	}
	d.sets[idx] = dmEntry{tag: line, dirty: write}
	return victim, victimDirty, evicted
}

func (d *dramCache) markDirty(line uint64) {
	idx := d.setIndex(line)
	if e, ok := d.sets[idx]; ok && e.tag == line {
		e.dirty = true
		d.sets[idx] = e
	}
}

func (d *dramCache) MissRate() float64 {
	t := d.Hits + d.Misses
	if t == 0 {
		return 0
	}
	return float64(d.Misses) / float64(t)
}
