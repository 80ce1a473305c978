package cache

import (
	"math"
	"math/rand"
	"testing"

	"ppa/internal/isa"
)

// flatSetAssoc is the reference tag array: one zeroed slice holding every
// way of every set, allocated up front. setAssoc must behave exactly like
// it while storing only the sets it touches.
type flatSetAssoc struct {
	ways    int
	setMask uint64
	w       []saWay
	clock   uint32

	Hits   uint64
	Misses uint64
}

func newFlatSetAssoc(sizeBytes uint64, ways int) *flatSetAssoc {
	sets := sizeBytes / uint64(isa.LineSize) / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	p := uint64(1)
	for p*2 <= sets {
		p *= 2
	}
	return &flatSetAssoc{ways: ways, setMask: p - 1, w: make([]saWay, int(p)*ways)}
}

func (c *flatSetAssoc) setBase(line uint64) int {
	return int((line/isa.LineSize)&c.setMask) * c.ways
}

func (c *flatSetAssoc) lookup(line uint64) int {
	base := c.setBase(line)
	for w := 0; w < c.ways; w++ {
		if e := &c.w[base+w]; e.valid && e.tag == line {
			return base + w
		}
	}
	return -1
}

func (c *flatSetAssoc) access(line uint64, write bool) bool {
	c.clock++
	if slot := c.lookup(line); slot >= 0 {
		e := &c.w[slot]
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

func (c *flatSetAssoc) install(line uint64, write bool) (victim uint64, victimDirty, evicted bool) {
	c.clock++
	base := c.setBase(line)
	slot := -1
	for w := 0; w < c.ways; w++ {
		if !c.w[base+w].valid {
			slot = base + w
			break
		}
	}
	if slot < 0 {
		slot = base
		for w := 1; w < c.ways; w++ {
			if c.w[base+w].lru < c.w[slot].lru {
				slot = base + w
			}
		}
		victim, victimDirty, evicted = c.w[slot].tag, c.w[slot].dirty, true
	}
	c.w[slot] = saWay{tag: line, lru: c.clock, valid: true, dirty: write}
	return victim, victimDirty, evicted
}

func (c *flatSetAssoc) invalidate(line uint64) (present, dirty bool) {
	if slot := c.lookup(line); slot >= 0 {
		c.w[slot].valid = false
		return true, c.w[slot].dirty
	}
	return false, false
}

func (c *flatSetAssoc) markDirty(line uint64) {
	if slot := c.lookup(line); slot >= 0 {
		c.w[slot].dirty = true
	}
}

// TestPagedTagArrayMatchesFlat drives the chunked tag array and the flat
// reference with the same seeded mix of operations and requires identical
// return values and hit/miss counts after every one, then an identical
// final state, across geometries from a single set to Figure 19's 128 MiB
// L2. Halfway through, the array is reset in place and the reference
// replaced by a fresh one, as a power failure does.
func TestPagedTagArrayMatchesFlat(t *testing.T) {
	geometries := []struct {
		name string
		size uint64
		ways int
		// touchAll installs one line into every set first, so every
		// storage unit is claimed.
		touchAll bool
	}{
		{"one-set", 4 * isa.LineSize, 4, false},
		{"under-one-page", 4 * 2 * isa.LineSize, 2, false},
		{"l1d", 64 << 10, 8, false},
		{"private-l2", 1 << 20, 16, false},
		{"shared-l2", 16 << 20, 16, false},
		{"fig19-l2", 128 << 20, 16, true},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			paged, flat := newSetAssoc(g.size, g.ways), newFlatSetAssoc(g.size, g.ways)
			sets := flat.setMask + 1
			if paged.setMask != flat.setMask || paged.ways != flat.ways {
				t.Fatalf("geometry %d sets x %d ways, reference %d x %d",
					paged.setMask+1, paged.ways, sets, flat.ways)
			}
			if units := len(paged.idx); units > math.MaxUint16 || uint64(units)<<paged.shift != sets {
				t.Fatalf("%d index entries of %d sets cover %d sets",
					units, 1<<paged.shift, uint64(units)<<paged.shift)
			}
			rng := rand.New(rand.NewSource(int64(sets)))
			// Most operations land on a few hot sets, so sets fill and
			// evict; the rest scatter over the whole array and claim
			// fresh storage, past several chunk boundaries where the
			// array is large enough.
			hot := make([]uint64, 6)
			for i := range hot {
				hot[i] = uint64(rng.Int63n(int64(sets)))
			}
			line := func() uint64 {
				set := hot[rng.Intn(len(hot))]
				if rng.Intn(3) == 0 {
					set = uint64(rng.Int63n(int64(sets)))
				}
				tag := uint64(rng.Intn(g.ways + 3))
				return (tag*sets + set) * isa.LineSize
			}
			// chunkBase records each chunk's first element the first time
			// it is seen: chunks are never copied or moved.
			var chunkBase []*saWay
			checkChunks := func(when string) {
				for k, ch := range paged.chunks {
					if k == len(chunkBase) {
						chunkBase = append(chunkBase, &ch[0])
					} else if &ch[0] != chunkBase[k] {
						t.Fatalf("%s: chunk %d moved", when, k)
					}
				}
			}
			// Probes of an untouched array claim no storage.
			probe := func(when string) {
				for i := 0; i < 200; i++ {
					l := line()
					paged.access(l, i%2 == 0)
					flat.access(l, i%2 == 0)
					paged.invalidate(l)
					paged.markDirty(l)
					if paged.lookup(l) != nil {
						t.Fatalf("%s: lookup(%#x) hit an untouched array", when, l)
					}
				}
				if len(paged.claimed) != 0 || paged.Hits != flat.Hits || paged.Misses != flat.Misses {
					t.Fatalf("%s: probes claimed %d units, hits/misses %d/%d, reference %d/%d",
						when, len(paged.claimed), paged.Hits, paged.Misses, flat.Hits, flat.Misses)
				}
			}
			probe("fresh")
			if len(paged.chunks) != 0 {
				t.Fatalf("probes allocated %d chunks", len(paged.chunks))
			}
			install := func(op int, l uint64, write bool) {
				gv, gd, ge := paged.install(l, write)
				wv, wd, we := flat.install(l, write)
				if gv != wv || gd != wd || ge != we {
					t.Fatalf("op %d install(%#x): victim %#x dirty %v evicted %v, reference %#x %v %v",
						op, l, gv, gd, ge, wv, wd, we)
				}
			}
			if g.touchAll {
				for _, set := range rng.Perm(int(sets)) {
					install(-1, uint64(set)*isa.LineSize, set%2 == 0)
				}
				if len(paged.claimed) != len(paged.idx) {
					t.Fatalf("every set touched, %d of %d units claimed", len(paged.claimed), len(paged.idx))
				}
			}

			const ops = 40_000
			maxChunks := 0
			for op := 0; op < ops; op++ {
				if op == ops/2 {
					// Power fails: the array empties in place and must
					// behave like a freshly built one.
					checkChunks("before reset")
					maxChunks = len(paged.chunks)
					paged.reset()
					for grp, o := range paged.idx {
						if o != 0 {
							t.Fatalf("after reset: group %d still holds unit %d", grp, o)
						}
					}
					flat = newFlatSetAssoc(g.size, g.ways)
					probe("after reset")
					if g.touchAll {
						for _, set := range rng.Perm(int(sets)) {
							install(-1, uint64(set)*isa.LineSize, set%3 == 0)
						}
					}
				}
				l, write := line(), rng.Intn(2) == 0
				switch k := rng.Intn(10); {
				case k < 4:
					if got, want := paged.access(l, write), flat.access(l, write); got != want {
						t.Fatalf("op %d access(%#x): hit %v, reference %v", op, l, got, want)
					}
				case k < 7:
					install(op, l, write)
				case k < 9:
					gp, gd := paged.invalidate(l)
					wp, wd := flat.invalidate(l)
					if gp != wp || gd != wd {
						t.Fatalf("op %d invalidate(%#x): present %v dirty %v, reference %v %v",
							op, l, gp, gd, wp, wd)
					}
				default:
					paged.markDirty(l)
					flat.markDirty(l)
				}
				if paged.Hits != flat.Hits || paged.Misses != flat.Misses {
					t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d",
						op, paged.Hits, paged.Misses, flat.Hits, flat.Misses)
				}
			}
			checkChunks("at the end")
			// Where the array is large enough, the sweep must have claimed
			// more than 252+2*256 units, into a third full-size chunk.
			if len(paged.idx) > smallUnits+2<<maxChunkLog && maxChunks < smallChunks+3 {
				t.Fatalf("%d chunks before the reset: the sweep stayed short of a third full-size chunk", maxChunks)
			}

			// Way for way, a set in an untouched group is a zeroed flat set.
			for set := uint64(0); set < sets; set++ {
				got := paged.set(set * isa.LineSize)
				for w, want := range flat.w[int(set)*g.ways : int(set+1)*g.ways] {
					if got == nil && want != (saWay{}) || got != nil && got[w] != want {
						t.Fatalf("set %d way %d: %+v, reference %+v", set, w, got, want)
					}
				}
			}
			t.Logf("%d of %d units claimed in %d chunks (%d before the reset)",
				len(paged.claimed), len(paged.idx), len(paged.chunks), maxChunks)
		})
	}
}

// TestChunkOf checks the storage layout: chunks hold 4, 8, ..., 128 units,
// then 256 each, and every unit has exactly one place.
func TestChunkOf(t *testing.T) {
	k, off := 0, 0
	for i := 0; i < smallUnits+5*(1<<maxChunkLog); i++ {
		if gk, goff := chunkOf(i); gk != k || goff != off {
			t.Fatalf("unit %d in chunk %d at %d, want chunk %d at %d", i, gk, goff, k, off)
		}
		if off++; off == min(1<<(firstChunkLog+k), 1<<maxChunkLog) {
			k, off = k+1, 0
		}
	}
}
