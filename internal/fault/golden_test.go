package fault

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// mutateGoldenDigests pins the SHA-256 of Mutate's output for every kind
// over mutateGrid: every crash pin that damages a checkpoint hangs off
// these bytes, so a faster Mutate must leave each digest as it is.
var mutateGoldenDigests = map[Kind]string{
	TornCheckpoint: "95a8e8d20c0762b6fa3a6549745745affce8e21023aa869060d307bbaeacf644",
	NestedOutage:   "95a8e8d20c0762b6fa3a6549745745affce8e21023aa869060d307bbaeacf644",
	BitFlip:        "fa11ff6e16bf90fb5fba5806bee23724e9967e3f9be4ed36a436e0e2297001a1",
	TornWord:       "30c14f28a75af87c8fc210e1971b05fe07aaba47150cb7a04cab825b5e63f1e0",
	DropTail:       "7956aead4a0901bed9ff765ac989f8303dbef2b348411a30bd020c000e7df640",
}

// mutateGrid is the input grid of TestFaultMutateGoldenDigests: seeds that
// are zero, negative, at and past 2^31 (math/rand reduces a seed modulo
// 2^31-1), params across and past every region size, and region lengths
// that are and are not multiples of 8.
var (
	mutateSeeds = []int64{0, 1, 42, -1, -7919, math.MinInt64, 1<<31 - 2, 1<<31 - 1, 1 << 31,
		1<<32 + 5, 1<<40 + 13, math.MaxInt64}
	mutateParams  = []uint64{0, 1, 2, 7, 8, 13, 255, 1000, 4097, 1<<32 + 3, 1<<63 + 11, math.MaxUint64}
	mutateLengths = []int{1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 100, 333, 2048}
)

func TestFaultMutateGoldenDigests(t *testing.T) {
	for _, k := range Kinds {
		h := sha256.New()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, n := range mutateLengths {
			region := sampleRegion(n)
			for _, param := range mutateParams {
				for _, seed := range mutateSeeds {
					out := Fault{Kind: k, Param: param, Seed: seed}.Mutate(region)
					put(uint64(n))
					put(param)
					put(uint64(seed))
					if out == nil {
						put(math.MaxUint64)
						continue
					}
					put(uint64(len(out)))
					h.Write(out)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != mutateGoldenDigests[k] {
			t.Errorf("%v: Mutate digest %s, want %s", k, got, mutateGoldenDigests[k])
		}
	}
}

// refTornGarbage is the torn word's draw as math/rand makes it.
func refTornGarbage(seed int64) (k int, garbage [tornBytes]byte) {
	rng := rand.New(rand.NewSource(seed))
	k = 1 + rng.Intn(7)
	for i := range garbage {
		garbage[i] = byte(rng.Intn(256))
	}
	return k, garbage
}

// rejectSeeds are the two seeds in [1, 2^31-1) whose source's first Int31
// lies above Intn(7)'s acceptance bound (found by a search over all of
// them), so a torn word drawn from them takes math/rand's path.
var rejectSeeds = []int64{603412668, 703204760}

func TestSourceHeadMatchesMathRand(t *testing.T) {
	seeds := append([]int64{0, 1, -1, lehmerM, -lehmerM, 2 * lehmerM, zeroSeed, 1<<31 - 2, 1 << 31,
		1<<40 + 13, math.MinInt64, math.MaxInt64}, rejectSeeds...)
	gen := rand.New(rand.NewSource(5))
	for range 2000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, seed := range seeds {
		src := rand.NewSource(seed).(rand.Source64)
		h := newSourceHead(seed)
		for n := range headDraws {
			if got, want := h.uint64(n), src.Uint64(); got != want {
				t.Fatalf("seed %d output %d: head %#x, math/rand %#x", seed, n, got, want)
			}
		}
	}
}

// TestTornGarbageMatchesMathRand compares the torn word's draw with
// math/rand's over 100 000 (seed, word) pairs, each mixed as Mutate mixes
// them.
func TestTornGarbageMatchesMathRand(t *testing.T) {
	gen := rand.New(rand.NewSource(9))
	for i := range 100_000 {
		seed, w := gen.Int63()-gen.Int63(), i%300
		if i%7 == 0 {
			seed = int64(gen.Uint64()) // the full int64 range, MinInt64 side included
		}
		s := seed ^ int64(w)<<32
		k, garbage := tornGarbage(s)
		wantK, want := refTornGarbage(s)
		if k != wantK || garbage != want {
			t.Fatalf("seed %d word %d: drew k=%d %v, math/rand k=%d %v", seed, w, k, garbage, wantK, want)
		}
	}
}

// TestTornGarbageFallback forces Intn(7)'s rejection, where the draw
// leaves the source's first eight outputs and math/rand draws it instead,
// and checks Mutate's torn word over those seeds against math/rand.
func TestTornGarbageFallback(t *testing.T) {
	for _, base := range rejectSeeds {
		for _, seed := range []int64{base, base - lehmerM, base + 3*lehmerM} {
			if v := rand.New(rand.NewSource(seed)).Int31(); v <= int31n7Max {
				t.Fatalf("seed %d: first Int31 %d does not reject", seed, v)
			}
			k, garbage := tornGarbage(seed)
			wantK, want := refTornGarbage(seed)
			if k != wantK || garbage != want {
				t.Fatalf("seed %d: drew k=%d %v, math/rand k=%d %v", seed, k, garbage, wantK, want)
			}
			region := sampleRegion(16)
			out := Fault{Kind: TornWord, Param: 0, Seed: seed}.Mutate(region)
			ref := append([]byte(nil), region...)
			for i := 0; i < wantK; i++ {
				ref[i] = want[i]
			}
			if bytes.Equal(ref, region) {
				ref[0] ^= 0xFF
			}
			if !bytes.Equal(out, ref) {
				t.Fatalf("seed %d: Mutate tore word 0 into %x, math/rand's draw %x", seed, out[:8], ref[:8])
			}
		}
	}
}
