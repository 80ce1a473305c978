package fault

import "math/rand"

// A torn word draws its garbage from rand.New(rand.NewSource(seed)), one
// fresh source per tear. Seeding that source fills all 607 words of its
// lagged-Fibonacci register, each from three steps of a Lehmer generator,
// yet a tear reads at most eight outputs, and output n (n < 273) is
// vec[333-n] + vec[606-n] of the register as seeded. sourceHead computes
// just those 16 seeded words, jumping the Lehmer generator straight to each,
// so its outputs are the source's own, draw for draw.
const (
	lehmerA   = 48271     // math/rand's seedrand multiplier
	lehmerM   = 1<<31 - 1 // and modulus
	zeroSeed  = 89482311  // what NewSource uses for a seed ≡ 0 (mod lehmerM)
	headDraws = 8         // outputs a sourceHead can give
	feedFirst = 333       // vec index of output 0's feed word (rngLen-rngTap-1)
	tapFirst  = 606       // and of its tap word (rngLen-1)
)

// headCooked holds math/rand's rngCooked[feedFirst-n] and
// rngCooked[tapFirst-n] for n < headDraws: the constants NewSource XORs
// into the seeded words the head reads.
var headCooked = [2][headDraws]int64{
	{-4633371852008891965, 4287360518296753003, -1072987336855386047, 220828013409515943,
		-7602572252857820065, -4799698790548231394, 3648778920718647903, 581945337509520675},
	{4152330101494654406, 9103922860780351547, 8382142935188824023, -2171292963361310674,
		-6278469401177312761, -307900319840287220, -1894351639983151068, -758328221503023383},
}

// headJump[j][n] is lehmerA^(21+3i) mod lehmerM for i the vec index of
// headCooked[j][n]: seeding runs the Lehmer generator 20 steps, then three
// per word, so word i's first step is step 21+3i.
var headJump = func() (jump [2][headDraws]uint64) {
	for n := range headDraws {
		jump[0][n] = lehmerPow(21 + 3*(feedFirst-n))
		jump[1][n] = lehmerPow(21 + 3*(tapFirst-n))
	}
	return jump
}()

// lehmerPow returns lehmerA^e mod lehmerM.
func lehmerPow(e int) uint64 {
	r, b := uint64(1), uint64(lehmerA)
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			r = r * b % lehmerM
		}
		b = b * b % lehmerM
	}
	return r
}

// sourceHead is the first headDraws outputs of rand.NewSource(seed).
type sourceHead struct{ x uint64 } // the seed as Seed reduces it

func newSourceHead(seed int64) sourceHead {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return sourceHead{x: uint64(seed)}
}

// word returns seeded word headCooked[j][n] of the register: three
// consecutive Lehmer states, shifted and XORed with its cooked constant.
func (h sourceHead) word(j, n int) int64 {
	x1 := h.x * headJump[j][n] % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ headCooked[j][n]
}

// uint64 returns output n (n < headDraws) of the source.
func (h sourceHead) uint64(n int) uint64 {
	return uint64(h.word(0, n) + h.word(1, n))
}

// int31 returns rand.Rand's Int31 over output n: Int63 = Uint64 with its
// top bit cleared, shifted right 32.
func (h sourceHead) int31(n int) int32 {
	return int32(h.uint64(n) & (1<<63 - 1) >> 32)
}

// tornBytes is how many garbage bytes a torn word draws at most: a prefix
// of 1 + Intn(7) bytes.
const tornBytes = 7

// int31n7Max is rand.Rand.Int31n(7)'s acceptance bound: a draw above it is
// rejected and redrawn (2 values in 2^31).
const int31n7Max = 1<<31 - 1 - (1<<31)%7

// tornGarbage returns what rand.New(rand.NewSource(seed)) draws for a torn
// word: the prefix length k = 1 + Intn(7), then tornBytes Intn(256) bytes,
// of which the tear writes the first k that fit the word. Without a
// rejection in Intn(7) that is outputs 0 through 7 of the source, which
// sourceHead gives; after one it seeds the source itself.
func tornGarbage(seed int64) (k int, garbage [tornBytes]byte) {
	h := newSourceHead(seed)
	v := h.int31(0)
	if v > int31n7Max {
		rng := rand.New(rand.NewSource(seed))
		k = 1 + rng.Intn(7)
		for i := range garbage {
			garbage[i] = byte(rng.Intn(256))
		}
		return k, garbage
	}
	// Intn(256) is Int31 masked to its low byte: 256 is a power of two.
	for i := range garbage {
		garbage[i] = byte(h.int31(1 + i))
	}
	return 1 + int(v%7), garbage
}
