package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ppa/internal/isa"
)

// A chanceCase is a probability the generator draws against, with the
// chance it compares the draw with.
type chanceCase struct {
	name string
	p    float64
	c    chance
}

// A spanCase is a range the generator draws from, with the span it draws
// through; int63n says the draw is rand.Rand.Int63n(n), not Intn(n).
type spanCase struct {
	name   string
	n      int64
	int63n bool
	sp     span
}

// generatorDraws lists every chance and span the generator uses: the
// package's constants, each profile's draws, and a multi-process quantum.
// It fails if draws has a chance or span field the list leaves out.
func generatorDraws(t *testing.T) ([]chanceCase, []spanCase) {
	t.Helper()
	chances := []chanceCase{
		{"jump", 0.25, jumpChance}, {"sharedRO", 0.15, sharedROChance},
		{"kernelLoad", 0.30, kernelLoad}, {"kernelStore", 0.38, kernelStore},
		{"kernelBranch", 0.55, kernelBranch}, {"kernelCmp", 0.8, kernelCmp},
		{"0", 0, chanceOf(0)}, {"1", 1, chanceOf(1)}, {"0.5", 0.5, chanceOf(0.5)},
		{"0.5-", math.Nextafter(0.5, 0), chanceOf(math.Nextafter(0.5, 0))},
		{"0.5+", math.Nextafter(0.5, 1), chanceOf(math.Nextafter(0.5, 1))},
	}
	spans := []spanCase{
		{"intReg", 16, false, intRegSpan}, {"fpReg", 32, false, fpRegSpan},
		{"imm", 4096, false, immSpan}, {"lineWord", 8, false, lineWordSpan},
		{"storeRun", 6, false, storeRunSpan}, {"coin", 2, false, coinSpan},
		{"kernelOff", 32 * KB, true, kernelOffSpan},
		{"sharedROOff", int64(sharedROBytes), true, sharedROOffSpan},
		{"quantum", 1000, false, intnSpan(1000)},
	}
	var nChance, nSpan int
	for _, f := range reflect.VisibleFields(reflect.TypeOf(draws{})) {
		switch f.Type {
		case reflect.TypeOf(chance(0)):
			nChance++
		case reflect.TypeOf(span{}):
			nSpan++
		}
	}
	for _, p := range Profiles() {
		d := newDraws(&p)
		cs := []chanceCase{
			{"load", p.LoadRatio, d.load},
			{"loadStore", p.LoadRatio + p.StoreRatio, d.loadStore},
			{"loadStoreBranch", p.LoadRatio + p.StoreRatio + p.BranchRatio, d.loadStoreBranch},
			{"fp", p.FPRatio, d.fp}, {"mul", p.MulRatio, d.mul}, {"cmp", p.CmpRatio, d.cmp},
			{"hot", p.HotFraction, d.hot},
			{"hotWarm", p.HotFraction + p.WarmFraction, d.hotWarm},
			{"stackStore", p.StackStoreFraction, d.stackStore},
			{"storeStream", p.StoreStreamBias, d.storeStream},
			{"storeHot", p.StoreHotBias, d.storeHot},
		}
		ss := []spanCase{
			{"dep", 2 * int64(p.DepDistance), false, d.dep},
			{"hotOff", int64(max(p.HotBytes, 512)), true, d.hotOff},
			{"warmOff", int64(max(p.WarmBytes, 4096)), true, d.warmOff},
			{"hotStore", int64(hotStoreBytes(&p)), true, d.hotStore},
			{"stack", int64(max(p.StackBytes, isa.LineSize)), true, d.stack},
			{"kernelBurst", int64(max(p.KernelBurstLen, 2)), false, d.kernelBurst},
			{"sync", int64(p.SyncEvery), false, d.sync},
			{"syscall", int64(p.SyscallEvery), false, d.syscall},
		}
		if len(cs) != nChance || len(ss) != nSpan {
			t.Fatalf("draws has %d chances and %d spans, the test lists %d and %d", nChance, nSpan, len(cs), len(ss))
		}
		for _, c := range cs {
			c.name = p.Name + "." + c.name
			chances = append(chances, c)
		}
		for _, s := range ss {
			if s.n == 0 {
				continue // a schedule the profile does not draw
			}
			s.name = p.Name + "." + s.name
			spans = append(spans, s)
		}
	}
	return chances, spans
}

// listSource is a math/rand source that returns given values, then
// zeros, as listStream does; n counts the values it returned.
type listSource struct {
	vals []uint64
	n    int
}

func (l *listSource) Int63() int64 {
	var v uint64
	if l.n < len(l.vals) {
		v = l.vals[l.n]
	}
	l.n++
	return int64(v & (1<<63 - 1))
}

func (l *listSource) Seed(int64) {}

// listStream returns a stream whose first outputs are vals, then zeros
// (up to streamTap outputs): output k is vec[k] + vec[k+streamLen-streamTap].
func listStream(vals []uint64) *stream {
	s := &stream{j: streamLen - streamTap}
	copy(s.vec[:], vals)
	return s
}

// drawn reports how many values s has given out (fewer than streamLen).
func (s *stream) drawn() int { return s.i }

// TestBoundedDrawsExact checks that each chance and span the generator
// uses draws what math/rand's Float64() < p, Intn(n) or Int63n(n) draws,
// and leaves the stream where math/rand's would be. It feeds both the
// values at the edges of every bound (a bound moved by one fails here),
// and over 10^6 seeded draws per seed compares them in turn.
func TestBoundedDrawsExact(t *testing.T) {
	chances, spans := generatorDraws(t)

	// The bounds' edges: the draws just below and at a chance, and the
	// draws Float64 resamples (from unitOne on), each followed by a draw
	// at the chance's edge; and for a span the draws around n and its
	// rejection limit, each rejected draw followed by an accepted one.
	edge := func(name string, vals []uint64, want func(r *rand.Rand) int64, got func(s *stream) int64) {
		t.Helper()
		src := &listSource{vals: vals}
		r := rand.New(src)
		s := listStream(vals)
		w, g := want(r), got(s)
		if w != g || src.n != s.drawn() {
			t.Fatalf("%s over %#x: math/rand drew %d from %d values, the bounded draw %d from %d", name, vals, w, src.n, g, s.drawn())
		}
	}
	for _, c := range chances {
		want := func(r *rand.Rand) int64 { return b2i(r.Float64() < c.p) }
		got := func(s *stream) int64 { return b2i(s.hit(c.c)) }
		var near []uint64
		for _, x := range []int64{int64(c.c) - 2, int64(c.c) - 1, int64(c.c), int64(c.c) + 1} {
			if x >= 0 && x < int64(unitOne) {
				near = append(near, uint64(x))
			}
		}
		for _, x := range near {
			edge(c.name, []uint64{x}, want, got)
			for _, again := range []uint64{uint64(unitOne), uint64(unitOne) + 1, 1<<63 - 1, 1<<64 - 1} {
				edge(c.name, []uint64{again, x}, want, got)
			}
		}
	}
	if f := float64(unitOne-1) / (1 << 63); f >= 1 {
		t.Fatalf("unitOne-1 scales to %v: Float64 would resample it", f)
	}
	if f := float64(unitOne) / (1 << 63); f != 1 {
		t.Fatalf("unitOne scales to %v: Float64 would not resample it", f)
	}
	for _, sc := range spans {
		want := func(r *rand.Rand) int64 { return int64(r.Intn(int(sc.n))) }
		if sc.int63n {
			want = func(r *rand.Rand) int64 { return r.Int63n(sc.n) }
		}
		got := func(s *stream) int64 { return int64(s.draw(&sc.sp)) }
		top := uint64(1<<63-1) >> sc.sp.shift // the largest draw
		low := uint64(1)<<sc.sp.shift - 1     // Int31 drops these bits
		var vs []uint64
		for _, v := range []uint64{0, 1, uint64(sc.n) - 1, uint64(sc.n), uint64(sc.n) + 1,
			sc.sp.limit - 1, sc.sp.limit, sc.sp.limit + 1, top - 1, top} {
			if v <= top {
				vs = append(vs, v<<sc.sp.shift, v<<sc.sp.shift|low, v<<sc.sp.shift|1<<63)
			}
		}
		for _, v := range vs {
			edge(sc.name, []uint64{v, 0, uint64(sc.n) << sc.sp.shift}, want, got)
		}
	}

	// Seeded draws, interleaved: each bounded draw against math/rand's,
	// and an Int63 after every few to hold the two at one position.
	type draw struct {
		name      string
		want, got func() int64
	}
	const rounds = 1_000_000
	for _, seed := range []int64{1, -7919, 1<<31 - 1, 1<<40 + 13} {
		r := rand.New(rand.NewSource(seed))
		s := newStream(seed)
		var ds []draw
		ds = append(ds, draw{"Int63", r.Int63, s.Int63},
			draw{"Float64", func() int64 { return int64(math.Float64bits(r.Float64())) },
				func() int64 { return int64(math.Float64bits(float64(s.unit()) / (1 << 63))) }})
		for _, c := range chances {
			ds = append(ds, draw{c.name, func() int64 { return b2i(r.Float64() < c.p) }, func() int64 { return b2i(s.hit(c.c)) }})
		}
		for _, sc := range spans {
			want := func() int64 { return int64(r.Intn(int(sc.n))) }
			if sc.int63n {
				want = func() int64 { return r.Int63n(sc.n) }
			}
			ds = append(ds, draw{sc.name, want, func() int64 { return int64(s.draw(&sc.sp)) }})
		}
		for k := 0; k < rounds; k++ {
			d := ds[k*7919%len(ds)]
			if k%5 == 4 {
				d = ds[0]
			}
			if w, g := d.want(), d.got(); w != g {
				t.Fatalf("seed %d, draw %d (%s): math/rand %d, bounded draw %d", seed, k, d.name, w, g)
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
