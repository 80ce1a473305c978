package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"ppa/internal/isa"
)

// TestStreamMatchesMathRand checks stream against rand.New(rand.NewSource)
// draw for draw, over seeds that take each branch of the source's seeding
// (zero, negative, at and above 2^31-1) and far more draws than the
// 607-word ring holds. The draws interleave Int63 with spans that mask,
// reject, and cross from Int31n to Int63n; TestBoundedDrawsExact checks
// the chances and the generator's own spans.
func TestStreamMatchesMathRand(t *testing.T) {
	type draw struct {
		name string
		want func(r *rand.Rand) int64
		got  func(s *stream) int64
	}
	draws := []draw{
		{"Int63", func(r *rand.Rand) int64 { return r.Int63() }, func(s *stream) int64 { return s.Int63() }},
	}
	for _, n := range []int{1, 2, 8, 4096, 3, 6, 1000, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<40 + 3, 1<<62 + 1} {
		sp := intnSpan(n)
		draws = append(draws, draw{"Intn", func(r *rand.Rand) int64 { return int64(r.Intn(n)) }, func(s *stream) int64 { return int64(s.draw(&sp)) }})
	}
	for _, n := range []int64{1, 512, 32 * KB, 64 * MB, 7, 3000, 1<<62 + 1, math.MaxInt64} {
		sp := int63nSpan(n)
		draws = append(draws, draw{"Int63n", func(r *rand.Rand) int64 { return r.Int63n(n) }, func(s *stream) int64 { return int64(s.draw(&sp)) }})
	}
	const rounds = 100_000
	for _, seed := range []int64{0, -1, -7919, math.MinInt64, 1<<31 - 1, 1<<31 - 2, 1 << 31, 1<<40 + 13, math.MaxInt64} {
		r := rand.New(rand.NewSource(seed))
		s := newStream(seed)
		for k := 0; k < rounds; k++ {
			// Step through the methods in a stride coprime to their count.
			d := draws[k*7%len(draws)]
			if want, got := d.want(r), d.got(s); got != want {
				t.Fatalf("seed %d, draw %d (%s): stream gave %d, math/rand %d", seed, k, d.name, got, want)
			}
		}
	}
}

// traceDigests pins every generated trace: the SHA-256, over each
// instruction's fields, of all threads of each profile at
// traceDigestInsts per thread, and of one multi-process trace.
const traceDigestInsts = 20000

var traceDigests = map[string]string{
	"bzip2":        "b57a2723822eb4e704c6a6e2d421ed94ca59d65f8bf83c407672966ca27fcc5d",
	"gcc":          "553377377e9b7e7011145478a94b7bd523ccdafa7d3e18e4b6e860685b07aed6",
	"mcf":          "a43b58d9ff4a3cdd6e3afff65a3f0ce2e2f0f2820d7660f7964eeffe0f4a3e60",
	"hmmer":        "14cf69e70cc9b8589b17925b013b05ea49d326790100c38ec1ba8912b04c4226",
	"sjeng":        "cb610a4a58bfb7676ba7253bf2d7b09bc7db577d9055faeeb61f3169b6655e1d",
	"libquantum":   "ecb3a305ef50f35a8bf393e46811ec6e57a7128cd6cb5a285d73de7b210dfb7f",
	"h264ref":      "5dbfd5886dbf4bd5462f53aa660dae6c827d17cbe8c435e3a184db9d736a70a3",
	"omnetpp":      "535d13909ae4a3724b3f354d7b48a8831df3a5cdf31688e4bc75c8305856daa9",
	"lbm":          "57f4fe0aeb8d736c679f26e7bf51c08901df77f75c8611231dd9ed03d9369679",
	"sphinx3":      "11ba6aaed194717771dc019a3ab2bb8a4903547f3c49f9aa17dbd1ab002b9564",
	"perlbench":    "16e7385140c804156324d8d3cc26aa3762aa837fda84cf2845a6216d4bc7c238",
	"gcc17":        "07ab7f42f8f39d8c88ccf9435367043ddc2a4030d3f2680ec8a0a27fc9508b98",
	"mcf17":        "61b8e5d1b7cc6e46db457278e72bb4d38c2ddb9caf37a1e3f4b3e6736dfaf2dd",
	"x264":         "97c0f74f75cfa7b11499274b655f36ae584f2f90cfdfc36a290e15d38fde7473",
	"deepsjeng":    "f10165a3346f100f868b1f8fdf6f9b03c94980303712233c81ce08dd1cf209ca",
	"leela":        "7ce1a689efa375712baba4cdb665e7f1b906517ebf4d4af3c1c6901514078110",
	"xz":           "7953689f7c7408da0e8bc3fdaf100a8c5722ca22d4bc8b8fad70947fd3c840f0",
	"cactuBSSN":    "71f7de02fc6a1feb0c06ece29246828122ea088d187e6532033bb1a1b61b7ad6",
	"lbm17":        "8e917a78c72128614178835f4e41355971b3b398567dab1dc911544310b231a3",
	"nab":          "439f40b723267194cacc48c66ac1c17284549b4e8c64bb5f1bd09964321b139a",
	"barnes":       "c43cf8b8ae047aed1f712309a3c2a8a96ee26866aa610813b8dc65317354e92d",
	"fft":          "b1fa3b33ee0e582bf7d433dd2d0323ff2db279e51e601868abd8cb0520341c0b",
	"lu-cg":        "4d4f698b03012e1b7f29d97ef041d6d53b69be081f7dd44dbf3809f86a308a96",
	"ocean":        "7a331d5d4e2e512fe975ddbcf9317e8589679e2f3a689569733dc67add1a7d63",
	"radix":        "b6e448b1a8379410444ed94307f2f02b907b468f519e20bbb4a80eac9e48b5c3",
	"water-ns":     "82c553b711d1ceabf99d0a803c66e956b92b2f89b5f4d6fb5b1816bce6929788",
	"water-sp":     "5d41c1c453187f093d2905f4efbf5ce1e78e9feb117dca52c9bee4ac10be2829",
	"genome":       "3677241ad3d7010aabc95a70de3466680f797294d28d0cdbbf54e0e2987f311c",
	"intruder":     "a50ff1396bf69cad0947ae4ae736d26f2469edc55ec99aa55d4e37ea75b2565c",
	"kmeans":       "b0fae77d2265e39e5b0f162cdace662e29b346d44133c216ffcffe167e795efe",
	"ssca2":        "800b39962ec80a940898508da506c90cfe397c5145b3bf9a25bf2828ae944045",
	"vacation":     "22b146911f4dec0d88698205a2d6a388a105a5d0036c7b3f374c1955562f0546",
	"pc":           "9b8f13206310593460623141478b22ebe47570b9c909a274e3f54698971da929",
	"rb":           "eae50b32039118a230b5a18c012f025bf8ad6c437e84b75609bd87b4ae5e9ed3",
	"sps":          "2c598563fc11d6407ef2dc7721b7af44f516c2999d3cfd220cab010c5681abc0",
	"tatp":         "17ba242c8f43debfd9dba7cd216619b09a02d25292e3cfb5eecd332fac5b4286",
	"tpcc":         "880f922b815587c33a5bd9c85d8f336b0910068ebdad102f63ab90b48d597b51",
	"r20w80":       "8515cd7988137b72f307571e08693fd640fbceb30f7a071ca4cb89014eb89e6d",
	"r50w50":       "ca24a3b0479a08ca54e5a51a01e73c39a9effc65405e7b6fc1df40cb2bd376b2",
	"lulesh":       "230fcc90d05b0a4f8496f9f1a405c942ac22b407feff194c8c604a7d8348dc27",
	"xsbench":      "afe656a1ee6b6734a42ef6201c7e6c6b66333552634103b7a742732625fed620",
	"multiprocess": "b03abd9f288830d1f849cdf3e3e5d71bc0184d73411189409abe72539217c51d",
}

// traceDigest hashes programs' instructions field by field.
func traceDigest(progs ...*isa.Program) string {
	h := sha256.New()
	var b []byte
	for _, p := range progs {
		for i := range p.Insts {
			in := &p.Insts[i]
			b = binary.LittleEndian.AppendUint64(b[:0], in.PC)
			b = append(b, byte(in.Op), byte(in.Dst.Class), in.Dst.Index,
				byte(in.Src1.Class), in.Src1.Index, byte(in.Src2.Class), in.Src2.Index)
			b = binary.LittleEndian.AppendUint64(b, in.Addr)
			b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTraceDigests pins the generator's output byte for byte: a
// change to the random stream or to how the generator draws from it shows
// up here before it reaches any simulated result.
func TestGeneratedTraceDigests(t *testing.T) {
	got := map[string]string{}
	for _, p := range Profiles() {
		w, err := New(p, traceDigestInsts)
		if err != nil {
			t.Fatal(err)
		}
		got[p.Name] = traceDigest(w.Threads...)
	}
	a, _ := ByName("gcc")
	b, _ := ByName("mcf")
	c, _ := ByName("rb")
	mp, err := GenerateMultiProcess([]Profile{a, b, c}, 1000, 3*traceDigestInsts, 7)
	if err != nil {
		t.Fatal(err)
	}
	got["multiprocess"] = traceDigest(mp)
	if len(got) != 42 {
		t.Fatalf("%d traces, want 41 profiles and a multi-process trace", len(got))
	}
	for name, d := range got {
		if traceDigests[name] != d {
			t.Errorf("%s: trace digest %s, pinned %s", name, d, traceDigests[name])
		}
	}
	if t.Failed() {
		for _, p := range Profiles() {
			t.Logf("%q: %q,", p.Name, got[p.Name])
		}
		t.Logf("%q: %q,", "multiprocess", got["multiprocess"])
	}
}
