package workload

import (
	"math"
	"testing"
	"testing/quick"

	"ppa/internal/isa"
)

func TestProfilesCount(t *testing.T) {
	ps := Profiles()
	if len(ps) != 41 {
		t.Fatalf("the paper evaluates 41 applications, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestSuitePopulations(t *testing.T) {
	want := map[string]int{
		SuiteCPU2006: 10,
		SuiteCPU2017: 10,
		SuiteSPLASH3: 7,
		SuiteSTAMP:   5,
		SuiteWHISPER: 7,
		SuiteMiniApp: 2,
	}
	got := map[string]int{}
	for _, p := range Profiles() {
		got[p.Suite]++
	}
	for suite, n := range want {
		if got[suite] != n {
			t.Errorf("%s: %d apps, want %d", suite, got[suite], n)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil || p.Name != "mcf" {
		t.Fatalf("ByName(mcf): %v %v", p, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown app must error")
	}
}

// TestProfilesReturnsACopy checks that editing the slice Profiles returns,
// as Figure 19's sweep does, leaves the table ByName and later Profiles
// calls read untouched.
func TestProfilesReturnsACopy(t *testing.T) {
	ps := Profiles()
	want := ps[0]
	ps[0].FootprintBytes *= 2
	ps[0].Threads = 99
	if p, err := ByName(want.Name); err != nil || p != want {
		t.Fatalf("ByName(%q) after editing a Profiles copy: %+v, %v", want.Name, p, err)
	}
	if p := Profiles()[0]; p != want {
		t.Fatalf("a second Profiles call sees the edit: %+v", p)
	}
}

func TestMultiThreadedSelection(t *testing.T) {
	for _, p := range MultiThreaded() {
		if p.Threads <= 1 {
			t.Errorf("%s in MultiThreaded with %d threads", p.Name, p.Threads)
		}
	}
	// The paper's multi-threaded suites run 8 threads by default.
	n := len(MultiThreaded())
	if n != 7+5+7 {
		t.Errorf("MT population %d, want 19", n)
	}
}

func TestTable3Footprints(t *testing.T) {
	// Table 3's published footprints.
	want := map[string]uint64{
		"lulesh": 664, "xsbench": 241, "pc": 196, "rb": 166,
		"sps": 264, "tatp": 287, "tpcc": 110, "r20w80": 189, "r50w50": 189,
	}
	for name, mb := range want {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.FootprintBytes >> 20; got != mb {
			t.Errorf("%s footprint %dMB, want %dMB", name, got, mb)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	p, _ := ByName("gcc")
	a := thread(t, p, 2000, 0)
	b := thread(t, p, 2000, 0)
	if len(a.Insts) != len(b.Insts) {
		t.Fatal("length mismatch")
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("inst %d differs: %v vs %v", i, a.Insts[i], b.Insts[i])
		}
	}
}

func TestGenerateThreadsDiffer(t *testing.T) {
	p, _ := ByName("fft")
	a := thread(t, p, 1000, 0)
	b := thread(t, p, 1000, 1)
	same := 0
	for i := range a.Insts {
		if a.Insts[i] == b.Insts[i] {
			same++
		}
	}
	if same == len(a.Insts) {
		t.Fatal("different threads must generate different traces")
	}
}

func TestInstructionMixMatchesProfile(t *testing.T) {
	for _, name := range []string{"mcf", "lbm", "water-ns", "sjeng"} {
		p, _ := ByName(name)
		prog := thread(t, p, 50000, 0)
		var loads, stores, branches int
		for i := range prog.Insts {
			switch prog.Insts[i].Op {
			case isa.OpLoad:
				loads++
			case isa.OpStore:
				stores++
			case isa.OpBranch:
				branches++
			}
		}
		n := float64(prog.Len())
		if got := float64(loads) / n; math.Abs(got-p.LoadRatio) > 0.02 {
			t.Errorf("%s: load ratio %.3f, profile %.3f", name, got, p.LoadRatio)
		}
		if got := float64(stores) / n; math.Abs(got-p.StoreRatio) > 0.02 {
			t.Errorf("%s: store ratio %.3f, profile %.3f", name, got, p.StoreRatio)
		}
		if got := float64(branches) / n; math.Abs(got-p.BranchRatio) > 0.02 {
			t.Errorf("%s: branch ratio %.3f, profile %.3f", name, got, p.BranchRatio)
		}
	}
}

func TestWriteSetsDisjointAcrossThreads(t *testing.T) {
	// DRF requirement (Section 6): no two threads write the same line.
	p, _ := ByName("water-ns")
	w, err := New(p, 5000)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[uint64]int{}
	for tid, prog := range w.Threads {
		for i := range prog.Insts {
			in := &prog.Insts[i]
			if !in.Op.IsStore() {
				continue
			}
			line := isa.LineAlign(in.Addr)
			if prev, ok := owner[line]; ok && prev != tid {
				t.Fatalf("line %#x written by threads %d and %d", line, prev, tid)
			}
			owner[line] = tid
		}
	}
}

func TestAddressesAligned(t *testing.T) {
	p, _ := ByName("xz")
	prog := thread(t, p, 20000, 0)
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if isMem(in.Op) && in.Addr%isa.WordSize != 0 {
			t.Fatalf("unaligned address %#x", in.Addr)
		}
	}
}

func TestSyncOnlyInMultiThreaded(t *testing.T) {
	st, _ := ByName("mcf") // single-threaded
	prog := thread(t, st, 30000, 0)
	for i := range prog.Insts {
		if prog.Insts[i].Op == isa.OpSync {
			t.Fatal("single-threaded trace must not contain sync ops")
		}
	}
	mt, _ := ByName("water-ns")
	prog = thread(t, mt, 30000, 0)
	syncs := 0
	for i := range prog.Insts {
		if prog.Insts[i].Op.IsSyncPrimitive() {
			syncs++
		}
	}
	if syncs == 0 {
		t.Fatal("multi-threaded trace must contain sync primitives")
	}
	// Roughly one per SyncEvery instructions.
	expect := 30000 / mt.SyncEvery
	if syncs < expect/3 || syncs > expect*3 {
		t.Fatalf("sync count %d, expected around %d", syncs, expect)
	}
}

func TestWarmResidentClassification(t *testing.T) {
	p, _ := ByName("mcf")
	prog := thread(t, p, 30000, 0)
	var warmish, cold int
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if !isMem(in.Op) {
			continue
		}
		if WarmResident(in.Addr) {
			warmish++
		} else {
			cold++
			if !streamRegion(in.Addr) {
				t.Fatalf("non-resident address %#x is not in the stream region", in.Addr)
			}
		}
	}
	if warmish == 0 {
		t.Fatal("expected resident accesses")
	}
	if cold == 0 {
		t.Fatal("mcf has a cold streaming component")
	}
}

func TestStackStoresAreConcentrated(t *testing.T) {
	p, _ := ByName("sjeng")
	prog := thread(t, p, 50000, 0)
	lines := map[uint64]int{}
	total := 0
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if in.Op != isa.OpStore {
			continue
		}
		lines[isa.LineAlign(in.Addr)]++
		total++
	}
	// The top-8 store lines (the stack region) must absorb a large share.
	top := 0
	for _, n := range lines {
		if n > total/50 {
			top += n
		}
	}
	if float64(top)/float64(total) < 0.3 {
		t.Fatalf("store locality too flat: top lines hold %.1f%%", 100*float64(top)/float64(total))
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.LoadRatio = 0.7; p.StoreRatio = 0.4 },
		func(p *Profile) { p.DepDistance = 0 },
		func(p *Profile) { p.HotFraction = 0.8; p.WarmFraction = 0.3 },
		func(p *Profile) { p.StoreRatio = -0.1 },
		func(p *Profile) { p.Threads = -1 },
	}
	for i, mutate := range cases {
		p, _ := ByName("gcc")
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	p, _ := ByName("gcc")
	if _, err := New(p, 0); err == nil {
		t.Fatal("zero instructions must error")
	}
	p.Name = ""
	if _, err := New(p, 100); err == nil {
		t.Fatal("invalid profile must error")
	}
}

// thread is GenerateThread for a valid profile and count.
func thread(t testing.TB, p Profile, n, tid int) *isa.Program {
	t.Helper()
	prog, err := GenerateThread(p, n, tid)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestGenerateRejectsInvalid: GenerateThread is exported, so it refuses
// what New refuses, a non-positive count included, instead of panicking in
// makeslice, and a thread the profile does not have.
func TestGenerateRejectsInvalid(t *testing.T) {
	var p Profile
	if _, err := GenerateThread(p, 10, 0); err == nil {
		t.Fatal("empty profile must error")
	}
	p, _ = ByName("gcc")
	for _, n := range []int{0, -1} {
		_, err := GenerateThread(p, n, 0)
		_, want := New(p, n)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("GenerateThread(gcc, %d, 0) = %v, want New's error %v", n, err, want)
		}
	}
	for _, tid := range []int{-1, 1} {
		if _, err := GenerateThread(p, 10, tid); err == nil {
			t.Fatalf("GenerateThread(gcc, 10, %d) must error: gcc has one thread", tid)
		}
	}
}

func TestPCsMonotone(t *testing.T) {
	f := func(seed uint8) bool {
		ps := Profiles()
		p := ps[int(seed)%len(ps)]
		prog := thread(t, p, 500, 0)
		for i := 1; i < prog.Len(); i++ {
			if prog.Insts[i].PC != prog.Insts[i-1].PC+4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryIntensiveSubset(t *testing.T) {
	subset := MemoryIntensive()
	if len(subset) == 0 {
		t.Fatal("empty memory-intensive subset")
	}
	all := map[string]bool{}
	for _, p := range Profiles() {
		all[p.Name] = true
	}
	for _, p := range subset {
		if !all[p.Name] {
			t.Errorf("%s not in the 41-app population", p.Name)
		}
	}
}

func TestSyscallKernelBursts(t *testing.T) {
	p, _ := ByName("r20w80")
	if p.SyscallEvery == 0 {
		t.Fatal("memcached profiles should make system calls")
	}
	prog := thread(t, p, 40000, 0)
	kernel := 0
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if !isMem(in.Op) {
			continue
		}
		off := in.Addr % threadSpacing
		if off >= kernelRegionOff && off < kernelRegionOff+64*KB {
			kernel++
		}
	}
	if kernel == 0 {
		t.Fatal("no kernel-region accesses generated")
	}
	// Kernel structures are in the hot/resident range: the L2-residency
	// classifier must cover them.
	if !L2Resident(uint64(1)<<36 + kernelRegionOff) {
		t.Fatal("kernel region must be SRAM-resident")
	}
}

func TestSyscallFreeProfilesUnchanged(t *testing.T) {
	p, _ := ByName("gcc")
	if p.SyscallEvery != 0 {
		t.Fatal("SPEC profiles make no modeled syscalls")
	}
	prog := thread(t, p, 20000, 0)
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if !isMem(in.Op) {
			continue
		}
		off := in.Addr % threadSpacing
		if off >= kernelRegionOff && off < kernelRegionOff+64*KB {
			t.Fatal("kernel accesses in a syscall-free profile")
		}
	}
}

func TestGenerateMultiProcess(t *testing.T) {
	a, _ := ByName("gcc")
	b, _ := ByName("mcf")
	prog, err := GenerateMultiProcess([]Profile{a, b}, 1000, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 20000 {
		t.Fatalf("len %d", prog.Len())
	}
	// PCs are globally monotone.
	for i := 1; i < prog.Len(); i++ {
		if prog.Insts[i].PC != prog.Insts[i-1].PC+4 {
			t.Fatalf("PC break at %d", i)
		}
	}
	// Both address spaces appear, plus sync traps for the switches.
	spaces := map[uint64]bool{}
	syncs := 0
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if isMem(in.Op) && in.Addr < sharedROBase {
			spaces[in.Addr/threadSpacing] = true
		}
		if in.Op == isa.OpSync {
			syncs++
		}
	}
	if len(spaces) < 2 {
		t.Fatalf("only %d address spaces touched", len(spaces))
	}
	if syncs < 5 {
		t.Fatalf("only %d traps for ~13 expected switches", syncs)
	}
}

func TestGenerateMultiProcessValidation(t *testing.T) {
	a, _ := ByName("gcc")
	if _, err := GenerateMultiProcess([]Profile{a}, 1000, 100, 1); err == nil {
		t.Fatal("one process must error")
	}
	b, _ := ByName("mcf")
	if _, err := GenerateMultiProcess([]Profile{a, b}, 4, 100, 1); err == nil {
		t.Fatal("tiny quantum must error")
	}
	if _, err := GenerateMultiProcess([]Profile{a, b}, 1000, 0, 1); err == nil {
		t.Fatal("zero insts must error")
	}
	bad := a
	bad.DepDistance = 0
	if _, err := GenerateMultiProcess([]Profile{bad, b}, 1000, 100, 1); err == nil {
		t.Fatal("invalid profile must error")
	}
}

func BenchmarkGenerateThread(b *testing.B) {
	p, _ := ByName("mcf")
	b.SetBytes(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		thread(b, p, 10000, 0)
	}
}

// isMem reports whether an opcode accesses memory.
func isMem(op isa.Op) bool { return op == isa.OpLoad || op == isa.OpStore || op == isa.OpRMW }

// streamRegion reports whether an address belongs to a thread's cold
// streaming region.
func streamRegion(addr uint64) bool {
	return addr < sharedROBase && addr%threadSpacing >= streamRegionOf
}
