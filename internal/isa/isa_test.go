package isa

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegConstructors(t *testing.T) {
	r := Int(5)
	if r.Class != ClassInt || r.Index != 5 || !r.Valid() {
		t.Fatalf("Int(5) = %+v", r)
	}
	f := FP(31)
	if f.Class != ClassFP || f.Index != 31 {
		t.Fatalf("FP(31) = %+v", f)
	}
	if NoReg.Valid() {
		t.Fatal("NoReg must be invalid")
	}
}

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{Int(0), "r0"},
		{Int(15), "r15"},
		{FP(7), "f7"},
		{NoReg, "-"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !OpStore.IsStore() || !OpRMW.IsStore() || OpLoad.IsStore() {
		t.Fatal("store classification wrong")
	}
	for _, op := range []Op{OpRMW, OpFence, OpSync} {
		if !op.IsSyncPrimitive() {
			t.Errorf("%v should be a sync primitive", op)
		}
	}
	for _, op := range []Op{OpALU, OpLoad, OpStore, OpBranch} {
		if op.IsSyncPrimitive() {
			t.Errorf("%v should not be a sync primitive", op)
		}
	}
}

func TestExecLatencyPositive(t *testing.T) {
	for op := OpNop; op <= OpSync; op++ {
		if op.ExecLatency() <= 0 {
			t.Errorf("%v latency %d", op, op.ExecLatency())
		}
	}
	if OpMul.ExecLatency() <= OpALU.ExecLatency() {
		t.Error("multiply should be slower than add")
	}
	if OpFPMul.ExecLatency() <= OpFPU.ExecLatency() {
		t.Error("FP multiply should be slower than FP add")
	}
}

func TestAlignment(t *testing.T) {
	if WordAlign(0x1007) != 0x1000 {
		t.Fatalf("WordAlign: %#x", WordAlign(0x1007))
	}
	if LineAlign(0x107f) != 0x1040 {
		t.Fatalf("LineAlign: %#x", LineAlign(0x107f))
	}
	// Property: alignment is idempotent and within one unit below.
	f := func(a uint64) bool {
		w := WordAlign(a)
		l := LineAlign(a)
		return w <= a && a-w < WordSize && WordAlign(w) == w &&
			l <= a && a-l < LineSize && LineAlign(l) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapMemoryBasics(t *testing.T) {
	m := NewMapMemory()
	if m.ReadWord(0x100) != 0 {
		t.Fatal("fresh memory must read zero")
	}
	m.WriteWord(0x100, 42)
	if m.ReadWord(0x100) != 42 {
		t.Fatal("read-after-write failed")
	}
	// Unaligned reads/writes fold to the word.
	m.WriteWord(0x105, 77)
	if m.ReadWord(0x100) != 77 {
		t.Fatal("unaligned write must alias its word")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMapMemoryZeroValue(t *testing.T) {
	var m MapMemory
	if m.ReadWord(8) != 0 {
		t.Fatal("zero-value memory must read zero")
	}
	m.WriteWord(8, 9)
	if m.ReadWord(8) != 9 {
		t.Fatal("zero-value memory must accept writes")
	}
}

func TestMapMemorySnapshotAndRange(t *testing.T) {
	m := NewMapMemory()
	for i := uint64(0); i < 10; i++ {
		m.WriteWord(i*8, i)
	}
	snap := m.Snapshot()
	if len(snap) != 10 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	m.WriteWord(0, 999)
	if snap[0] == 999 {
		t.Fatal("snapshot must be a copy")
	}
	n := 0
	m.Range(func(addr, val uint64) bool { n++; return true })
	if n != 10 {
		t.Fatalf("Range visited %d", n)
	}
	n = 0
	m.Range(func(addr, val uint64) bool { n++; return false })
	if n != 1 {
		t.Fatal("Range must stop when fn returns false")
	}
}

func TestArchStateReadWrite(t *testing.T) {
	var s ArchState
	s.Write(Int(3), 111)
	s.Write(FP(9), 222)
	if s.Read(Int(3)) != 111 || s.Read(FP(9)) != 222 {
		t.Fatal("arch state read/write failed")
	}
	if s.Read(NoReg) != 0 {
		t.Fatal("NoReg reads zero")
	}
	s.Write(NoReg, 5) // must not panic or alias anything
	if s.Read(Int(0)) != 0 || s.Read(FP(0)) != 0 {
		t.Fatal("NoReg write aliased a register")
	}
}

func TestEvalDeterminism(t *testing.T) {
	in := &Inst{Op: OpALU, Imm: 7}
	if Eval(in, 3, 4, 0) != 14 {
		t.Fatalf("ALU: %d", Eval(in, 3, 4, 0))
	}
	mul := &Inst{Op: OpMul, Imm: 1}
	if Eval(mul, 3, 4, 0) != 13 {
		t.Fatalf("MUL: %d", Eval(mul, 3, 4, 0))
	}
	ld := &Inst{Op: OpLoad}
	if Eval(ld, 0, 0, 99) != 99 {
		t.Fatal("load returns memory word")
	}
	rmw := &Inst{Op: OpRMW}
	if Eval(rmw, 5, 0, 42) != 42 {
		t.Fatal("RMW dst gets the old memory value")
	}
	if StoredValue(rmw, 5, 42) != 47 {
		t.Fatal("RMW stores old+data")
	}
	st := &Inst{Op: OpStore}
	if StoredValue(st, 5, 42) != 5 {
		t.Fatal("store writes its data register")
	}
}

// randomProgram builds a deterministic random trace for golden tests.
func randomProgram(seed int64, n int) *Program {
	rng := rand.New(rand.NewSource(seed))
	p := &Program{Name: "random"}
	for i := 0; i < n; i++ {
		var in Inst
		in.PC = 0x1000 + uint64(i)*4
		switch rng.Intn(5) {
		case 0:
			in.Op = OpALU
			in.Dst = Int(rng.Intn(NumIntRegs))
			in.Src1 = Int(rng.Intn(NumIntRegs))
			in.Src2 = Int(rng.Intn(NumIntRegs))
			in.Imm = int64(rng.Intn(100))
		case 1:
			in.Op = OpLoad
			in.Dst = Int(rng.Intn(NumIntRegs))
			in.Addr = uint64(rng.Intn(64)) * 8
		case 2:
			in.Op = OpStore
			in.Src1 = Int(rng.Intn(NumIntRegs))
			in.Addr = uint64(rng.Intn(64)) * 8
		case 3:
			in.Op = OpRMW
			in.Dst = Int(rng.Intn(NumIntRegs))
			in.Src1 = Int(rng.Intn(NumIntRegs))
			in.Addr = uint64(rng.Intn(64)) * 8
		default:
			in.Op = OpFPU
			in.Dst = FP(rng.Intn(NumFPRegs))
			in.Src1 = FP(rng.Intn(NumFPRegs))
			in.Src2 = FP(rng.Intn(NumFPRegs))
		}
		p.Insts = append(p.Insts, in)
	}
	return p
}

func TestRunGoldenPrefixConsistency(t *testing.T) {
	// Golden property: running n instructions equals running m<n then
	// continuing with StepGolden.
	p := randomProgram(42, 500)
	full := RunGolden(p, -1)

	partial := RunGolden(p, 250)
	for i := 250; i < p.Len(); i++ {
		StepGolden(partial, &p.Insts[i], i)
	}
	if partial.Executed != full.Executed {
		t.Fatalf("executed %d vs %d", partial.Executed, full.Executed)
	}
	for r := 0; r < NumIntRegs; r++ {
		if partial.Regs.Read(Int(r)) != full.Regs.Read(Int(r)) {
			t.Fatalf("r%d differs", r)
		}
	}
	full.Mem.Range(func(addr, val uint64) bool {
		if partial.Mem.ReadWord(addr) != val {
			t.Fatalf("mem[%#x] differs", addr)
		}
		return true
	})
	if len(partial.StoreLog) != len(full.StoreLog) {
		t.Fatalf("store log %d vs %d", len(partial.StoreLog), len(full.StoreLog))
	}
}

func TestRunGoldenStoreLogOrder(t *testing.T) {
	p := randomProgram(7, 300)
	g := RunGolden(p, -1)
	for i := 1; i < len(g.StoreLog); i++ {
		if g.StoreLog[i].Seq <= g.StoreLog[i-1].Seq {
			t.Fatal("store log must be in program order")
		}
	}
	// The final memory value of each address equals its last store.
	last := map[uint64]uint64{}
	for _, s := range g.StoreLog {
		last[s.Addr] = s.Val
	}
	for addr, val := range last {
		if g.Mem.ReadWord(addr) != val {
			t.Fatalf("mem[%#x] = %d, last store %d", addr, g.Mem.ReadWord(addr), val)
		}
	}
}

func TestRunGoldenDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProgram(seed, 200)
		a := RunGolden(p, -1)
		b := RunGolden(p, -1)
		if len(a.StoreLog) != len(b.StoreLog) {
			return false
		}
		for i := range a.StoreLog {
			if a.StoreLog[i] != b.StoreLog[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestProgramStores(t *testing.T) {
	p := randomProgram(3, 400)
	want := 0
	for i := range p.Insts {
		if p.Insts[i].Op.IsStore() {
			want++
		}
	}
	if got := p.Stores(); got != want {
		t.Fatalf("Stores() = %d, want %d", got, want)
	}
	if p.Len() != 400 {
		t.Fatalf("Len() = %d", p.Len())
	}
}

func TestInstString(t *testing.T) {
	st := Inst{PC: 0x100, Op: OpStore, Src1: Int(2), Addr: 0x2000}
	if st.String() == "" {
		t.Fatal("empty string")
	}
	ld := Inst{PC: 0x104, Op: OpLoad, Dst: Int(1), Addr: 0x2000}
	if ld.String() == "" {
		t.Fatal("empty string")
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	p := randomProgram(99, 700)
	p.Name = "roundtrip"
	var buf bytes.Buffer
	if err := EncodeProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.Len() != p.Len() {
		t.Fatalf("header mismatch: %q/%d", got.Name, got.Len())
	}
	for i := range p.Insts {
		if got.Insts[i] != p.Insts[i] {
			t.Fatalf("inst %d: %v vs %v", i, got.Insts[i], p.Insts[i])
		}
	}
	// Semantics survive the round trip.
	a := RunGolden(p, -1)
	b := RunGolden(got, -1)
	if len(a.StoreLog) != len(b.StoreLog) {
		t.Fatal("store logs differ")
	}
}

func TestDecodeProgramRejectsGarbage(t *testing.T) {
	if _, err := DecodeProgram(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header must fail")
	}
	var buf bytes.Buffer
	p := randomProgram(1, 10)
	EncodeProgram(&buf, p)
	blob := buf.Bytes()
	if _, err := DecodeProgram(bytes.NewReader(blob[:len(blob)-5])); err == nil {
		t.Fatal("truncated trace must fail")
	}
	bad := append([]byte{}, blob...)
	bad[0] ^= 0xFF
	if _, err := DecodeProgram(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Corrupt an opcode byte beyond the valid range (header is 16 bytes,
	// then the name, then the first 32-byte record with Op at offset 8).
	bad2 := append([]byte{}, blob...)
	bad2[16+len(p.Name)+8] = 0xEE
	if _, err := DecodeProgram(bytes.NewReader(bad2)); err == nil {
		t.Fatal("unknown opcode must fail")
	}
}

func BenchmarkRunGolden(b *testing.B) {
	p := randomProgram(5, 10000)
	b.SetBytes(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunGolden(p, -1)
	}
}

func BenchmarkEncodeProgram(b *testing.B) {
	p := randomProgram(5, 10000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := EncodeProgram(&buf, p); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
