package rename

import (
	"testing"
	"testing/quick"

	"ppa/internal/isa"
)

func newSmall() *Renamer {
	return New(Config{IntPhysRegs: 24, FPPhysRegs: 40})
}

func TestResetState(t *testing.T) {
	r := New(DefaultConfig())
	// At reset, arch reg i maps to phys i in RAT and CRT.
	for i := 0; i < isa.NumIntRegs; i++ {
		if p := r.Lookup(isa.Int(i)); p.Idx != uint16(i) || p.Class != isa.ClassInt {
			t.Fatalf("r%d maps to %v", i, p)
		}
	}
	if got := r.FreeCount(isa.ClassInt); got != 180-isa.NumIntRegs {
		t.Fatalf("int free = %d", got)
	}
	if got := r.FreeCount(isa.ClassFP); got != 168-isa.NumFPRegs {
		t.Fatalf("fp free = %d", got)
	}
	if r.MaskedCount() != 0 {
		t.Fatal("fresh MaskReg must be empty")
	}
}

func TestRenameAllocatesAndCommitFrees(t *testing.T) {
	r := newSmall()
	free0 := r.FreeCount(isa.ClassInt)
	p, ok := r.TryRename(isa.Int(0))
	if !ok {
		t.Fatal("rename failed")
	}
	if r.FreeCount(isa.ClassInt) != free0-1 {
		t.Fatal("allocation did not consume a register")
	}
	if got := r.Lookup(isa.Int(0)); got != p {
		t.Fatalf("RAT not updated: %v", got)
	}
	// Committing displaces the reset mapping (phys 0), which frees it.
	r.Commit(isa.Int(0), p)
	if r.FreeCount(isa.ClassInt) != free0 {
		t.Fatal("commit must free the displaced register")
	}
}

func TestFreeListExhaustion(t *testing.T) {
	r := newSmall() // 24 - 16 = 8 free int regs
	var last PhysRef
	for i := 0; i < 8; i++ {
		p, ok := r.TryRename(isa.Int(0))
		if !ok {
			t.Fatalf("rename %d failed early", i)
		}
		last = p
	}
	if _, ok := r.TryRename(isa.Int(1)); ok {
		t.Fatal("rename must fail with empty free list")
	}
	if r.RenameStalls != 1 {
		t.Fatalf("stalls = %d", r.RenameStalls)
	}
	// Commits of the chain free the displaced mappings again.
	r.Commit(isa.Int(0), last)
	if _, ok := r.TryRename(isa.Int(1)); !ok {
		t.Fatal("rename must succeed after a commit freed a register")
	}
}

func TestStoreIntegrityMaskingDefersFree(t *testing.T) {
	r := newSmall()
	free0 := r.FreeCount(isa.ClassInt)

	// def r0 -> p; store r0 commits and masks p; redefinition of r0
	// commits; p must NOT return to the free list.
	p1, _ := r.TryRename(isa.Int(0))
	r.Commit(isa.Int(0), p1) // frees reset phys 0
	r.Write(p1, 0xAB, 0)
	r.MaskStoreReg(p1)
	if !r.IsMasked(p1) {
		t.Fatal("mask bit not set")
	}

	p2, _ := r.TryRename(isa.Int(0))
	r.Commit(isa.Int(0), p2) // displaces p1 — masked, so deferred
	// Ledger: -1 (p1 alloc) +1 (reset phys freed) -1 (p2 alloc) +0
	// (deferred instead of freed) = free0-1. Without masking it would be
	// free0 — the deferral is the observable difference.
	if r.FreeCount(isa.ClassInt) != free0-1 {
		t.Fatalf("masked register was freed: free=%d want %d", r.FreeCount(isa.ClassInt), free0-1)
	}
	if r.DeferredFrees != 1 {
		t.Fatalf("deferred frees = %d", r.DeferredFrees)
	}
	// The store's value survives.
	if r.Read(p1) != 0xAB {
		t.Fatal("store operand clobbered")
	}

	// Region boundary: reclaim.
	if n := r.ReclaimMaskedExcept(nil); n != 1 {
		t.Fatalf("reclaimed %d", n)
	}
	if r.FreeCount(isa.ClassInt) != free0 {
		t.Fatal("reclaim did not free the deferred register")
	}
	if r.IsMasked(p1) {
		t.Fatal("MaskReg must clear at the boundary")
	}
}

func TestReclaimKeepsCRTCurrentMaskedRegs(t *testing.T) {
	r := newSmall()
	p1, _ := r.TryRename(isa.Int(3))
	r.Commit(isa.Int(3), p1)
	r.MaskStoreReg(p1) // masked but still CRT-current
	free := r.FreeCount(isa.ClassInt)
	if n := r.ReclaimMaskedExcept(nil); n != 0 {
		t.Fatalf("reclaimed %d CRT-current registers", n)
	}
	if r.FreeCount(isa.ClassInt) != free {
		t.Fatal("CRT-current register must stay allocated")
	}
	if r.IsMasked(p1) {
		t.Fatal("mask bit must still clear")
	}
	// Later displacement now frees normally.
	p2, _ := r.TryRename(isa.Int(3))
	r.Commit(isa.Int(3), p2)
	if r.FreeCount(isa.ClassInt) != free {
		t.Fatal("post-boundary displacement must free normally")
	}
}

func TestReclaimMaskedExcept(t *testing.T) {
	r := newSmall()
	// Two masked+deferred registers; keep one.
	p1, _ := r.TryRename(isa.Int(0))
	r.Commit(isa.Int(0), p1)
	r.MaskStoreReg(p1)
	p2, _ := r.TryRename(isa.Int(0))
	r.Commit(isa.Int(0), p2) // defers p1
	r.MaskStoreReg(p2)
	p3, _ := r.TryRename(isa.Int(0))
	r.Commit(isa.Int(0), p3) // defers p2

	free := r.FreeCount(isa.ClassInt)
	if n := r.ReclaimMaskedExcept([]PhysRef{p2}); n != 1 {
		t.Fatalf("reclaimed %d, want 1 (p1 only)", n)
	}
	if r.FreeCount(isa.ClassInt) != free+1 {
		t.Fatal("free count wrong after partial reclaim")
	}
	if !r.IsMasked(p2) {
		t.Fatal("kept register must stay masked")
	}
	if r.IsMasked(p1) {
		t.Fatal("reclaimed register must unmask")
	}
	// A second full reclaim frees the survivor.
	if n := r.ReclaimMaskedExcept(nil); n != 1 {
		t.Fatalf("second reclaim %d", n)
	}
}

func TestValuesAndReadiness(t *testing.T) {
	r := newSmall()
	p, _ := r.TryRename(isa.FP(2))
	r.Write(p, 777, 150)
	if r.Read(p) != 777 {
		t.Fatal("value lost")
	}
	if r.ReadyAt(p) != 150 {
		t.Fatal("readiness lost")
	}
	if r.ReadyAt(PhysRef{}) != 0 {
		t.Fatal("invalid ref must be ready")
	}
}

func TestCRTSnapshotRestore(t *testing.T) {
	r := newSmall()
	p, _ := r.TryRename(isa.Int(5))
	r.Commit(isa.Int(5), p)
	snaps := r.CRTSnapshot(nil)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots", len(snaps))
	}

	// Restore into a fresh renamer: RAT must equal restored CRT.
	r2 := newSmall()
	if err := r2.RestoreCRT(snaps); err != nil {
		t.Fatal(err)
	}
	if got := r2.Lookup(isa.Int(5)); got != p {
		t.Fatalf("restored RAT maps r5 to %v, want %v", got, p)
	}

	// Size mismatch is rejected.
	bad := []TableSnapshot{{Class: isa.ClassInt, CRT: make([]uint16, 3)}}
	if err := r2.RestoreCRT(bad); err == nil {
		t.Fatal("mismatched CRT must error")
	}
}

func TestMaskSnapshotRestore(t *testing.T) {
	r := newSmall()
	p, _ := r.TryRename(isa.Int(1))
	r.MaskStoreReg(p)
	mask := r.MaskSnapshot(nil, isa.ClassInt)
	if !mask[p.Idx] {
		t.Fatal("snapshot missing mask bit")
	}
	r2 := newSmall()
	if err := r2.RestoreMask(isa.ClassInt, mask); err != nil {
		t.Fatal(err)
	}
	if !r2.IsMasked(p) {
		t.Fatal("restored mask lost the bit")
	}
	if err := r2.RestoreMask(isa.ClassInt, make([]bool, 3)); err == nil {
		t.Fatal("mismatched mask must error")
	}
}

func TestCommittedArchValue(t *testing.T) {
	r := newSmall()
	p, _ := r.TryRename(isa.Int(4))
	r.Write(p, 99, 0)
	// Not committed yet: CRT still maps the reset register (value 0).
	if r.CommittedArchValue(isa.Int(4)) != 0 {
		t.Fatal("uncommitted value visible through CRT")
	}
	r.Commit(isa.Int(4), p)
	if r.CommittedArchValue(isa.Int(4)) != 99 {
		t.Fatal("committed value not visible")
	}
}

func TestInUseAccounting(t *testing.T) {
	r := newSmall()
	base := r.InUse(isa.ClassInt)
	if base != isa.NumIntRegs {
		t.Fatalf("reset in-use = %d", base)
	}
	r.TryRename(isa.Int(0))
	if r.InUse(isa.ClassInt) != base+1 {
		t.Fatal("in-use must grow with allocation")
	}
}

// TestConservation property: free + in-use is invariant across any
// rename/commit/mask/reclaim sequence.
func TestConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		r := newSmall()
		total := r.FreeCount(isa.ClassInt) + r.InUse(isa.ClassInt)
		var live []PhysRef
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if p, ok := r.TryRename(isa.Int(int(op/4) % isa.NumIntRegs)); ok {
					live = append(live, p)
				}
			case 1:
				if len(live) > 0 {
					p := live[0]
					live = live[1:]
					r.Commit(isa.Int(int(op/4)%isa.NumIntRegs), p)
				}
			case 2:
				if len(live) > 0 {
					r.MaskStoreReg(live[len(live)-1])
				}
			case 3:
				r.ReclaimMaskedExcept(nil)
			}
			if r.FreeCount(isa.ClassInt)+r.InUse(isa.ClassInt) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPhysRefString(t *testing.T) {
	if (PhysRef{}).String() != "-" {
		t.Fatal("invalid ref string")
	}
	p := PhysRef{Class: isa.ClassInt, Idx: 7}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

func TestTinyConfigClamped(t *testing.T) {
	// A config smaller than the architectural file must still work.
	r := New(Config{IntPhysRegs: 4, FPPhysRegs: 4})
	if r.FreeCount(isa.ClassInt) < 1 {
		t.Fatal("clamped file must leave at least one free register")
	}
}

func BenchmarkRenameCommitCycle(b *testing.B) {
	r := New(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := isa.Int(i % isa.NumIntRegs)
		p, ok := r.TryRename(a)
		if !ok {
			b.Fatal("free list empty in steady state")
		}
		r.Write(p, uint64(i), uint64(i))
		r.Commit(a, p)
	}
}

func BenchmarkMaskReclaim(b *testing.B) {
	r := New(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := isa.Int(i % isa.NumIntRegs)
		p, _ := r.TryRename(a)
		r.Commit(a, p)
		r.MaskStoreReg(p)
		if i%32 == 31 {
			r.ReclaimMaskedExcept(nil)
		}
	}
}
