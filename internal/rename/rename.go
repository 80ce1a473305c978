// Package rename implements the register-renaming machinery PPA builds on
// (Section 2.1) plus PPA's store-integrity extension (Sections 3.3, 4.1-4.2):
// a unified physical register file per class, a free list, a register alias
// table (RAT) for in-flight mappings, a commit rename table (CRT) for
// committed mappings, and the MaskReg bit vector that pins the physical
// registers of committed stores until their region persists.
package rename

import (
	"fmt"

	"ppa/internal/isa"
	"ppa/internal/mutation"
)

// PhysRef names one physical register.
type PhysRef struct {
	Class isa.RegClass
	Idx   uint16
}

// Valid reports whether the reference names a register.
func (p PhysRef) Valid() bool { return p.Class != isa.ClassNone }

func (p PhysRef) String() string {
	if !p.Valid() {
		return "-"
	}
	return fmt.Sprintf("p%s%d", p.Class, p.Idx)
}

// file is one class's physical register file with its rename tables.
type file struct {
	class    isa.RegClass
	archRegs int

	vals    []uint64 // physical register values
	readyAt []uint64 // cycle at which the value is available to consumers
	masked  []bool   // MaskReg: pinned by a committed store this region

	free     []uint16 // free list (LIFO)
	deferred []uint16 // masked registers whose reclamation was deferred

	rat []uint16 // in-flight arch -> phys
	crt []uint16 // committed arch -> phys

	// resetFree is the free list a reset file starts with: every register
	// past the architectural ones, the highest at the bottom.
	resetFree []uint16
}

func newFile(class isa.RegClass, physRegs, archRegs int) *file {
	if physRegs < archRegs+1 {
		physRegs = archRegs + 1
	}
	resetFree := make([]uint16, 0, physRegs-archRegs)
	for i := physRegs - 1; i >= archRegs; i-- {
		resetFree = append(resetFree, uint16(i))
	}
	return &file{
		class:     class,
		archRegs:  archRegs,
		vals:      make([]uint64, physRegs),
		readyAt:   make([]uint64, physRegs),
		masked:    make([]bool, physRegs),
		free:      make([]uint16, 0, physRegs-archRegs),
		rat:       make([]uint16, archRegs),
		crt:       make([]uint16, archRegs),
		resetFree: resetFree,
	}
}

// reset puts the file in its reset state, keeping its storage: every
// register zero, ready and unmasked, arch reg i mapped to phys i in both
// tables, and the rest of the file free.
func (f *file) reset() {
	clear(f.vals)
	clear(f.readyAt)
	clear(f.masked)
	for i := 0; i < f.archRegs; i++ {
		f.rat[i] = uint16(i)
		f.crt[i] = uint16(i)
	}
	*f = file{
		class:     f.class,
		archRegs:  f.archRegs,
		vals:      f.vals,
		readyAt:   f.readyAt,
		masked:    f.masked,
		free:      append(f.free[:0], f.resetFree...),
		deferred:  f.deferred[:0],
		rat:       f.rat,
		crt:       f.crt,
		resetFree: f.resetFree,
	}
}

// copyFrom makes f a copy of src, a file of the same size, keeping f's
// storage.
func (f *file) copyFrom(src *file) {
	copy(f.vals, src.vals)
	copy(f.readyAt, src.readyAt)
	copy(f.masked, src.masked)
	copy(f.rat, src.rat)
	copy(f.crt, src.crt)
	f.free = append(f.free[:0], src.free...)
	f.deferred = append(f.deferred[:0], src.deferred...)
}

func (f *file) freeCount() int { return len(f.free) }

// Renamer is the full renaming engine across both register classes.
type Renamer struct {
	intF *file
	fpF  *file

	// RenameStalls counts rename attempts rejected for lack of a free
	// physical register (Figure 12's metric is derived from this).
	RenameStalls uint64
	// DeferredFrees counts physical-register reclamations deferred because
	// the register was masked (store integrity at work).
	DeferredFrees uint64
}

// Config sizes the physical register files (Table 2: 180 INT / 168 FP;
// Figure 16 sweeps 80/80 to 280/224).
type Config struct {
	IntPhysRegs int
	FPPhysRegs  int
}

// DefaultConfig returns the Table 2 register-file sizes.
func DefaultConfig() Config { return Config{IntPhysRegs: 180, FPPhysRegs: 168} }

// New creates a renamer with reset mappings.
func New(cfg Config) *Renamer {
	r := &Renamer{
		intF: newFile(isa.ClassInt, cfg.IntPhysRegs, isa.NumIntRegs),
		fpF:  newFile(isa.ClassFP, cfg.FPPhysRegs, isa.NumFPRegs),
	}
	r.Reset()
	return r
}

// Reset returns the renamer to the state New builds, keeping its register
// files: reset mappings, a full free list, no masks and zero counters.
func (r *Renamer) Reset() {
	r.intF.reset()
	r.fpF.reset()
	*r = Renamer{intF: r.intF, fpF: r.fpF}
}

// CopyFrom makes r a copy of src, a renamer of the same register-file
// sizes, keeping r's register files.
func (r *Renamer) CopyFrom(src *Renamer) {
	r.intF.copyFrom(src.intF)
	r.fpF.copyFrom(src.fpF)
	r.RenameStalls, r.DeferredFrees = src.RenameStalls, src.DeferredFrees
}

func (r *Renamer) fileOf(class isa.RegClass) *file {
	if class == isa.ClassFP {
		return r.fpF
	}
	return r.intF
}

// FreeCount returns the free-list length of one class (sampled every cycle
// for the Figure 5 CDFs).
func (r *Renamer) FreeCount(class isa.RegClass) int { return r.fileOf(class).freeCount() }

// Lookup returns the current in-flight mapping of an architectural register.
func (r *Renamer) Lookup(a isa.Reg) PhysRef {
	if !a.Valid() {
		return PhysRef{}
	}
	f := r.fileOf(a.Class)
	return PhysRef{Class: a.Class, Idx: f.rat[a.Index]}
}

// TryRename allocates a new physical register for a definition of arch
// register a, updating the RAT. It returns ok=false (and counts a stall)
// when the class's free list is empty — the event that delineates a PPA
// region boundary (Section 4.2).
func (r *Renamer) TryRename(a isa.Reg) (phys PhysRef, ok bool) {
	f := r.fileOf(a.Class)
	if len(f.free) == 0 {
		r.RenameStalls++
		return PhysRef{}, false
	}
	idx := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.rat[a.Index] = idx
	return PhysRef{Class: a.Class, Idx: idx}, true
}

// Write sets a physical register's value and availability cycle.
func (r *Renamer) Write(p PhysRef, val uint64, readyAt uint64) {
	f := r.fileOf(p.Class)
	f.vals[p.Idx] = val
	f.readyAt[p.Idx] = readyAt
}

// Read returns a physical register's value.
func (r *Renamer) Read(p PhysRef) uint64 { return r.fileOf(p.Class).vals[p.Idx] }

// ReadyAt returns the cycle at which a physical register's value is
// available (0 for the always-ready reset registers).
func (r *Renamer) ReadyAt(p PhysRef) uint64 {
	if !p.Valid() {
		return 0
	}
	return r.fileOf(p.Class).readyAt[p.Idx]
}

// Commit retires a definition: the CRT is updated to phys and the displaced
// committed mapping is reclaimed — unless MaskReg pins it, in which case the
// reclamation is deferred to the next region boundary (Section 3.3).
func (r *Renamer) Commit(a isa.Reg, phys PhysRef) {
	f := r.fileOf(a.Class)
	displaced := f.crt[a.Index]
	if !mutation.Is(mutation.RenameCRTStaleTag) {
		// Seeded bug RenameCRTStaleTag: the CRT keeps the displaced
		// mapping, so the committed map carries a stale tag.
		f.crt[a.Index] = phys.Idx
	}
	if displaced == phys.Idx {
		return
	}
	if f.masked[displaced] && !mutation.Is(mutation.RenameReclaimMaskedEarly) {
		// The mutation guard is seeded bug RenameReclaimMaskedEarly: a
		// MaskReg-pinned register frees immediately instead of deferring
		// to the region boundary.
		f.deferred = append(f.deferred, displaced)
		r.DeferredFrees++
		return
	}
	f.free = append(f.free, displaced)
}

// MaskStoreReg pins a committed store's operand register in MaskReg so it
// cannot be reclaimed until the region's stores are persistent.
func (r *Renamer) MaskStoreReg(p PhysRef) {
	if !p.Valid() {
		return
	}
	r.fileOf(p.Class).masked[p.Idx] = true
}

// IsMasked reports whether a physical register is pinned by MaskReg.
func (r *Renamer) IsMasked(p PhysRef) bool {
	if !p.Valid() {
		return false
	}
	return r.fileOf(p.Class).masked[p.Idx]
}

// MaskedCount returns the number of set MaskReg bits across both classes.
func (r *Renamer) MaskedCount() int {
	n := 0
	for _, f := range [...]*file{r.intF, r.fpF} {
		for _, m := range f.masked {
			if m {
				n++
			}
		}
	}
	return n
}

// ReclaimMaskedExcept implements the region-boundary reclamation: every
// deferred register returns to the free list and MaskReg is cleared
// (Section 4.2). Masked registers still live in the CRT keep their
// mapping; only their mask bit clears, so they reclaim normally when later
// displaced. The keep registers stay pinned: they belong to stores that
// committed after the boundary snapshot (the opening of the next region)
// and must survive until that region persists. Deferred registers in the
// keep set stay deferred; everything else reclaims, and MaskReg keeps only
// the kept bits.
func (r *Renamer) ReclaimMaskedExcept(keep []PhysRef) (reclaimed int) {
	var keepInt, keepFP map[uint16]bool
	for _, p := range keep {
		if !p.Valid() {
			continue
		}
		switch p.Class {
		case isa.ClassFP:
			if keepFP == nil {
				keepFP = make(map[uint16]bool, len(keep))
			}
			keepFP[p.Idx] = true
		default:
			if keepInt == nil {
				keepInt = make(map[uint16]bool, len(keep))
			}
			keepInt[p.Idx] = true
		}
	}
	for _, f := range [...]*file{r.intF, r.fpF} {
		kept := keepInt
		if f.class == isa.ClassFP {
			kept = keepFP
		}
		remaining := f.deferred[:0]
		for _, idx := range f.deferred {
			if kept[idx] {
				remaining = append(remaining, idx)
				continue
			}
			f.free = append(f.free, idx)
			reclaimed++
		}
		f.deferred = remaining
		for i := range f.masked {
			if f.masked[i] && !kept[uint16(i)] {
				f.masked[i] = false
			}
		}
	}
	return reclaimed
}

// TableSnapshot captures the CRT of one class (for JIT checkpointing).
type TableSnapshot struct {
	Class isa.RegClass
	CRT   []uint16
}

// CRTSnapshot returns copies of both commit rename tables, in dst's
// storage (its tables' included) where it has room.
func (r *Renamer) CRTSnapshot(dst []TableSnapshot) []TableSnapshot {
	dst = dst[:0]
	for _, f := range [...]*file{r.intF, r.fpF} {
		var crt []uint16 // the storage of the table this one replaces
		if len(dst) < cap(dst) {
			crt = dst[:len(dst)+1][len(dst)].CRT
		}
		dst = append(dst, TableSnapshot{Class: f.class, CRT: append(crt[:0], f.crt...)})
	}
	return dst
}

// MaskSnapshot returns a copy of MaskReg for one class, in dst's storage
// where it has room.
func (r *Renamer) MaskSnapshot(dst []bool, class isa.RegClass) []bool {
	return append(dst[:0], r.fileOf(class).masked...)
}

// RestoreCRT loads a checkpointed CRT and copies it into the RAT (recovery
// step 3, Section 4.6: populate RAT with the restored CRT).
func (r *Renamer) RestoreCRT(snaps []TableSnapshot) error {
	for _, s := range snaps {
		f := r.fileOf(s.Class)
		if len(s.CRT) != len(f.crt) {
			return fmt.Errorf("rename: CRT snapshot size %d != %d", len(s.CRT), len(f.crt))
		}
		copy(f.crt, s.CRT)
		copy(f.rat, s.CRT)
	}
	return nil
}

// RestoreMask loads a checkpointed MaskReg (footnote 7: masked registers
// must stay pinned after recovery until their region persists again).
func (r *Renamer) RestoreMask(class isa.RegClass, mask []bool) error {
	f := r.fileOf(class)
	if len(mask) != len(f.masked) {
		return fmt.Errorf("rename: mask snapshot size %d != %d", len(mask), len(f.masked))
	}
	copy(f.masked, mask)
	return nil
}

// RestoreValue writes a checkpointed physical register value (recovery
// step 1).
func (r *Renamer) RestoreValue(p PhysRef, val uint64) {
	f := r.fileOf(p.Class)
	f.vals[p.Idx] = val
	f.readyAt[p.Idx] = 0
}

// CommittedArchValue reads the committed architectural value of register a
// through the CRT — what the recovered program would observe.
func (r *Renamer) CommittedArchValue(a isa.Reg) uint64 {
	f := r.fileOf(a.Class)
	return f.vals[f.crt[a.Index]]
}
