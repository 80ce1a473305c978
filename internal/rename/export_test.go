package rename

import "ppa/internal/isa"

// InUse returns the number of non-free physical registers of a class.
func (r *Renamer) InUse(class isa.RegClass) int {
	f := r.fileOf(class)
	return len(f.vals) - len(f.free)
}
