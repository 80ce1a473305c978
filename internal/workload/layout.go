package workload

// WarmResident classifies addresses whose backing lines would be resident
// in the multi-gigabyte DRAM cache in steady state: the hot and warm pools
// of every thread and the shared read-only region. The cold streaming
// region is excluded — its first touches genuinely miss to NVM. The memory
// hierarchy uses this to model a warmed DRAM cache without replaying
// billions of warmup instructions.
func WarmResident(addr uint64) bool {
	if addr >= sharedROBase {
		return true
	}
	return addr%threadSpacing < streamRegionOf
}

// L2Resident classifies addresses whose lines are resident in the shared
// SRAM LLC in steady state: each thread's hot pool, stack, and written
// working set together stay well under a megabyte — a rounding error
// against the 16 MB L2 — so after any realistic warmup they simply live
// there. The hierarchy treats their first touch as an LLC hit, which makes
// short simulations behave like steady state for every memory organization
// (memory mode, DRAM-only, and app-direct alike).
func L2Resident(addr uint64) bool {
	return addr < sharedROBase && addr%threadSpacing < warmRegionOff
}
