// Package workload generates deterministic instruction traces that stand in
// for the paper's 41 benchmark applications (SPEC CPU2006/2017, SPLASH3,
// STAMP, WHISPER, DOE Mini-apps).
//
// The paper's evaluation does not depend on program semantics — it depends
// on instruction mix (store density, FP share, branchiness), register
// pressure, instruction-level parallelism, and memory locality. A Profile
// captures exactly those traits; Generate expands a profile into a
// reproducible dynamic trace. Each named profile is tuned so the per-app
// behaviours the paper calls out (rb's high locality, lbm/pc's poor
// locality, water-ns/water-sp's store-dense short regions, bzip2 and
// libquantum's register pressure, hmmer/lu-cg/tpcc's high baseline register
// demand) emerge in the simulator.
package workload

import (
	"fmt"
	"slices"
	"sync"
)

// Profile describes the statistical shape of one application.
type Profile struct {
	// Name is the application name as it appears in the paper's figures.
	Name string
	// Suite is the benchmark suite the application belongs to.
	Suite string

	// Instruction mix. Fractions of the dynamic instruction stream; the
	// remainder after loads/stores/branches/FP is integer ALU work.
	LoadRatio   float64
	StoreRatio  float64
	BranchRatio float64
	FPRatio     float64 // fraction of non-memory compute that is FP
	MulRatio    float64 // fraction of compute that is multiply-class (longer latency)
	// CmpRatio is the fraction of compute instructions that define no
	// register (compares, tests, flag-setters). It calibrates the fraction
	// of in-flight instructions holding physical registers — the paper
	// observes only ~30% of ROB instructions define new registers.
	CmpRatio float64

	// DepDistance is the mean register dependency distance in instructions:
	// small values create long dependency chains (low ILP, high ROB
	// occupancy under memory latency), large values expose ILP.
	DepDistance int

	// Memory locality. An access is drawn from one of three pools:
	//   hot:    HotFraction    — a small L1/L2-resident set (HotBytes)
	//   warm:   WarmFraction   — a resident set (WarmBytes) that fits the
	//           DRAM cache but typically misses the SRAM L2
	//   stream: the remainder  — a cold sequential walk over the footprint
	//           (first-touch misses all the way to main memory)
	HotFraction  float64
	WarmFraction float64
	HotBytes     uint64
	WarmBytes    uint64
	// FootprintBytes is the total memory footprint (Table 3 for
	// WHISPER/Mini-apps; representative values for the others).
	FootprintBytes uint64

	// StoreStreamBias is the fraction of stream-pool accesses that are
	// stores (write-streaming apps like lbm push dirty lines to memory).
	StoreStreamBias float64

	// StackStoreFraction is the fraction of stores that hit a tiny
	// stack-like region (a handful of cache lines, spilled locals and
	// return addresses). Real store streams are dominated by such traffic;
	// it coalesces almost perfectly in the persist write buffer.
	StackStoreFraction float64
	// StackBytes sizes the stack-like region (default 512 B = 8 lines).
	StackBytes uint64
	// StoreHotBias redirects this fraction of non-stack stores to a small
	// written working set (StoreHotBytes at the base of the hot pool):
	// written working sets are typically much smaller than read ones,
	// which is what keeps PPA's persist traffic inside the NVM
	// write-bandwidth budget on multi-threaded runs.
	StoreHotBias float64
	// StoreHotBytes sizes the written working set (default 2 KB).
	StoreHotBytes uint64

	// Threads is the hardware thread count for multi-threaded suites
	// (SPLASH3, STAMP, WHISPER run 8 threads in the paper by default).
	Threads int
	// SyncEvery is the mean dynamic-instruction distance between
	// synchronization primitives on multi-threaded runs (0 = none).
	SyncEvery int
	// SyscallEvery is the mean dynamic-instruction distance between system
	// calls (0 = none). Each syscall traps (a serializing sync primitive)
	// and runs a kernel-mode burst against per-thread kernel structures —
	// Section 5's point that PPA needs no special treatment for kernel
	// code: under WSP it is just more instructions.
	SyscallEvery int
	// KernelBurstLen is the mean kernel-handler length in instructions
	// (default 120 when SyscallEvery is set).
	KernelBurstLen int
	// SyncContention scales the serialization cost of each sync primitive.
	SyncContention float64

	// Seed makes the trace deterministic per application.
	Seed int64
}

// MemRatio returns the fraction of instructions that access memory.
func (p *Profile) MemRatio() float64 { return p.LoadRatio + p.StoreRatio }

// Validate reports an error if the profile's ratios are inconsistent.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	sum := p.LoadRatio + p.StoreRatio + p.BranchRatio
	if sum >= 1.0 {
		return fmt.Errorf("workload %s: load+store+branch ratio %.2f >= 1", p.Name, sum)
	}
	for _, f := range []float64{p.LoadRatio, p.StoreRatio, p.BranchRatio, p.FPRatio, p.CmpRatio, p.HotFraction, p.WarmFraction, p.StoreStreamBias, p.StackStoreFraction, p.StoreHotBias} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload %s: ratio out of [0,1]", p.Name)
		}
	}
	if p.HotFraction+p.WarmFraction > 1 {
		return fmt.Errorf("workload %s: hot+warm fraction > 1", p.Name)
	}
	if p.DepDistance <= 0 {
		return fmt.Errorf("workload %s: DepDistance must be positive", p.Name)
	}
	if p.Threads < 0 {
		return fmt.Errorf("workload %s: negative thread count", p.Name)
	}
	return nil
}

// MB is a convenience for footprint sizes.
const MB = 1 << 20

// KB is a convenience for working-set sizes.
const KB = 1 << 10

// Suite names as used in the paper's figures.
const (
	SuiteCPU2006 = "CPU2006"
	SuiteCPU2017 = "CPU2017"
	SuiteSPLASH3 = "SPLASH3"
	SuiteSTAMP   = "STAMP"
	SuiteWHISPER = "WHISPER"
	SuiteMiniApp = "Mini-apps"
)

// base returns a template profile with middle-of-the-road traits; the
// per-app constructors override what makes each application distinctive.
func base(name, suite string, seed int64) Profile {
	return Profile{
		Name:               name,
		Suite:              suite,
		LoadRatio:          0.25,
		StoreRatio:         0.10,
		BranchRatio:        0.15,
		FPRatio:            0.0,
		MulRatio:           0.10,
		CmpRatio:           0.72,
		DepDistance:        8,
		HotFraction:        0.85,
		WarmFraction:       0.12,
		HotBytes:           48 * KB,
		WarmBytes:          24 * MB,
		FootprintBytes:     200 * MB,
		StackStoreFraction: 0.55,
		StackBytes:         256,
		StoreHotBytes:      2 * KB,
		Seed:               seed,
	}
}

// Profiles returns the 41 application profiles used throughout the
// evaluation, in suite order as the paper's figures list them. The slice is
// the caller's own copy, free to edit.
func Profiles() []Profile { return slices.Clone(profileTable()) }

// profileTable is the profile table, built on first use and never edited.
var profileTable = sync.OnceValue(buildProfiles)

func buildProfiles() []Profile {
	var ps []Profile
	add := func(p Profile) { ps = append(ps, p) }

	// ---- SPEC CPU2006 (10 applications) -------------------------------
	{
		p := base("bzip2", SuiteCPU2006, 1001)
		p.StoreRatio = 0.14 // heavy register usage and store density: short regions (Fig 13)
		p.LoadRatio = 0.28
		p.DepDistance = 4
		p.HotBytes = 256 * KB
		p.FootprintBytes = 400 * MB
		add(p)

		p = base("gcc", SuiteCPU2006, 1002)
		p.BranchRatio = 0.22
		p.StoreRatio = 0.11
		p.HotBytes = 512 * KB
		p.WarmBytes = 64 * MB
		add(p)

		p = base("mcf", SuiteCPU2006, 1003)
		p.LoadRatio = 0.35
		p.StoreRatio = 0.09
		p.HotFraction = 0.55
		p.WarmFraction = 0.38
		p.WarmBytes = 160 * MB
		p.FootprintBytes = 860 * MB
		p.DepDistance = 3 // pointer chasing
		add(p)

		p = base("hmmer", SuiteCPU2006, 1004)
		p.StoreRatio = 0.12
		p.LoadRatio = 0.30
		p.DepDistance = 16 // wide ILP: many live registers (needs >=65 int regs, Fig 16)
		p.HotBytes = 64 * KB
		add(p)

		p = base("sjeng", SuiteCPU2006, 1005)
		p.BranchRatio = 0.20
		p.StoreRatio = 0.08
		p.HotBytes = 128 * KB
		add(p)

		p = base("libquantum", SuiteCPU2006, 1006)
		p.LoadRatio = 0.28
		p.StoreRatio = 0.12
		p.HotFraction = 0.25 // streaming through a large vector
		p.WarmFraction = 0.05
		p.StoreStreamBias = 0.30
		p.DepDistance = 5
		p.FootprintBytes = 96 * MB
		add(p)

		p = base("h264ref", SuiteCPU2006, 1007)
		p.LoadRatio = 0.30
		p.StoreRatio = 0.11
		p.MulRatio = 0.20
		p.HotBytes = 384 * KB
		add(p)

		p = base("omnetpp", SuiteCPU2006, 1008)
		p.BranchRatio = 0.20
		p.LoadRatio = 0.30
		p.HotFraction = 0.60
		p.WarmFraction = 0.35
		p.WarmBytes = 96 * MB
		p.DepDistance = 4
		add(p)

		p = base("lbm", SuiteCPU2006, 1009)
		p.FPRatio = 0.75
		p.LoadRatio = 0.30
		p.StoreRatio = 0.16
		p.HotFraction = 0.10 // poor locality: DRAM cache only lengthens the path (Fig 9)
		p.WarmFraction = 0.05
		p.StoreStreamBias = 0.45
		p.DepDistance = 12
		p.FootprintBytes = 420 * MB
		add(p)

		p = base("sphinx3", SuiteCPU2006, 1010)
		p.FPRatio = 0.60
		p.LoadRatio = 0.32
		p.StoreRatio = 0.06
		p.HotFraction = 0.70
		p.WarmFraction = 0.25
		p.WarmBytes = 40 * MB
		add(p)
	}

	// ---- SPEC CPU2017 (10 applications) -------------------------------
	{
		p := base("perlbench", SuiteCPU2017, 2001)
		p.BranchRatio = 0.21
		p.StoreRatio = 0.12
		p.HotBytes = 512 * KB
		add(p)

		p = base("gcc17", SuiteCPU2017, 2002)
		p.BranchRatio = 0.22
		p.StoreRatio = 0.12
		p.WarmBytes = 96 * MB
		add(p)

		p = base("mcf17", SuiteCPU2017, 2003)
		p.LoadRatio = 0.36
		p.HotFraction = 0.50
		p.WarmFraction = 0.42
		p.WarmBytes = 200 * MB
		p.FootprintBytes = 900 * MB
		p.DepDistance = 3
		add(p)

		p = base("x264", SuiteCPU2017, 2004)
		p.LoadRatio = 0.30
		p.StoreRatio = 0.12
		p.MulRatio = 0.25
		p.DepDistance = 14
		p.HotBytes = 256 * KB
		add(p)

		p = base("deepsjeng", SuiteCPU2017, 2005)
		p.BranchRatio = 0.19
		p.StoreRatio = 0.09
		p.HotBytes = 256 * KB
		add(p)

		p = base("leela", SuiteCPU2017, 2006)
		p.BranchRatio = 0.18
		p.LoadRatio = 0.28
		p.HotBytes = 192 * KB
		add(p)

		p = base("xz", SuiteCPU2017, 2007)
		p.LoadRatio = 0.30
		p.StoreRatio = 0.13
		p.DepDistance = 4
		p.HotFraction = 0.65
		p.WarmFraction = 0.30
		p.WarmBytes = 80 * MB
		add(p)

		p = base("cactuBSSN", SuiteCPU2017, 2008)
		p.FPRatio = 0.80
		p.LoadRatio = 0.33
		p.StoreRatio = 0.10
		p.DepDistance = 15
		p.WarmBytes = 120 * MB
		p.WarmFraction = 0.30
		p.HotFraction = 0.60
		add(p)

		p = base("lbm17", SuiteCPU2017, 2009)
		p.FPRatio = 0.75
		p.LoadRatio = 0.30
		p.StoreRatio = 0.15
		p.HotFraction = 0.12
		p.WarmFraction = 0.06
		p.StoreStreamBias = 0.45
		p.FootprintBytes = 410 * MB
		p.DepDistance = 12
		add(p)

		p = base("nab", SuiteCPU2017, 2010)
		p.FPRatio = 0.70
		p.LoadRatio = 0.30
		p.StoreRatio = 0.08
		p.DepDistance = 13
		p.HotBytes = 96 * KB
		add(p)
	}

	// ---- SPLASH3 (7 applications, 8 threads) ---------------------------
	// Multi-threaded suites share the two memory controllers across eight
	// cores, so their written working sets must be small and stack-heavy
	// (as the real applications' are) to stay inside the write budget.
	splash := func(name string, seed int64) Profile {
		p := base(name, SuiteSPLASH3, seed)
		p.Threads = 8
		p.SyncEvery = 4000
		p.SyncContention = 1.0
		p.StackStoreFraction = 0.62
		p.StoreHotBias = 0.85
		return p
	}
	{
		p := splash("barnes", 3001)
		p.FPRatio = 0.55
		p.LoadRatio = 0.30
		p.HotFraction = 0.70
		p.WarmFraction = 0.25
		add(p)

		p = splash("fft", 3002)
		p.FPRatio = 0.65
		p.LoadRatio = 0.28
		p.StoreRatio = 0.13
		p.HotFraction = 0.40
		p.WarmFraction = 0.45
		p.WarmBytes = 64 * MB
		add(p)

		p = splash("lu-cg", 3003)
		p.FPRatio = 0.70
		p.LoadRatio = 0.32
		p.StoreRatio = 0.12
		p.DepDistance = 16 // dense kernels: high live-register demand (Fig 16)
		p.WarmFraction = 0.35
		p.HotFraction = 0.55
		add(p)

		p = splash("ocean", 3004)
		p.FPRatio = 0.60
		p.LoadRatio = 0.33
		p.StoreRatio = 0.13
		p.HotFraction = 0.35
		p.WarmFraction = 0.45
		p.WarmBytes = 120 * MB
		p.FootprintBytes = 450 * MB
		add(p)

		p = splash("radix", 3005)
		p.LoadRatio = 0.30
		p.StoreRatio = 0.17
		p.HotFraction = 0.30
		p.WarmFraction = 0.40
		p.StoreStreamBias = 0.40
		add(p)

		p = splash("water-ns", 3006)
		p.FPRatio = 0.60
		p.StoreRatio = 0.18 // store-dense: shorter regions, visible region-end stalls (Fig 11)
		p.LoadRatio = 0.28
		p.SyncEvery = 1500
		p.SyncContention = 1.6
		p.HotFraction = 0.88
		p.WarmFraction = 0.10
		add(p)

		p = splash("water-sp", 3007)
		p.FPRatio = 0.60
		p.StoreRatio = 0.19
		p.LoadRatio = 0.28
		p.SyncEvery = 1200
		p.SyncContention = 1.8
		p.HotFraction = 0.88
		p.WarmFraction = 0.10
		add(p)
	}

	// ---- STAMP (5 applications, 8 threads) ------------------------------
	stamp := func(name string, seed int64) Profile {
		p := base(name, SuiteSTAMP, seed)
		p.Threads = 8
		p.SyncEvery = 2500
		p.SyncContention = 1.2
		p.StackStoreFraction = 0.62
		p.StoreHotBias = 0.85
		return p
	}
	{
		p := stamp("genome", 4001)
		p.LoadRatio = 0.30
		p.HotFraction = 0.65
		p.WarmFraction = 0.30
		add(p)

		p = stamp("intruder", 4002)
		p.BranchRatio = 0.20
		p.LoadRatio = 0.30
		p.StoreRatio = 0.12
		p.DepDistance = 4
		add(p)

		p = stamp("kmeans", 4003)
		p.FPRatio = 0.55
		p.LoadRatio = 0.32
		p.StoreRatio = 0.08
		p.DepDistance = 12
		add(p)

		p = stamp("ssca2", 4004)
		p.LoadRatio = 0.33
		p.StoreRatio = 0.12
		p.HotFraction = 0.40
		p.WarmFraction = 0.45
		p.WarmBytes = 80 * MB
		add(p)

		p = stamp("vacation", 4005)
		p.LoadRatio = 0.32
		p.StoreRatio = 0.11
		p.HotFraction = 0.55
		p.WarmFraction = 0.38
		add(p)
	}

	// ---- WHISPER (7 applications, 8 threads; Table 3 footprints) -------
	whisper := func(name string, seed int64, footprint uint64) Profile {
		p := base(name, SuiteWHISPER, seed)
		p.Threads = 8
		p.SyncEvery = 3000
		p.SyncContention = 1.0
		p.FootprintBytes = footprint
		p.StackStoreFraction = 0.62
		p.StoreHotBias = 0.80
		return p
	}
	{
		p := whisper("pc", 5001, 196*MB) // hash-table updates: poor locality (Fig 9)
		p.LoadRatio = 0.30
		p.StoreRatio = 0.15
		p.HotFraction = 0.12
		p.WarmFraction = 0.08
		p.StoreStreamBias = 0.35
		p.DepDistance = 4
		add(p)

		p = whisper("rb", 5002, 166*MB) // red-black tree: high locality, 4% L2 miss (Fig 10)
		p.LoadRatio = 0.32
		p.StoreRatio = 0.16
		p.HotFraction = 0.98 // nearly everything fits the SRAM caches
		p.WarmFraction = 0.01
		p.HotBytes = 96 * KB
		p.DepDistance = 4
		// Tree updates rewrite nodes all over the hot set, so rb's written
		// working set is large — the source of its "relatively higher
		// write traffic towards NVM" (Section 7.1).
		p.StackStoreFraction = 0.55
		p.StoreHotBytes = 6 * KB
		add(p)

		p = whisper("sps", 5003, 264*MB) // random array swaps
		p.LoadRatio = 0.30
		p.StoreRatio = 0.18
		p.HotFraction = 0.30
		p.WarmFraction = 0.55
		p.WarmBytes = 128 * MB
		add(p)

		p = whisper("tatp", 5004, 287*MB)
		p.LoadRatio = 0.31
		p.StoreRatio = 0.12
		p.HotFraction = 0.60
		p.WarmFraction = 0.35
		add(p)

		p = whisper("tpcc", 5005, 110*MB)
		p.LoadRatio = 0.32
		p.StoreRatio = 0.14
		p.DepDistance = 15 // wide transactions: high live-register demand (Fig 16)
		p.HotFraction = 0.55
		p.WarmFraction = 0.40
		add(p)

		p = whisper("r20w80", 5006, 189*MB) // memcached, 80% writes
		p.LoadRatio = 0.24
		p.StoreRatio = 0.20
		p.SyscallEvery = 2500 // request handling traps into the network stack
		p.KernelBurstLen = 120
		p.HotFraction = 0.50
		p.WarmFraction = 0.45
		p.SyncEvery = 1800
		p.SyncContention = 1.5
		add(p)

		p = whisper("r50w50", 5007, 189*MB) // memcached, 50% writes
		p.LoadRatio = 0.30
		p.StoreRatio = 0.13
		p.SyscallEvery = 3000
		p.KernelBurstLen = 120
		p.HotFraction = 0.50
		p.WarmFraction = 0.45
		p.SyncEvery = 2200
		p.SyncContention = 1.3
		add(p)
	}

	// ---- DOE Mini-apps (2 applications; Table 3 footprints) ------------
	{
		p := base("lulesh", SuiteMiniApp, 6001)
		p.FPRatio = 0.70
		p.LoadRatio = 0.32
		p.StoreRatio = 0.12
		p.DepDistance = 14 // high ILP per Table 3
		p.HotFraction = 0.45
		p.WarmFraction = 0.40
		p.WarmBytes = 200 * MB
		p.FootprintBytes = 664 * MB
		add(p)

		p = base("xsbench", SuiteMiniApp, 6002)
		p.LoadRatio = 0.38 // stresses the memory system with little compute
		p.StoreRatio = 0.05
		p.HotFraction = 0.20
		p.WarmFraction = 0.55
		p.WarmBytes = 180 * MB
		p.FootprintBytes = 241 * MB
		p.DepDistance = 6
		add(p)
	}

	return ps
}

// ByName returns the named profile or an error listing valid names.
func ByName(name string) (Profile, error) {
	for _, p := range profileTable() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown application %q", name)
}

// Suites returns the distinct suite names in figure order.
func Suites() []string {
	return []string{SuiteCPU2006, SuiteCPU2017, SuiteSPLASH3, SuiteSTAMP, SuiteWHISPER, SuiteMiniApp}
}

// BySuite returns the profiles belonging to one suite.
func BySuite(suite string) []Profile {
	var out []Profile
	for _, p := range profileTable() {
		if p.Suite == suite {
			out = append(out, p)
		}
	}
	return out
}

// MultiThreaded returns the profiles that run more than one thread
// (SPLASH3, STAMP, WHISPER) — the population of Figure 19.
func MultiThreaded() []Profile {
	var out []Profile
	for _, p := range profileTable() {
		if p.Threads > 1 {
			out = append(out, p)
		}
	}
	return out
}

// MemoryIntensive returns the applications the paper uses for the
// memory-system sensitivity studies (Figures 10, 15, 18): poor-locality or
// large-footprint programs plus the multi-threaded suites' representatives.
func MemoryIntensive() []Profile {
	names := map[string]bool{
		"mcf": true, "libquantum": true, "lbm": true, "omnetpp": true,
		"mcf17": true, "lbm17": true, "xz": true,
		"ocean": true, "radix": true, "water-ns": true, "water-sp": true,
		"pc": true, "rb": true, "sps": true, "r20w80": true,
		"lulesh": true, "xsbench": true,
	}
	var out []Profile
	for _, p := range profileTable() {
		if names[p.Name] {
			out = append(out, p)
		}
	}
	return out
}
