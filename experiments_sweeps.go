package ppa

import (
	"strconv"

	"ppa/internal/multicore"
	"ppa/internal/persist"
	"ppa/internal/rename"
	"ppa/internal/stats"
	"ppa/internal/workload"
)

// This file implements the sensitivity studies: Figures 14-19.

// SweepPoint is one configuration of a sensitivity sweep.
type SweepPoint struct {
	Label string
	// PerApp holds the slowdown of PPA vs. the baseline at this
	// configuration, per application.
	PerApp []AppValue
	// GMean is the geometric-mean slowdown (the paper's summary bars).
	GMean float64
}

// configSweep runs (baseline, PPA) for every profile at every configuration
// as one flat job matrix on the shared worker pool: every point of every
// configuration competes for the same workers, instead of the sweep
// synchronizing at each configuration boundary.
func configSweep(profiles []workload.Profile, insts int, labels []string,
	customizers []func(*multicore.Config)) ([]SweepPoint, error) {

	var jobs []runJob
	for ci := range labels {
		for _, p := range profiles {
			jobs = append(jobs,
				runJob{prof: p, scheme: persist.BaselineDefault(), insts: insts, customize: customizers[ci]},
				runJob{prof: p, scheme: persist.PPADefault(), insts: insts, customize: customizers[ci]})
		}
	}
	results, err := runAll(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(labels))
	per := 2 * len(profiles)
	for ci, label := range labels {
		vals := make([]AppValue, 0, len(profiles))
		for pi, p := range profiles {
			base := results[ci*per+2*pi]
			res := results[ci*per+2*pi+1]
			vals = append(vals, AppValue{App: p.Name, Suite: p.Suite,
				Value: stats.Ratio(float64(res.Cycles), float64(base.Cycles))})
		}
		s := newSeries(label, vals)
		out[ci] = SweepPoint{Label: label, PerApp: s.Values, GMean: s.GMean}
	}
	return out, nil
}

// Fig14 reproduces Figure 14: PPA's slowdown when a shared L3 sits between
// private L2s and the DRAM cache (paper: ~1% — region length covers the
// deeper hierarchy's persistence latency).
func Fig14(insts int) (Series, error) {
	deep := func(cfg *multicore.Config) {
		cfg.Hierarchy.UseL3 = true
	}
	s, _, err := slowdownSeries(workload.Profiles(), persist.BaselineDefault(),
		[]persist.Config{persist.PPADefault()}, []string{"PPA+L3"}, insts, deep)
	if err != nil {
		return Series{}, err
	}
	return s[0], nil
}

// Fig15 reproduces Figure 15: PPA's slowdown with WPQ sizes 8, 16 (the
// default), and 24 for the memory-intensive and multi-threaded subset
// (paper: WPQ-8 costs ~8% on average).
func Fig15(insts int) ([]SweepPoint, error) {
	sizes := []int{8, 16, 24}
	labels := []string{"WPQ-8", "WPQ-16 (default)", "WPQ-24"}
	var custom []func(*multicore.Config)
	for _, n := range sizes {
		n := n
		custom = append(custom, func(cfg *multicore.Config) { cfg.NVM.WPQEntries = n })
	}
	return configSweep(workload.MemoryIntensive(), insts, labels, custom)
}

// PRFConfig is one Figure 16 register-file configuration.
type PRFConfig struct {
	Label   string
	Int, FP int
}

// Fig16Configs returns the paper's swept register-file sizes, ending at
// the Ice-Lake-like 280/224 point.
func Fig16Configs() []PRFConfig {
	return []PRFConfig{
		{"RF-80/80", 80, 80},
		{"RF-100/100", 100, 100},
		{"RF-120/120", 120, 120},
		{"RF-140/140", 140, 140},
		{"RF-180/168 (PPA)", 180, 168},
		{"Icelake-280/224", 280, 224},
	}
}

// Fig16 reproduces Figure 16: PPA's slowdown across physical-register-file
// sizes (paper: ~12% average at 80/80, saturating beyond the default).
// Each point is normalized to the baseline with the same register file.
func Fig16(insts int) ([]SweepPoint, error) {
	cfgs := Fig16Configs()
	var labels []string
	var custom []func(*multicore.Config)
	for _, c := range cfgs {
		c := c
		labels = append(labels, c.Label)
		custom = append(custom, func(m *multicore.Config) {
			m.Pipeline.Rename = rename.Config{IntPhysRegs: c.Int, FPPhysRegs: c.FP}
		})
	}
	return configSweep(workload.Profiles(), insts, labels, custom)
}

// Fig17 reproduces Figure 17: PPA's slowdown with CSQ sizes 10-50
// (paper: nearly flat — regions average only ~18 stores).
func Fig17(insts int) ([]SweepPoint, error) {
	sizes := []int{10, 20, 30, 40, 50}
	var labels []string
	var custom []func(*multicore.Config)
	for _, n := range sizes {
		n := n
		label := "CSQ-" + strconv.Itoa(n)
		if n == 40 {
			label += " (default)"
		}
		labels = append(labels, label)
		custom = append(custom, func(cfg *multicore.Config) {
			// Only PPA has a CSQ; the baseline must stay CSQ-free.
			if cfg.Scheme.Kind == persist.PPA {
				cfg.Scheme.CSQEntries = n
			}
		})
	}
	return configSweep(workload.Profiles(), insts, labels, custom)
}

// Fig18 reproduces Figure 18: PPA's slowdown across NVM write bandwidths
// of 1, 2.3 (default), 4, and 6 GB/s per memory controller for the
// memory-intensive subset (paper: ~7% at 1 GB/s, ~2% from the default up).
func Fig18(insts int) ([]SweepPoint, error) {
	bws := []float64{1, 2.3, 4, 6}
	labels := []string{"1GB/s", "2.3GB/s (default)", "4GB/s", "6GB/s"}
	var custom []func(*multicore.Config)
	for _, bw := range bws {
		bw := bw
		custom = append(custom, func(cfg *multicore.Config) {
			cfg.NVM = cfg.NVM.WithWriteBandwidth(bw)
		})
	}
	return configSweep(workload.MemoryIntensive(), insts, labels, custom)
}

// Fig19 reproduces Figure 19: PPA's slowdown on the multi-threaded
// applications as the thread count scales 8 -> 64, with the WPQ and shared
// L2 scaled proportionally as in the paper (overheads stay in the 2-6%
// band; water-* and memcached grow mildly).
func Fig19(insts int) ([]SweepPoint, error) {
	counts := []int{8, 16, 32, 64}
	out := make([]SweepPoint, 0, len(counts))
	for _, n := range counts {
		n := n
		scale := n / 8
		customize := func(cfg *multicore.Config) {
			cfg.NVM.WPQEntries = 16 * scale
			cfg.NVM.Channels = 2 * scale
			cfg.Hierarchy.L2Size = uint64(16<<20) * uint64(scale)
		}
		profiles := make([]workload.Profile, 0)
		for _, p := range workload.MultiThreaded() {
			p.Threads = n
			profiles = append(profiles, p)
		}
		series, _, err := slowdownSeries(profiles, persist.BaselineDefault(),
			[]persist.Config{persist.PPADefault()}, []string{"PPA"}, insts, customize)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Label:  strconv.Itoa(n) + " threads",
			PerApp: series[0].Values,
			GMean:  series[0].GMean,
		})
	}
	return out, nil
}

// AblationResult compares PPA against one of its own design-choice
// ablations (DESIGN.md section 6).
type AblationResult struct {
	Name     string
	PPAGMean float64 // default PPA slowdown vs baseline
	AblGMean float64 // ablated PPA slowdown vs baseline
	PerApp   []AppValue
}

// runAblation executes PPA and an ablated PPA over a subset of apps.
func runAblation(name string, profiles []workload.Profile, insts int,
	ablate func(*persist.Config), customize func(*multicore.Config)) (*AblationResult, error) {

	abl := persist.PPADefault()
	ablate(&abl)
	series, _, err := slowdownSeries(profiles, persist.BaselineDefault(),
		[]persist.Config{persist.PPADefault(), abl}, []string{"PPA", name}, insts, customize)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:     name,
		PPAGMean: series[0].GMean,
		AblGMean: series[1].GMean,
		PerApp:   series[1].Values,
	}, nil
}

// ablationProfiles is a representative cross-suite subset used by the
// ablation studies (one memory-bound, one compute-bound, one FP, one
// write-heavy multi-threaded, one key-value workload).
func ablationProfiles() []workload.Profile {
	names := []string{"mcf", "sjeng", "lbm", "water-ns", "rb"}
	var out []workload.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err == nil {
			out = append(out, p)
		}
	}
	return out
}

// AblationSyncPersist quantifies disabling asynchronous writeback: each
// committed store stalls retirement until durable (Section 3.2's
// motivation for async persistence).
func AblationSyncPersist(insts int) (*AblationResult, error) {
	return runAblation("sync-persist", ablationProfiles(), insts,
		func(c *persist.Config) { c.SyncStorePersist = true }, nil)
}

// AblationStrictBarrier quantifies a full-drain persist barrier at region
// boundaries instead of PPA's relaxed epoch barrier.
func AblationStrictBarrier(insts int) (*AblationResult, error) {
	return runAblation("strict-barrier", ablationProfiles(), insts,
		func(c *persist.Config) { c.Barrier = persist.BarrierFullDrain }, nil)
}

// AblationNoCoalescing quantifies removing persist coalescing from the
// write buffer and WPQ (Section 4.3's coalescing claim). The coalescing
// knobs live in the hierarchy, so the reference and ablated runs are built
// separately (a shared Customize would strip the reference too).
func AblationNoCoalescing(insts int) (*AblationResult, error) {
	ref, _, err := slowdownSeries(ablationProfiles(), persist.BaselineDefault(),
		[]persist.Config{persist.PPADefault()}, []string{"PPA"}, insts, nil)
	if err != nil {
		return nil, err
	}
	abl, _, err := slowdownSeries(ablationProfiles(), persist.BaselineDefault(),
		[]persist.Config{persist.PPADefault()}, []string{"no-coalescing"}, insts,
		func(cfg *multicore.Config) {
			if cfg.Scheme.Kind == persist.PPA {
				cfg.Hierarchy.CoalesceWB = false
				cfg.Hierarchy.PersistLag = 0
				cfg.NVM.CoalesceWPQ = false
			}
		})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:     "no-coalescing",
		PPAGMean: ref[0].GMean,
		AblGMean: abl[0].GMean,
		PerApp:   abl[0].Values,
	}, nil
}

// AblationMaskAllOperands quantifies masking every store operand register
// instead of only the data register (footnote 10's optimization).
func AblationMaskAllOperands(insts int) (*AblationResult, error) {
	return runAblation("mask-all-operands", ablationProfiles(), insts,
		func(c *persist.Config) { c.MaskAllOperands = true }, nil)
}

// AblationValueCSQ quantifies the Section 6 in-order-core variant where the
// CSQ carries data values instead of PRF indexes.
func AblationValueCSQ(insts int) (*AblationResult, error) {
	return runAblation("value-csq", ablationProfiles(), insts,
		func(c *persist.Config) { c.ValueCSQ = true }, nil)
}

// AblationSBGate compares PPA against Section 6's store-buffer-gating
// alternative: retired stores held in the SB until the region persists.
func AblationSBGate(insts int) (*AblationResult, error) {
	series, _, err := slowdownSeries(ablationProfiles(), persist.BaselineDefault(),
		[]persist.Config{persist.PPADefault(), persist.SBGateDefault()},
		[]string{"PPA", "sb-gate"}, insts, nil)
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:     "sb-gate",
		PPAGMean: series[0].GMean,
		AblGMean: series[1].GMean,
		PerApp:   series[1].Values,
	}, nil
}

// Ablations runs every ablation study.
func Ablations(insts int) ([]*AblationResult, error) {
	fns := []func(int) (*AblationResult, error){
		AblationSyncPersist, AblationStrictBarrier, AblationNoCoalescing,
		AblationMaskAllOperands, AblationValueCSQ, AblationSBGate,
	}
	var out []*AblationResult
	for _, fn := range fns {
		r, err := fn(insts)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteAmpRow is one application's NVM write-traffic comparison.
type WriteAmpRow struct {
	App   string
	Suite string
	// Values are write operations issued toward NVM per 1000 committed
	// instructions: natural dirty evictions for the baseline, per-line
	// writeback operations for the persistence schemes (before device-side
	// coalescing).
	Baseline    float64
	PPA         float64
	ReplayCache float64
	// PPAOverBaseline is PPA's write amplification relative to the
	// baseline's natural eviction traffic.
	PPAOverBaseline float64
	// RCOverPPA shows ReplayCache's per-store clwb amplification over
	// PPA's coalesced writebacks (Section 2.4's "doubling NVM stores").
	RCOverPPA float64
}

// WriteAmplification measures NVM media write traffic under the baseline,
// PPA, and ReplayCache for a representative subset — the quantitative form
// of Section 2.4's write-amplification argument and the endurance cost of
// each scheme.
func WriteAmplification(insts int) ([]WriteAmpRow, error) {
	profiles := ablationProfiles()
	var jobs []runJob
	schemes := []persist.Config{persist.BaselineDefault(), persist.PPADefault(), persist.ReplayCacheDefault()}
	for _, p := range profiles {
		for _, s := range schemes {
			jobs = append(jobs, runJob{prof: p, scheme: s, insts: insts})
		}
	}
	results, err := runAll(jobs)
	if err != nil {
		return nil, err
	}
	var out []WriteAmpRow
	for pi, p := range profiles {
		perK := func(si int) float64 {
			r := results[pi*len(schemes)+si]
			writes := r.WBEnqueuedLines
			if si == 0 { // baseline has no persist path: count evictions
				writes = r.NVMLineWrites
			}
			return 1000 * float64(writes) / float64(r.Insts)
		}
		row := WriteAmpRow{
			App: p.Name, Suite: p.Suite,
			Baseline: perK(0), PPA: perK(1), ReplayCache: perK(2),
		}
		if row.Baseline > 0 {
			row.PPAOverBaseline = row.PPA / row.Baseline
		}
		if row.PPA > 0 {
			row.RCOverPPA = row.ReplayCache / row.PPA
		}
		out = append(out, row)
	}
	return out, nil
}

// SeedStudyResult reports PPA's slowdown across workload seeds — the check
// that the synthetic-trace results are not artifacts of one random stream.
type SeedStudyResult struct {
	App       string
	Slowdowns []float64
	Mean      float64
	Min       float64
	Max       float64
}

// SeedStudy reruns the (baseline, PPA) pair for one application across
// several trace seeds.
func SeedStudy(app string, seeds []int64, insts int) (*SeedStudyResult, error) {
	prof, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	out := &SeedStudyResult{App: app}
	var jobs []runJob
	for _, seed := range seeds {
		p := prof
		p.Seed = seed
		jobs = append(jobs,
			runJob{prof: p, scheme: persist.BaselineDefault(), insts: insts},
			runJob{prof: p, scheme: persist.PPADefault(), insts: insts})
	}
	results, err := runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i := range seeds {
		base := results[2*i]
		res := results[2*i+1]
		out.Slowdowns = append(out.Slowdowns, float64(res.Cycles)/float64(base.Cycles))
	}
	out.Mean = stats.Mean(out.Slowdowns)
	out.Min, out.Max = out.Slowdowns[0], out.Slowdowns[0]
	for _, s := range out.Slowdowns[1:] {
		if s < out.Min {
			out.Min = s
		}
		if s > out.Max {
			out.Max = s
		}
	}
	return out, nil
}
