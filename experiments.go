package ppa

import (
	"context"
	"fmt"
	"sort"

	"ppa/internal/multicore"
	"ppa/internal/persist"
	"ppa/internal/stats"
	"ppa/internal/sweep"
	"ppa/internal/workload"
)

// This file implements the experiment harness for the paper's main result
// figures (Figures 1 and 8-13). Each function regenerates one figure's data
// series: the same applications, the same normalization (slowdown vs. the
// memory-mode baseline unless stated otherwise), and the same summary
// statistic the paper reports.

// AppValue is one bar of a per-application figure.
type AppValue struct {
	App   string
	Suite string
	Value float64
}

// Series is one scheme's bars across applications plus its geometric mean.
type Series struct {
	Label  string
	Values []AppValue
	GMean  float64
}

func newSeries(label string, vals []AppValue) Series {
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = v.Value
	}
	return Series{Label: label, Values: vals, GMean: stats.GeoMean(xs)}
}

// runJob identifies one simulation of the sweep matrix.
type runJob struct {
	prof      workload.Profile
	scheme    persist.Config
	insts     int
	customize func(*multicore.Config)
	sample    bool
}

// runAll executes jobs on the shared bounded worker pool (one worker per
// CPU) and returns results in job order; the first failure cancels the
// remaining jobs and surfaces from the lowest failing index. Each job runs
// through Run, which attaches DefaultObs: jobs run in parallel, so that hub
// sees concurrent emitters (the obs layer is race-tested for exactly this).
func runAll(jobs []runJob) ([]*multicore.Result, error) {
	return sweep.Map(context.Background(), 0, len(jobs), func(_ context.Context, i int) (*multicore.Result, error) {
		j := jobs[i]
		r, err := Run(RunConfig{Profile: &j.prof, SchemeOverride: &j.scheme, InstsPerThread: j.insts,
			Customize: j.customize, SampleFreeRegs: j.sample})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", j.prof.Name, j.scheme.Kind, err)
		}
		return r, nil
	})
}

// slowdownSeries runs every profile under the baseline and each scheme,
// returning per-scheme slowdown series normalized to the baseline's cycles.
func slowdownSeries(profiles []workload.Profile, baseline persist.Config,
	schemes []persist.Config, labels []string, insts int,
	customize func(*multicore.Config)) ([]Series, []*multicore.Result, error) {

	var jobs []runJob
	for _, p := range profiles {
		jobs = append(jobs, runJob{prof: p, scheme: baseline, insts: insts, customize: customize})
		for _, s := range schemes {
			jobs = append(jobs, runJob{prof: p, scheme: s, insts: insts, customize: customize})
		}
	}
	results, err := runAll(jobs)
	if err != nil {
		return nil, nil, err
	}
	per := 1 + len(schemes)
	series := make([][]AppValue, len(schemes))
	var baseResults []*multicore.Result
	for pi, p := range profiles {
		base := results[pi*per]
		baseResults = append(baseResults, base)
		for si := range schemes {
			r := results[pi*per+1+si]
			series[si] = append(series[si], AppValue{
				App:   p.Name,
				Suite: p.Suite,
				Value: stats.Ratio(float64(r.Cycles), float64(base.Cycles)),
			})
		}
	}
	out := make([]Series, len(schemes))
	for i := range schemes {
		out[i] = newSeries(labels[i], series[i])
	}
	return out, baseResults, nil
}

// Fig01 reproduces Figure 1: ReplayCache's slowdown over the memory-mode
// baseline across all 41 applications (the paper reports a ~5x average).
func Fig01(insts int) (Series, error) {
	s, _, err := slowdownSeries(workload.Profiles(), persist.BaselineDefault(),
		[]persist.Config{persist.ReplayCacheDefault()}, []string{"ReplayCache"}, insts, nil)
	if err != nil {
		return Series{}, err
	}
	return s[0], nil
}

// SchemeZoo runs every persistence scheme behind the PersistScheme
// interface over the paper's applications and returns one slowdown column
// per scheme, normalized to the memory-mode baseline. This is not a paper
// figure: it is the comparison surface for schemes added to the zoo
// (SB-gate and the log-based transaction schemes UndoLog, RedoTxn, HTPM)
// next to the published ones, printed by `ppabench -zoo`.
func SchemeZoo(insts int) ([]Series, error) {
	schemes := []persist.Config{
		persist.DRAMOnlyDefault(),
		persist.ReplayCacheDefault(),
		persist.CapriDefault(),
		persist.EADRDefault(),
		persist.PPADefault(),
		persist.SBGateDefault(),
		persist.UndoLogDefault(),
		persist.RedoTxnDefault(),
		persist.HTPMDefault(),
	}
	labels := []string{"DRAMOnly", "ReplayCache", "Capri", "eADR/BBB",
		"PPA", "SBGate", "UndoLog", "RedoTxn", "HTPM"}
	s, _, err := slowdownSeries(workload.Profiles(), persist.BaselineDefault(),
		schemes, labels, insts, nil)
	return s, err
}

// Fig08Result carries Figure 8's two series (PPA ~2%, Capri ~26%).
type Fig08Result struct {
	PPA   Series
	Capri Series
}

// Fig08 reproduces Figure 8: normalized slowdown of PPA and Capri to the
// memory-mode baseline across all 41 applications, 40-entry CSQ.
func Fig08(insts int) (*Fig08Result, error) {
	s, _, err := slowdownSeries(workload.Profiles(), persist.BaselineDefault(),
		[]persist.Config{persist.PPADefault(), persist.CapriDefault()},
		[]string{"PPA", "Capri"}, insts, nil)
	if err != nil {
		return nil, err
	}
	return &Fig08Result{PPA: s[0], Capri: s[1]}, nil
}

// Fig09Result carries Figure 9's two series: PPA and the memory-mode
// baseline, both normalized to a DRAM-only system (paper: 16% and 14%).
type Fig09Result struct {
	PPA        Series
	MemoryMode Series
}

// Fig09 reproduces Figure 9.
func Fig09(insts int) (*Fig09Result, error) {
	s, _, err := slowdownSeries(workload.Profiles(), persist.DRAMOnlyDefault(),
		[]persist.Config{persist.PPADefault(), persist.BaselineDefault()},
		[]string{"PPA", "MemoryMode"}, insts, nil)
	if err != nil {
		return nil, err
	}
	return &Fig09Result{PPA: s[0], MemoryMode: s[1]}, nil
}

// Fig10Result carries Figure 10's comparison of PPA and the ideal PSP
// (eADR/BBB in app-direct mode) on the high-L2-miss applications.
type Fig10Result struct {
	PPA Series
	PSP Series
}

// Fig10 reproduces Figure 10 (paper: PPA ~3%, PSP 1.39x average and up to
// 2.4x for libquantum; rb is the one app where PSP slightly wins).
func Fig10(insts int) (*Fig10Result, error) {
	s, _, err := slowdownSeries(workload.MemoryIntensive(), persist.BaselineDefault(),
		[]persist.Config{persist.PPADefault(), persist.EADRDefault()},
		[]string{"PPA", "eADR/BBB"}, insts, nil)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{PPA: s[0], PSP: s[1]}, nil
}

// Fig11 reproduces Figure 11: PPA's region-end stall cycles as a
// percentage of execution cycles per application (paper average: 0.21%,
// water-ns/water-sp at 6-8%).
func Fig11(insts int) (Series, error) {
	var jobs []runJob
	profiles := workload.Profiles()
	for _, p := range profiles {
		jobs = append(jobs, runJob{prof: p, scheme: persist.PPADefault(), insts: insts})
	}
	results, err := runAll(jobs)
	if err != nil {
		return Series{}, err
	}
	var vals []AppValue
	for i, p := range profiles {
		vals = append(vals, AppValue{App: p.Name, Suite: p.Suite,
			Value: results[i].RegionEndStallFrac() * 100})
	}
	s := newSeries("region-end stall %", vals)
	// An arithmetic mean matches the paper's "0.21% on average".
	var xs []float64
	for _, v := range vals {
		xs = append(xs, v.Value)
	}
	s.GMean = stats.Mean(xs)
	return s, nil
}

// Fig12 reproduces Figure 12: the increase in rename-stage
// out-of-physical-registers stall cycles of PPA over the baseline, as a
// percentage of execution cycles (paper average: 0.07%).
func Fig12(insts int) (Series, error) {
	profiles := workload.Profiles()
	var jobs []runJob
	for _, p := range profiles {
		jobs = append(jobs, runJob{prof: p, scheme: persist.BaselineDefault(), insts: insts})
		jobs = append(jobs, runJob{prof: p, scheme: persist.PPADefault(), insts: insts})
	}
	results, err := runAll(jobs)
	if err != nil {
		return Series{}, err
	}
	var vals []AppValue
	for i, p := range profiles {
		base := results[2*i].RenameStallFrac()
		ppa := results[2*i+1].RenameStallFrac()
		vals = append(vals, AppValue{App: p.Name, Suite: p.Suite, Value: (ppa - base) * 100})
	}
	s := newSeries("rename stall increase %", vals)
	var xs []float64
	for _, v := range vals {
		xs = append(xs, v.Value)
	}
	s.GMean = stats.Mean(xs)
	return s, nil
}

// Fig13Row is one application's region characteristics.
type Fig13Row struct {
	App    string
	Suite  string
	Stores float64 // mean stores per region
	Others float64 // mean non-store instructions per region
}

// Fig13Result carries Figure 13's data plus the comparison region lengths.
type Fig13Result struct {
	Rows []Fig13Row
	// AvgStores/AvgOthers are the all-app means (paper: 18 and 301).
	AvgStores float64
	AvgOthers float64
	// CapriRegionLen is Capri's fixed region length (paper: 29).
	CapriRegionLen int
	// ReplayCacheRegionLen is ReplayCache's region length (paper: ~12).
	ReplayCacheRegionLen int
}

// Fig13 reproduces Figure 13: the number of stores and other instructions
// per dynamically formed PPA region.
func Fig13(insts int) (*Fig13Result, error) {
	profiles := workload.Profiles()
	var jobs []runJob
	for _, p := range profiles {
		jobs = append(jobs, runJob{prof: p, scheme: persist.PPADefault(), insts: insts})
	}
	results, err := runAll(jobs)
	if err != nil {
		return nil, err
	}
	out := &Fig13Result{
		CapriRegionLen:       persist.CapriDefault().FixedRegionLen,
		ReplayCacheRegionLen: persist.ReplayCacheDefault().FixedRegionLen,
	}
	var st, ot []float64
	for i, p := range profiles {
		stores := results[i].AvgRegionStores()
		others := results[i].AvgRegionLen() - stores
		out.Rows = append(out.Rows, Fig13Row{App: p.Name, Suite: p.Suite, Stores: stores, Others: others})
		st = append(st, stores)
		ot = append(ot, others)
	}
	out.AvgStores = stats.Mean(st)
	out.AvgOthers = stats.Mean(ot)
	return out, nil
}

// CDFSeries is one suite's empirical CDF of free physical registers.
type CDFSeries struct {
	Suite  string
	Points []stats.CDFPoint
}

// Fig05Result carries Figure 5's per-suite CDFs of free integer and
// floating-point registers sampled every cycle at the rename stage.
type Fig05Result struct {
	Int []CDFSeries
	FP  []CDFSeries
}

// Fig05 reproduces Figure 5. The baseline core is sampled, as in the paper.
func Fig05(insts int) (*Fig05Result, error) {
	profiles := workload.Profiles()
	var jobs []runJob
	for _, p := range profiles {
		jobs = append(jobs, runJob{prof: p, scheme: persist.BaselineDefault(), insts: insts, sample: true})
	}
	results, err := runAll(jobs)
	if err != nil {
		return nil, err
	}
	intAgg := map[string]*stats.CDF{}
	fpAgg := map[string]*stats.CDF{}
	for i, p := range profiles {
		for _, st := range results[i].PerCore {
			if st.FreeInt == nil {
				continue
			}
			mergeCDF(intAgg, p.Suite, st.FreeInt)
			mergeCDF(fpAgg, p.Suite, st.FreeFP)
		}
	}
	out := &Fig05Result{}
	for _, suite := range workload.Suites() {
		if c := intAgg[suite]; c != nil {
			out.Int = append(out.Int, CDFSeries{Suite: suite, Points: c.Points()})
		}
		if c := fpAgg[suite]; c != nil {
			out.FP = append(out.FP, CDFSeries{Suite: suite, Points: c.Points()})
		}
	}
	return out, nil
}

// mergeCDF accumulates src's samples into the suite's aggregate CDF.
func mergeCDF(agg map[string]*stats.CDF, suite string, src *stats.CDF) {
	dst := agg[suite]
	if dst == nil {
		dst = stats.NewCDF()
		agg[suite] = dst
	}
	prev := uint64(0)
	for _, p := range src.Points() {
		cum := uint64(p.P*float64(src.Total()) + 0.5)
		dst.AddN(p.Value, cum-prev)
		prev = cum
	}
}

// SortByApp orders values in canonical suite order (they already are, but
// external callers composing series may need it).
func SortByApp(vals []AppValue) {
	order := map[string]int{}
	for i, name := range Apps() {
		order[name] = i
	}
	sort.SliceStable(vals, func(i, j int) bool { return order[vals[i].App] < order[vals[j].App] })
}

// SuiteStat is a per-suite aggregate of a series.
type SuiteStat struct {
	Suite string
	GMean float64
	N     int
}

// SuiteGMeans returns the series' geometric mean per benchmark suite, in
// the paper's suite order — the grouping every evaluation figure uses.
func (s Series) SuiteGMeans() []SuiteStat {
	bySuite := map[string][]float64{}
	for _, v := range s.Values {
		bySuite[v.Suite] = append(bySuite[v.Suite], v.Value)
	}
	var out []SuiteStat
	for _, suite := range workload.Suites() {
		xs, ok := bySuite[suite]
		if !ok {
			continue
		}
		out = append(out, SuiteStat{Suite: suite, GMean: stats.GeoMean(xs), N: len(xs)})
		delete(bySuite, suite)
	}
	// Any non-standard suites (custom profiles) follow.
	for suite, xs := range bySuite {
		out = append(out, SuiteStat{Suite: suite, GMean: stats.GeoMean(xs), N: len(xs)})
	}
	return out
}
