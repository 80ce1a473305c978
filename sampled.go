package ppa

import (
	"fmt"
	"time"

	"ppa/internal/isa"
	"ppa/internal/multicore"
	"ppa/internal/obs"
)

// SampleConfig sets the SMARTS-style sampling regime: each period of
// dynamic instructions per core opens with Window instructions simulated
// in full detail and fast-forwards the rest functionally.
type SampleConfig = multicore.SampleConfig

// SampledResult aggregates a sampled run; cycle counts are extrapolated
// from the detailed windows.
type SampledResult = multicore.SampledResult

// RunSampled executes one simulation in sampled mode: detailed out-of-order
// windows alternating with oracle fast-forward, per sc. Architectural state
// (registers, memory, NVM image) is exact — every instruction executes
// functionally — but cycle counts are extrapolated and the result's obs
// samples carry the sampled flag. Validate accuracy for a new configuration
// with SampleAudit before trusting the timing.
func RunSampled(rc RunConfig, sc SampleConfig) (*SampledResult, error) {
	cfg, w, err := assemble(rc, nil)
	if err != nil {
		return nil, err
	}
	return multicore.RunSampled(cfg, w, sc)
}

// SampleAuditReport compares a sampled run against the full detailed
// simulation of the same committed trajectory.
type SampleAuditReport struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	Insts  int    `json:"insts_per_thread"`
	Window int    `json:"window"`
	Period int    `json:"period"`

	Windows int `json:"windows"`

	// Accuracy: extrapolated vs measured CPI, and the persist-latency p95
	// seen inside detailed windows vs the full run's.
	FullCPI          float64 `json:"full_cpi"`
	SampledCPI       float64 `json:"sampled_cpi"`
	CPIErrPct        float64 `json:"cpi_err_pct"`
	FullPersistP95   float64 `json:"full_persist_p95"`
	SampledPersist95 float64 `json:"sampled_persist_p95"`
	PersistP95ErrPct float64 `json:"persist_p95_err_pct"`
	// FinalStateExact records the byte-identical image check (always true
	// in a returned report; a mismatch is an error, not a report).
	FinalStateExact bool `json:"final_state_exact"`

	// Speedup: simulated cycles per wall-clock second, both ways.
	FullWallMS        float64      `json:"full_wall_ms"`
	SampledWallMS     float64      `json:"sampled_wall_ms"`
	FullCyclesPerSec  float64      `json:"full_cycles_per_sec"`
	SampledCycPerSec  float64      `json:"sampled_cycles_per_sec"`
	Speedup           float64      `json:"speedup"`
	DetailedFraction  float64      `json:"detailed_fraction"`
	FullSamples       []obs.Sample `json:"-"`
	SampledRunSamples []obs.Sample `json:"-"`
}

// AuditSamples returns the accuracy metrics of the full and sampled runs
// as obs sample arrays for ppareport diff -two-sided, keyed under prefix
// (e.g. "audit.mcf.ppa"): CPI always, persist p95 when both runs observed
// persists. Wall-clock and speedup figures are deliberately excluded —
// they are the quantities expected to differ.
func (r *SampleAuditReport) AuditSamples(prefix string) (full, sampled []obs.Sample) {
	full = []obs.Sample{{Name: prefix + ".cpi", Kind: "gauge", Value: r.FullCPI}}
	sampled = []obs.Sample{{Name: prefix + ".cpi", Kind: "gauge", Value: r.SampledCPI, Sampled: true}}
	if r.FullPersistP95 > 0 && r.SampledPersist95 > 0 {
		full = append(full, obs.Sample{Name: prefix + ".persist-p95", Kind: "gauge", Value: r.FullPersistP95})
		sampled = append(sampled, obs.Sample{Name: prefix + ".persist-p95", Kind: "gauge", Value: r.SampledPersist95, Sampled: true})
	}
	return full, sampled
}

// histSample finds one histogram's snapshot in a hub.
func histSample(hub *obs.Hub, name string) (p95 float64, count uint64) {
	if hub == nil {
		return 0, 0
	}
	for _, s := range hub.Registry().Snapshot() {
		if s.Name == name {
			return s.P95, s.Count
		}
	}
	return 0, 0
}

func pctErr(est, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	e := (est - ref) / ref * 100
	if e < 0 {
		return -e
	}
	return e
}

// SampleAudit runs the committed trajectory of rc both ways — full detailed
// simulation and sampled per sc — and reports the accuracy and speedup.
// The sampled run's final NVM image is checked byte-identical against the
// golden architectural memory; a mismatch is returned as an error because
// it means the sampled mode is wrong, not merely inaccurate. rc.Obs is
// ignored: each run gets its own hub so their metrics cannot mix.
func SampleAudit(rc RunConfig, sc SampleConfig) (*SampleAuditReport, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	prof, sch, insts, err := rc.resolve()
	if err != nil {
		return nil, err
	}

	// Full detailed run.
	fullRC := rc
	fullRC.Obs = obs.NewHub(1) // metrics only; no use for a trace ring here
	fullStart := time.Now()
	full, err := Run(fullRC)
	if err != nil {
		return nil, fmt.Errorf("ppa: audit full run: %w", err)
	}
	fullWall := time.Since(fullStart)

	// Sampled run of the same trajectory.
	sampledRC := rc
	sampledRC.Obs = obs.NewHub(1)
	cfg, w, err := assemble(sampledRC, nil)
	if err != nil {
		return nil, err
	}
	sampledStart := time.Now()
	ss, err := multicore.NewSampled(cfg, w, sc)
	if err != nil {
		return nil, err
	}
	for !ss.Done() {
		if err := ss.RunWindow(); err != nil {
			return nil, fmt.Errorf("ppa: audit sampled run: %w", err)
		}
	}
	res := ss.Result()
	sampledWall := time.Since(sampledStart)

	// Equivalence: the sampled NVM image must hold the golden value of
	// every word any thread wrote.
	img := ss.Device().Image()
	for tid, prog := range w.Threads {
		g := isa.RunGolden(prog, -1)
		var mismatch error
		g.Mem.Range(func(addr, want uint64) bool {
			if got := img.ReadWord(addr); got != want {
				mismatch = fmt.Errorf("ppa: sampled image diverged from golden: thread %d addr %#x got %#x want %#x",
					tid, addr, got, want)
				return false
			}
			return true
		})
		if mismatch != nil {
			return nil, mismatch
		}
	}

	fullCPI := float64(full.Cycles) / float64(full.Insts)
	fp95, fn := histSample(fullRC.Obs, "store.commit-to-durable-cycles")
	sp95, sn := histSample(sampledRC.Obs, "store.commit-to-durable-cycles")

	rep := &SampleAuditReport{
		App:              prof.Name,
		Scheme:           sch.Kind.String(),
		Insts:            insts,
		Window:           sc.Window,
		Period:           sc.Period,
		Windows:          res.Windows,
		FullCPI:          fullCPI,
		SampledCPI:       res.CPI(),
		CPIErrPct:        pctErr(res.CPI(), fullCPI),
		FinalStateExact:  true,
		FullWallMS:       float64(fullWall.Microseconds()) / 1000,
		SampledWallMS:    float64(sampledWall.Microseconds()) / 1000,
		DetailedFraction: float64(res.DetailedInsts) / float64(res.Insts),
		FullSamples:      fullRC.Obs.Registry().Snapshot(),
	}
	rep.SampledRunSamples = sampledRC.Obs.Registry().Snapshot()
	if fn > 0 && sn > 0 {
		rep.FullPersistP95 = fp95
		rep.SampledPersist95 = sp95
		rep.PersistP95ErrPct = pctErr(sp95, fp95)
	}
	if s := fullWall.Seconds(); s > 0 {
		rep.FullCyclesPerSec = float64(full.Cycles) / s
	}
	if s := sampledWall.Seconds(); s > 0 {
		rep.SampledCycPerSec = res.EstCycles / s
	}
	if rep.FullCyclesPerSec > 0 {
		rep.Speedup = rep.SampledCycPerSec / rep.FullCyclesPerSec
	}
	return rep, nil
}
