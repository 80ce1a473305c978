package multicore

// Sampled execution (SMARTS-style): the machine alternates between short
// detailed windows — the full out-of-order multicore, optionally under the
// lockstep oracle — and long fast-forwarded stretches where only the
// oracle's functional executor advances architectural state, the NVM image,
// and a cache warm-up model. Whole-run cycles are extrapolated by charging
// each skipped stretch at its adjacent window's CPI; persist-latency
// distributions come from the detailed windows unscaled. Accuracy is not
// assumed: ppasim -sample-audit runs the same trajectory both ways and
// ppareport diff gates the CPI / persist-p95 error in CI.

import (
	"fmt"

	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/oracle"
	"ppa/internal/stats"
	"ppa/internal/workload"
)

// SampleConfig sets the sampling regime, in dynamic instructions per core:
// each period begins with Window detailed instructions and fast-forwards
// the remaining Period-Window.
type SampleConfig struct {
	Window int `json:"window"`
	Period int `json:"period"`
	// WarmLines bounds the per-core warm-up model (lines installed into
	// the fresh hierarchy at each window start). Zero means the default.
	WarmLines int `json:"warm_lines,omitempty"`
}

// Validate rejects degenerate regimes.
func (sc SampleConfig) Validate() error {
	if sc.Window <= 0 {
		return fmt.Errorf("multicore: sample window %d must be positive", sc.Window)
	}
	if sc.Period < sc.Window {
		return fmt.Errorf("multicore: sample period %d shorter than window %d", sc.Period, sc.Window)
	}
	return nil
}

// SampledResult aggregates a sampled run.
type SampledResult struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`

	Windows        int     `json:"windows"`
	DetailedCycles uint64  `json:"detailed_cycles"`
	DetailedInsts  uint64  `json:"detailed_insts"`
	SkippedInsts   uint64  `json:"skipped_insts"`
	EstCycles      float64 `json:"est_cycles"`
	Insts          uint64  `json:"insts"`
}

// CPI returns the extrapolated whole-run cycles per instruction.
func (r *SampledResult) CPI() float64 {
	return stats.Ratio(r.EstCycles, float64(r.Insts))
}

// IPC returns the extrapolated whole-run instructions per cycle.
func (r *SampledResult) IPC() float64 {
	return stats.Ratio(float64(r.Insts), r.EstCycles)
}

// SampledSystem is the sampled-mode counterpart of System. It owns the
// state that survives across detailed windows: the window machine, whose
// NVM device's image is the architectural memory carrier, the functional
// engine (golden models + persist checker), per-core trace positions, and
// the warm-up models. Each RunWindow restarts the window machine in place,
// quiesces it at the window boundary, and fast-forwards the skip.
type SampledSystem struct {
	sc     SampleConfig
	sys    *System
	engine *oracle.Machine
	pos    []int // per-core next dynamic instruction
	warm   []*oracle.Warmth
	est    stats.SampledEstimate
	win    int
}

// NewSampled builds a sampled-mode machine over the workload.
func NewSampled(cfg Config, w *workload.Workload, sc SampleConfig) (*SampledSystem, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if cfg.InOrder {
		return nil, fmt.Errorf("multicore: sampled simulation models only out-of-order cores")
	}
	sys, err := NewSystem(cfg, w)
	if err != nil {
		return nil, err
	}
	engine := sys.oracle
	if engine == nil {
		engine = oracle.New(w.Threads, nil)
	}
	s := &SampledSystem{
		sc:     sc,
		sys:    sys,
		engine: engine,
		pos:    make([]int, len(w.Threads)),
		warm:   make([]*oracle.Warmth, len(w.Threads)),
	}
	for i := range s.warm {
		s.warm[i] = oracle.NewWarmth(sc.WarmLines)
	}
	return s, nil
}

// Done reports whether every core's trace has been fully executed
// (in detail or fast-forwarded).
func (s *SampledSystem) Done() bool {
	for i, p := range s.pos {
		if p < s.sys.w.Threads[i].Len() {
			return false
		}
	}
	return true
}

// Device exposes the run-long NVM device; its image is the exact
// architectural memory after every completed window+skip.
func (s *SampledSystem) Device() *nvm.Device { return s.sys.dev }

// Windows returns how many detailed windows have run.
func (s *SampledSystem) Windows() int { return s.win }

// startWindow restarts the window machine for a window at the current
// positions, each core from the engine's golden model, and warms its cold
// hierarchy. It returns each core's stop and the window's length.
func (s *SampledSystem) startWindow() (stops []int, insts int, err error) {
	sys := s.sys
	stops = make([]int, len(s.pos))
	fronts := make([]*isa.GoldenResult, len(s.pos))
	for i, p := range s.pos {
		stops[i] = min(p+s.sc.Window, sys.w.Threads[i].Len())
		fronts[i] = s.engine.Golden(i)
		insts += stops[i] - p
	}
	if err := sys.restart(sys.cfg, sys.w, s.pos, &window{fronts, stops}); err != nil {
		return nil, 0, err
	}
	for i := range s.pos {
		sys.hier.WarmInstall(i, s.warm[i].Lines())
	}
	return stops, insts, nil
}

// RunWindow executes one detailed window at the current positions, then
// fast-forwards to the next window start.
func (s *SampledSystem) RunWindow() error {
	stops, windowInsts, err := s.startWindow()
	if err != nil {
		return err
	}
	sys := s.sys

	// Detailed simulation until every core quiesces at its stop.
	bound := CycleBudget(windowInsts)
	if err := sys.Run(bound); err != nil {
		return err
	}
	windowCycles := sys.Cycle()

	// Window exit. The cores stopped inside open regions that no boundary
	// will close, so the exit does a boundary's part first: it releases the
	// stores a gated retire still holds, and cuts the write buffers'
	// lazy-coalescing lag short, which would otherwise charge the drained
	// tail latencies no continuing run sees. Then it drains the persist
	// paths so every committed store is durable, flushes residual volatile
	// dirt into the image (making it architecturally complete for the skip),
	// checks the oracle, and resets persist tracking and the device clock
	// for the regime change.
	if err := sys.releaseGated(bound); err != nil {
		return err
	}
	for i := range sys.cores {
		sys.hier.FlushWB(i, sys.cycle)
	}
	if err := sys.DrainPersists(bound); err != nil {
		return err
	}
	sys.hier.FlushAllDirty()
	if err := sys.checkOracleFinal(); err != nil {
		return err
	}
	s.engine.ResetPersistTracking()
	sys.dev.ResetClock()

	// Catch the engine up through the window (a no-op under lockstep,
	// where it tracked every commit) and fast-forward the skipped stretch,
	// advancing golden state, image, and warm-up models.
	skipped := 0
	for i := range s.pos {
		next := max(min(s.pos[i]+s.sc.Period, sys.w.Threads[i].Len()), stops[i])
		if err := s.engine.FastForward(i, stops[i], sys.dev.Image(), nil); err != nil {
			return err
		}
		if err := s.engine.FastForward(i, next, sys.dev.Image(), s.warm[i]); err != nil {
			return err
		}
		skipped += next - stops[i]
		s.pos[i] = next
	}
	s.est.AddWindow(windowCycles, uint64(windowInsts), uint64(skipped))
	s.win++
	return nil
}

// Result snapshots the run's extrapolated aggregates (final once Done) and
// registers the sampled gauges — marked Sampled — on the obs registry.
func (s *SampledSystem) Result() *SampledResult {
	cfg, w := s.sys.cfg, s.sys.w
	res := &SampledResult{
		Scheme:         cfg.Scheme.Kind.String(),
		Workload:       w.Profile.Name,
		Cores:          len(w.Threads),
		Windows:        s.win,
		DetailedCycles: s.est.DetailedCycles,
		DetailedInsts:  s.est.DetailedInsts,
		SkippedInsts:   s.est.SkippedInsts,
		EstCycles:      s.est.EstimatedCycles,
		Insts:          s.est.DetailedInsts + s.est.SkippedInsts,
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.Gauge("sampled.windows").Set(float64(res.Windows))
		reg.Gauge("sampled.est-cycles").Set(res.EstCycles)
		reg.Gauge("sampled.cpi").Set(res.CPI())
		reg.Gauge("sampled.detailed-frac").Set(s.est.DetailedFraction())
		for _, name := range []string{
			"sampled.est-cycles", "sampled.cpi",
			"store.commit-to-durable-cycles",
		} {
			reg.MarkSampled(name)
		}
	}
	return res
}

// RunSampled executes the workload under cfg in sampled mode. The returned
// result's cycle count is an extrapolation; architectural state (registers,
// memory, NVM image) is exact — every instruction executes functionally,
// only timing is sampled.
func RunSampled(cfg Config, w *workload.Workload, sc SampleConfig) (*SampledResult, error) {
	s, err := NewSampled(cfg, w, sc)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := s.RunWindow(); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}

// releaseGated ticks the memory system and the scheme backends until every
// core has closed its region that still holds gated stores (see
// pipeline.Core.ReleaseGated). budget bounds the extra cycles. A sampled
// machine's cores are out-of-order (NewSampled refuses Config.InOrder).
func (s *System) releaseGated(budget uint64) error {
	released, err := s.advance(s.cycle+budget, untilReleased)
	switch {
	case err != nil:
		return err
	case !released:
		return fmt.Errorf("multicore: gated stores not released within %d cycles", budget)
	}
	return nil
}
