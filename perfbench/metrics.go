package main

import (
	"strings"

	"ppa"
)

// metricSpec declares one reported metric as BENCHMARK.json lists it.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off. ops_per_cpu_s is the workload's own throughput per second
// of process CPU time: simulated trace instructions on zoo-detailed and
// sampled (sim_insts_per_s), torture verdicts on crash-sweep
// (torture_points_per_s), and litmus test-by-schedule executions on litmus
// (litmus_execs_per_s). The ledger line prints the same figures per wall
// second under those names.
func endToEndMetrics() []metricSpec {
	return []metricSpec{
		{name: "ops_per_cpu_s", unit: "1/s", better: "higher", bound: 0.25},
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
		{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	}
}

// Per-layer metric names. A traced run reports every one of them, from its
// own workload where that workload calls the layer and from a short probe
// of another workload where it does not (README.md maps each metric to
// the workload that exercises it).
const (
	mStepNs        = "pipeline.step_ns_per_core_cycle"
	mIdleFrac      = "pipeline.idle_core_cycle_frac"
	mIPC           = "pipeline.ipc"
	mTickNs        = "cache.tick_ns_per_cycle"
	mBacklog       = "cache.persist_backlog_avg"
	mCacheNew      = "cache.new_ms"
	mNVMWrites     = "nvm.writes_per_kinst"
	mNVMReads      = "nvm.reads_per_kinst"
	mWPQOcc        = "nvm.wpq_occupancy_avg"
	mBackendTick   = "persist.backend_tick_ns_per_cycle"
	mBackendAccept = "persist.backend_accept_ns_per_call"
	mBackendReject = "persist.backend_reject_frac"
	mGlue          = "multicore.step_glue_ns_per_cycle"
	mAssemble      = "multicore.assemble_ms"
	mGen           = "workload.gen_ns_per_inst"
	mOracleCommit  = "oracle.commit_ns_per_call"
	mOracleAccept  = "oracle.accept_ns_per_call"
	mFastForward   = "oracle.fastforward_ns_per_inst"
	mWindow        = "sampled.window_ms"
	mCrashRecover  = "recovery.crash_recover_ms_per_point"
	mObsOverhead   = "obs.overhead_frac"
	mSpeedup2w     = "sweep.speedup_2w"
	mCompile       = "litmus.compile_ms"
	mExec          = "litmus.exec_ms"
	mTraceOverhead = "trace.overhead_frac"
	mSimCycles     = "sim_cycles"
	mCPIErr        = "sampled_cpi_err_pct"
	mSimInsts      = "sim_insts_per_s"
)

// perSchemeMetrics are broken out per scheme on zoo-detailed with a
// ".<scheme>" suffix.
var perSchemeMetrics = []metricSpec{
	{name: mStepNs, unit: "ns", better: "lower"},
	{name: mIdleFrac, unit: "frac", better: "lower"},
	{name: mIPC, unit: "inst/cycle", better: "higher"},
	{name: mBackendTick, unit: "ns", better: "lower"},
	{name: mBackendAccept, unit: "ns", better: "lower"},
	{name: mBackendReject, unit: "frac", better: "lower"},
	{name: mSimInsts, unit: "inst/s", better: "higher"},
}

func perLayerMetrics() []metricSpec {
	out := []metricSpec{
		{name: mStepNs, unit: "ns", better: "lower"},
		{name: mIdleFrac, unit: "frac", better: "lower"},
		{name: mIPC, unit: "inst/cycle", better: "higher"},
		{name: mTickNs, unit: "ns", better: "lower"},
		{name: mBacklog, unit: "entries", better: "lower"},
		{name: mCacheNew, unit: "ms", better: "lower"},
		{name: mNVMWrites, unit: "1/kinst", better: "lower"},
		{name: mNVMReads, unit: "1/kinst", better: "lower"},
		{name: mWPQOcc, unit: "entries", better: "lower"},
		{name: mBackendTick, unit: "ns", better: "lower"},
		{name: mBackendAccept, unit: "ns", better: "lower"},
		{name: mBackendReject, unit: "frac", better: "lower"},
		{name: mGlue, unit: "ns", better: "lower"},
		{name: mAssemble, unit: "ms", better: "lower"},
		{name: mGen, unit: "ns", better: "lower"},
		{name: mOracleCommit, unit: "ns", better: "lower"},
		{name: mOracleAccept, unit: "ns", better: "lower"},
		{name: mFastForward, unit: "ns", better: "lower"},
		{name: mWindow, unit: "ms", better: "lower"},
		{name: mCrashRecover, unit: "ms", better: "lower"},
		{name: mObsOverhead, unit: "frac", better: "lower"},
		{name: mSpeedup2w, unit: "x", better: "higher"},
		{name: mCompile, unit: "ms", better: "lower"},
		{name: mExec, unit: "ms", better: "lower"},
		{name: mTraceOverhead, unit: "frac", better: "lower"},
		{name: mSimCycles, unit: "cycles", better: "lower"},
		{name: mCPIErr, unit: "%", better: "lower"},
	}
	for _, s := range ppa.Schemes() {
		backend := hasBackend(s)
		for _, m := range perSchemeMetrics {
			if !backend && strings.HasPrefix(m.name, "persist.") {
				continue // the scheme has no backend to time
			}
			m.name += "." + string(s)
			out = append(out, m)
		}
	}
	return out
}

// hasBackend reports whether the scheme persists through a dedicated
// backend (Capri's redo path, the log schemes' log path): the schemes
// pipeline.New refuses to build without one.
func hasBackend(s ppa.Scheme) bool {
	cfg, err := ppa.SchemeConfig(s)
	if err != nil {
		panic(err) // names come from ppa.Schemes
	}
	return cfg.UseRedoPath || cfg.UndoLogStores || cfg.RedoLogStores
}

// layerValues holds per-layer figures by metric name.
type layerValues map[string]float64

// result renders the values as the contract's metric map.
func (v layerValues) result() map[string]Metric {
	out := make(map[string]Metric, len(v))
	for _, m := range perLayerMetrics() {
		out[m.name] = Metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}
