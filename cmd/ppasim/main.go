// Command ppasim runs one application under one persistence scheme and
// prints the headline metrics: cycles, IPC, region characteristics, stall
// breakdown, and memory-system counters.
//
// Usage:
//
//	ppasim -app mcf -scheme ppa -insts 200000
//	ppasim -app all -scheme baseline,ppa,capri
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	"ppa"
	"ppa/internal/multicore"
	"ppa/internal/obs"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

func schemeByName(name string) (persist.Config, error) {
	if name == "dramonly" {
		name = "dram-only"
	}
	cfg, err := ppa.SchemeConfig(ppa.Scheme(name))
	if err != nil {
		names := make([]string, len(ppa.Schemes()))
		for i, s := range ppa.Schemes() {
			names[i] = string(s)
		}
		return persist.Config{}, fmt.Errorf("unknown scheme %q (%s)", name, strings.Join(names, "|"))
	}
	return cfg, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppasim: ")

	appFlag := flag.String("app", "mcf", "application name from the 41-app suite, or 'all'")
	schemeFlag := flag.String("scheme", "baseline,ppa", "comma-separated schemes to run")
	insts := flag.Int("insts", 200_000, "dynamic instructions per thread")
	verbose := flag.Bool("v", false, "print stall breakdown and memory counters")
	configPath := flag.String("config", "", "JSON machine-config override file (see ppa.DefaultMachineConfigJSON)")
	dumpConfig := flag.Bool("dump-config", false, "print the default machine config as JSON and exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
	traceSpans := flag.Bool("trace-spans", false, "with -trace: export region lifetimes as Begin/End span pairs so barrier slices nest inside them in Perfetto")
	metricsPath := flag.String("metrics", "", "write the metrics registry snapshot as JSON Lines")
	serveAddr := flag.String("serve", "", "serve live observability over HTTP at this address (endpoints /metrics, /snapshot.json, /trace, /healthz); the process keeps serving after the run until interrupted")
	pprofFlag := flag.Bool("pprof", false, "with -serve: also mount net/http/pprof under /debug/pprof/ for live CPU/heap profiling of the running simulation")
	oracleFlag := flag.Bool("oracle", false, "run the differential lockstep oracle: cross-check every committed instruction against an ISA-level golden model and assert persist ordering; any divergence fails the run")
	sampleFlag := flag.String("sample", "", "run in SMARTS-style sampled mode, e.g. 'window=50k,period=1M' (optional warm=N caps warm-up lines); cycles are extrapolated from the detailed windows")
	sampleAuditDir := flag.String("sample-audit", "", "run each app/scheme both full and sampled (per -sample, default window=50k,period=1M) and write full.json, sampled.json, and report.json into this directory for ppareport diff -two-sided")
	flag.Parse()

	if *dumpConfig {
		blob, err := ppa.DefaultMachineConfigJSON(8, ppa.SchemePPA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(blob))
		return
	}
	var customize func(*multicore.Config)
	if *configPath != "" {
		c, err := ppa.MachineCustomizerFromFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		customize = c
	}

	var profiles []workload.Profile
	if *appFlag == "all" {
		profiles = workload.Profiles()
	} else {
		p, err := workload.ByName(*appFlag)
		if err != nil {
			log.Fatal(err)
		}
		profiles = []workload.Profile{p}
	}

	var schemes []persist.Config
	for _, name := range strings.Split(*schemeFlag, ",") {
		s, err := schemeByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		schemes = append(schemes, s)
	}

	var sampleCfg multicore.SampleConfig
	if *sampleFlag != "" || *sampleAuditDir != "" {
		sc, err := parseSampleSpec(*sampleFlag)
		if err != nil {
			log.Fatal(err)
		}
		sampleCfg = sc
	}
	if *sampleAuditDir != "" {
		if err := runSampleAudit(profiles, schemes, sampleCfg, *insts, customize, *oracleFlag, *sampleAuditDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	// One hub for the whole invocation: events from sequential runs share
	// the trace (per-run cycle clocks restart at 0), counters accumulate.
	// Output files are created up front so a bad path fails before the
	// simulation, not after.
	var hub *obs.Hub
	var traceFile, metricsFile *os.File
	if *tracePath != "" || *metricsPath != "" || *serveAddr != "" {
		hub = obs.NewHub(0)
		var err error
		if *tracePath != "" {
			if traceFile, err = os.Create(*tracePath); err != nil {
				log.Fatal(err)
			}
		}
		if *metricsPath != "" {
			if metricsFile, err = os.Create(*metricsPath); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *serveAddr != "" {
		obs.RegisterRuntimeMetrics(hub.Registry(), "")
		srv, err := obs.ServeWith(*serveAddr, hub, obs.ServeOptions{Pprof: *pprofFlag})
		if err != nil {
			log.Fatal(err)
		}
		endpoints := "/metrics /snapshot.json /trace /healthz"
		if *pprofFlag {
			endpoints += " /debug/pprof/"
		}
		log.Printf("serving observability on http://%s (%s)", srv.Addr(), endpoints)
	}

	if *sampleFlag != "" {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "app\tscheme\twindows\tdetailed%\test-cycles\tCPI\tslowdown")
		baseCPI := map[string]float64{}
		for _, p := range profiles {
			for _, s := range schemes {
				res, err := ppa.RunSampled(runConfig(p, s, *insts, customize, hub, *oracleFlag), sampleCfg)
				if err != nil {
					log.Fatalf("%s/%s: %v", p.Name, s.Kind, err)
				}
				slow := "-"
				if s.Kind == persist.Baseline {
					baseCPI[p.Name] = res.CPI()
				} else if b, ok := baseCPI[p.Name]; ok && b > 0 {
					slow = fmt.Sprintf("%.3f", res.CPI()/b)
				}
				detailed := float64(res.DetailedInsts) / float64(res.Insts) * 100
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f%%\t%.0f\t%.3f\t%s\n",
					p.Name, s.Kind, res.Windows, detailed, res.EstCycles, res.CPI(), slow)
			}
		}
		tw.Flush()
		fmt.Println("# sampled mode: cycle counts are extrapolated from detailed windows; validate with -sample-audit")
	} else {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "app\tscheme\tcycles\tIPC\tregions\tavg-len\tavg-stores\tregion-stall%\tslowdown")
		var baseCycles map[string]uint64 = map[string]uint64{}
		for _, p := range profiles {
			for _, s := range schemes {
				res, err := ppa.Run(runConfig(p, s, *insts, customize, hub, *oracleFlag))
				if err != nil {
					log.Fatalf("%s/%s: %v", p.Name, s.Kind, err)
				}
				slow := "-"
				if s.Kind == persist.Baseline {
					baseCycles[p.Name] = res.Cycles
				} else if b, ok := baseCycles[p.Name]; ok && b > 0 {
					slow = fmt.Sprintf("%.3f", float64(res.Cycles)/float64(b))
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%d\t%.0f\t%.1f\t%.2f%%\t%s\n",
					p.Name, s.Kind, res.Cycles, res.IPC(),
					totalRegions(res), res.AvgRegionLen(), res.AvgRegionStores(),
					res.RegionEndStallFrac()*100, slow)
				if *verbose {
					printVerbose(res)
				}
			}
		}
		tw.Flush()
	}

	if traceFile != nil {
		if err := writeTrace(traceFile, hub, *traceSpans); err != nil {
			log.Fatal(err)
		}
	}
	if metricsFile != nil {
		if err := writeMetrics(metricsFile, hub); err != nil {
			log.Fatal(err)
		}
	}
	if *serveAddr != "" {
		log.Printf("run complete; still serving on %s — Ctrl-C to exit", *serveAddr)
		select {}
	}
}

// writeTrace exports the hub's ring buffer as a Chrome trace_event file.
func writeTrace(f *os.File, hub *obs.Hub, spans bool) error {
	tr := hub.Tracer()
	events := tr.Events()
	if spans {
		events = obs.ExpandRegionSpans(events)
	}
	if d := tr.Dropped(); d > 0 {
		// Embed the truncation in the trace itself so downstream readers
		// (ppareport -trace, Perfetto counters) see it without this log.
		var last uint64
		if n := len(events); n > 0 {
			last = events[n-1].Cycle + events[n-1].Dur
		}
		events = append(events, obs.DroppedMarker(last, d))
		log.Printf("trace ring overflowed: oldest %d of %d events dropped", d, tr.Total())
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		return err
	}
	return f.Close()
}

// writeMetrics exports the metrics registry snapshot as JSON Lines.
func writeMetrics(f *os.File, hub *obs.Hub) error {
	if err := hub.Registry().WriteJSONL(f); err != nil {
		return err
	}
	return f.Close()
}

// runConfig describes one run of app p under scheme s.
func runConfig(p workload.Profile, s persist.Config, insts int, customize func(*multicore.Config), hub *obs.Hub, oracle bool) ppa.RunConfig {
	return ppa.RunConfig{Profile: &p, SchemeOverride: &s, InstsPerThread: insts,
		Customize: customize, Obs: hub, Lockstep: oracle}
}

// parseSampleSpec parses the -sample value: comma-separated key=value pairs
// (window, period, warm) with optional k/K (×1e3) and m/M (×1e6) suffixes.
// An empty spec selects the canonical window=50k,period=1M regime.
func parseSampleSpec(spec string) (multicore.SampleConfig, error) {
	sc := multicore.SampleConfig{Window: 50_000, Period: 1_000_000}
	if spec == "" {
		return sc, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return sc, fmt.Errorf("bad -sample entry %q: want key=value", part)
		}
		n, err := parseScaled(kv[1])
		if err != nil {
			return sc, fmt.Errorf("bad -sample value %q: %v", part, err)
		}
		switch strings.ToLower(kv[0]) {
		case "window":
			sc.Window = n
		case "period":
			sc.Period = n
		case "warm":
			sc.WarmLines = n
		default:
			return sc, fmt.Errorf("unknown -sample key %q (window|period|warm)", kv[0])
		}
	}
	return sc, sc.Validate()
}

// parseScaled parses an integer with an optional k/K or m/M suffix.
func parseScaled(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// runSampleAudit runs every app/scheme pair both full and sampled, prints
// the accuracy/speedup summary, and writes three files into dir:
// full.json and sampled.json (obs sample arrays holding only the metrics
// that must agree — gate them with ppareport diff -two-sided) and
// report.json (the complete audit reports, speedup included).
func runSampleAudit(profiles []workload.Profile, schemes []persist.Config, sc multicore.SampleConfig, insts int, customize func(*multicore.Config), oracle bool, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var fullS, sampledS []obs.Sample
	var reports []*ppa.SampleAuditReport
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tscheme\tfull-CPI\tsampled-CPI\terr%\tp95-err%\tspeedup")
	for _, p := range profiles {
		for _, s := range schemes {
			rep, err := ppa.SampleAudit(runConfig(p, s, insts, customize, nil, oracle), sc)
			if err != nil {
				return fmt.Errorf("%s/%s: %v", p.Name, s.Kind, err)
			}
			f, smp := rep.AuditSamples(fmt.Sprintf("audit.%s.%s", rep.App, rep.Scheme))
			fullS = append(fullS, f...)
			sampledS = append(sampledS, smp...)
			reports = append(reports, rep)
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.2f%%\t%.2f%%\t%.1fx\n",
				rep.App, rep.Scheme, rep.FullCPI, rep.SampledCPI,
				rep.CPIErrPct, rep.PersistP95ErrPct, rep.Speedup)
		}
	}
	tw.Flush()
	for name, v := range map[string]any{
		"full.json":    fullS,
		"sampled.json": sampledS,
		"report.json":  reports,
	} {
		blob, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("# audit artifacts in %s; gate with: ppareport diff -two-sided -threshold-pct 3 %s %s\n",
		dir, filepath.Join(dir, "full.json"), filepath.Join(dir, "sampled.json"))
	return nil
}

func totalRegions(res *multicore.Result) uint64 {
	var n uint64
	for _, st := range res.PerCore {
		n += st.Regions
	}
	return n
}

func printVerbose(res *multicore.Result) {
	fmt.Printf("  # L2 miss %.1f%%  DRAM$ miss %.1f%%  NVM reads %d  NVM line writes %d (wpq-coal %d, rejected %d, avg-occ %.1f)  WB lines %d (coalesced stores %d)\n",
		res.L2MissRate*100, res.DRAMCacheMissRate*100,
		res.NVMReads, res.NVMLineWrites, res.NVMWPQCoalesced, res.NVMRejectedFull,
		res.NVMAvgWPQOccupancy, res.WBEnqueuedLines, res.WBCoalescedStores)
	for i, st := range res.PerCore {
		fmt.Printf("  # core %d: insts %d stores %d rob-full %d sq-full %d wb-full %d redo-full %d rename-noreg %d region-stall %d frontend %d sync %d csq-max %d\n",
			i, st.Insts, st.Stores, st.ROBFullStalls, st.SQFullStalls, st.WBFullStalls,
			st.RedoFullStalls, st.RenameNoRegStalls, st.RegionEndStalls, st.FrontendStalls,
			st.SyncStalls, st.CSQMaxDepth)
	}
}
