// Command ppabench regenerates the paper's tables and figures.
//
// Usage:
//
//	ppabench -fig 8                # one figure (1, 5, 8..19)
//	ppabench -table 4              # one table (1..6)
//	ppabench -ablations            # the DESIGN.md ablation studies
//	ppabench -zoo                  # full scheme-zoo slowdown comparison
//	ppabench -all                  # everything
//	ppabench -fig 8 -insts 100000  # higher resolution
//
// Output is the paper's row/series structure: per-application bars with
// the geometric-mean summary the corresponding figure reports.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"text/tabwriter"

	"ppa"
	"ppa/internal/obs"
)

var (
	insts  = flag.Int("insts", ppa.DefaultInsts, "dynamic instructions per thread")
	csvDir = flag.String("csv", "", "also write each figure's data as CSV into this directory")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppabench: ")
	fig := flag.Int("fig", 0, "figure number to regenerate (1, 5, 8-19)")
	table := flag.Int("table", 0, "table number to regenerate (1-6)")
	ablations := flag.Bool("ablations", false, "run the ablation studies")
	zoo := flag.Bool("zoo", false, "run the full persistence-scheme zoo comparison (one slowdown column per scheme)")
	writeamp := flag.Bool("writeamp", false, "run the NVM write-amplification comparison")
	all := flag.Bool("all", false, "regenerate everything")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of every simulated run (open in chrome://tracing or Perfetto)")
	metricsPath := flag.String("metrics", "", "write the aggregated metrics registry as JSON Lines")
	serveAddr := flag.String("serve", "", "serve live observability over HTTP for the duration of the campaign (endpoints /metrics, /snapshot.json, /trace)")
	flag.Parse()

	// The figure/table harness assembles machines internally, so tracing
	// hooks in via the package-level default hub. Every run of the
	// invocation shares it: counters accumulate, trace cycles restart per
	// run.
	if *tracePath != "" || *metricsPath != "" || *serveAddr != "" {
		ppa.DefaultObs = obs.NewHub(0)
		defer exportObs(*tracePath, *metricsPath)
	}
	if *serveAddr != "" {
		srv, err := obs.Serve(*serveAddr, ppa.DefaultObs)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving observability on http://%s (/metrics /snapshot.json /trace)", srv.Addr())
	}

	switch {
	case *all:
		for _, f := range []int{1, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19} {
			runFig(f)
		}
		for t := 1; t <= 6; t++ {
			runTable(t)
		}
		runAblations()
		runWriteAmp()
	case *fig != 0:
		runFig(*fig)
	case *table != 0:
		runTable(*table)
	case *ablations:
		runAblations()
	case *zoo:
		runZoo()
	case *writeamp:
		runWriteAmp()
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// exportObs writes the default hub's trace and metrics files (skipped on
// log.Fatal paths, which bypass deferred calls).
func exportObs(tracePath, metricsPath string) {
	hub := ppa.DefaultObs
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteChromeTrace(f, hub.Tracer().Events()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if d := hub.Tracer().Dropped(); d > 0 {
			log.Printf("trace ring overflowed: oldest %d of %d events dropped", d, hub.Tracer().Total())
		}
		fmt.Printf("wrote %s\n", tracePath)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := hub.Registry().WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", metricsPath)
	}
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func printSeries(series ...ppa.Series) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "app\tsuite")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Label)
	}
	fmt.Fprintln(tw)
	for i, v := range series[0].Values {
		fmt.Fprintf(tw, "%s\t%s", v.App, v.Suite)
		for _, s := range series {
			fmt.Fprintf(tw, "\t%.3f", s.Values[i].Value)
		}
		fmt.Fprintln(tw)
	}
	for si, stat := range series[0].SuiteGMeans() {
		fmt.Fprintf(tw, "gmean %s\t(%d apps)", stat.Suite, stat.N)
		for _, s := range series {
			fmt.Fprintf(tw, "\t%.3f", s.SuiteGMeans()[si].GMean)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "gmean all\t")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%.3f", s.GMean)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

func printSweep(pts []ppa.SweepPoint) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tgmean slowdown\tworst app\tworst")
	for _, p := range pts {
		worstApp, worst := "", 0.0
		for _, v := range p.PerApp {
			if v.Value > worst {
				worst, worstApp = v.Value, v.App
			}
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.3f\n", p.Label, p.GMean, worstApp, worst)
	}
	tw.Flush()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// exportCSV writes one figure's CSV when -csv is set.
func exportCSV(name string, write func(f *os.File) error) {
	if *csvDir == "" {
		return
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(*csvDir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func runFig(n int) {
	switch n {
	case 1:
		header("Figure 1: ReplayCache slowdown vs memory-mode baseline (paper: ~5x avg)")
		s, err := ppa.Fig01(*insts)
		check(err)
		printSeries(s)
		exportCSV("fig01.csv", func(f *os.File) error { return ppa.WriteSeriesCSV(f, s) })
	case 5:
		header("Figure 5: CDF of free physical registers (baseline, per suite)")
		r, err := ppa.Fig05(*insts / 3)
		check(err)
		printCDFs("integer", r.Int)
		printCDFs("floating-point", r.FP)
		exportCSV("fig05.csv", func(f *os.File) error {
			if err := ppa.WriteCDFCSV(f, "int", r.Int); err != nil {
				return err
			}
			return ppa.WriteCDFCSV(f, "fp", r.FP)
		})
	case 8:
		header("Figure 8: PPA and Capri slowdown vs baseline (paper: 2% and 26%)")
		r, err := ppa.Fig08(*insts)
		check(err)
		printSeries(r.PPA, r.Capri)
		exportCSV("fig08.csv", func(f *os.File) error { return ppa.WriteSeriesCSV(f, r.PPA, r.Capri) })
	case 9:
		header("Figure 9: slowdown vs a 32GB DRAM-only system (paper: PPA 16%, memory mode 14%)")
		r, err := ppa.Fig09(*insts)
		check(err)
		printSeries(r.PPA, r.MemoryMode)
		exportCSV("fig09.csv", func(f *os.File) error { return ppa.WriteSeriesCSV(f, r.PPA, r.MemoryMode) })
	case 10:
		header("Figure 10: PPA vs ideal PSP (eADR/BBB) on memory-intensive apps (paper: 3% vs 39%)")
		r, err := ppa.Fig10(*insts)
		check(err)
		printSeries(r.PPA, r.PSP)
		exportCSV("fig10.csv", func(f *os.File) error { return ppa.WriteSeriesCSV(f, r.PPA, r.PSP) })
	case 11:
		header("Figure 11: region-end stall cycles, % of execution (paper avg: 0.21%; water-*: 6-8%)")
		s, err := ppa.Fig11(*insts)
		check(err)
		printSeries(s)
	case 12:
		header("Figure 12: rename out-of-registers stall increase, % (paper avg: 0.07%)")
		s, err := ppa.Fig12(*insts)
		check(err)
		printSeries(s)
	case 13:
		header("Figure 13: stores and other instructions per region (paper avg: 18 + 301)")
		r, err := ppa.Fig13(*insts)
		check(err)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "app\tsuite\tstores/region\tothers/region")
		for _, row := range r.Rows {
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\n", row.App, row.Suite, row.Stores, row.Others)
		}
		fmt.Fprintf(tw, "average\t\t%.1f\t%.1f\n", r.AvgStores, r.AvgOthers)
		tw.Flush()
		fmt.Printf("Capri fixed regions: %d insts; ReplayCache: %d insts\n",
			r.CapriRegionLen, r.ReplayCacheRegionLen)
	case 14:
		header("Figure 14: PPA slowdown with an L3 atop the DRAM cache (paper: ~1%)")
		s, err := ppa.Fig14(*insts)
		check(err)
		printSeries(s)
	case 15:
		header("Figure 15: WPQ size sweep (paper: WPQ-8 ~8%)")
		pts, err := ppa.Fig15(*insts)
		check(err)
		printSweep(pts)
		exportCSV("fig15.csv", func(f *os.File) error { return ppa.WriteSweepCSV(f, pts) })
	case 16:
		header("Figure 16: PRF size sweep (paper: 80/80 ~12%, saturating beyond default)")
		pts, err := ppa.Fig16(*insts)
		check(err)
		printSweep(pts)
		exportCSV("fig16.csv", func(f *os.File) error { return ppa.WriteSweepCSV(f, pts) })
	case 17:
		header("Figure 17: CSQ size sweep (paper: insensitive)")
		pts, err := ppa.Fig17(*insts)
		check(err)
		printSweep(pts)
		exportCSV("fig17.csv", func(f *os.File) error { return ppa.WriteSweepCSV(f, pts) })
	case 18:
		header("Figure 18: NVM write bandwidth sweep (paper: 1GB/s ~7%)")
		pts, err := ppa.Fig18(*insts)
		check(err)
		printSweep(pts)
		exportCSV("fig18.csv", func(f *os.File) error { return ppa.WriteSweepCSV(f, pts) })
	case 19:
		header("Figure 19: thread count sweep 8-64 (paper: 2-6%)")
		pts, err := ppa.Fig19(*insts / 2)
		check(err)
		printSweep(pts)
		exportCSV("fig19.csv", func(f *os.File) error { return ppa.WriteSweepCSV(f, pts) })
	default:
		log.Fatalf("unknown figure %d (1, 5, 8-19)", n)
	}
}

// runZoo prints the scheme-zoo comparison: every persistence scheme behind
// the PersistScheme interface as one slowdown column vs the memory-mode
// baseline, across the full application set.
func runZoo() {
	header("Scheme zoo: slowdown vs memory-mode baseline, one column per scheme")
	s, err := ppa.SchemeZoo(*insts)
	check(err)
	printSeries(s...)
	exportCSV("zoo.csv", func(f *os.File) error { return ppa.WriteSeriesCSV(f, s...) })
}

func printCDFs(label string, series []ppa.CDFSeries) {
	fmt.Printf("\n-- %s registers --\n", label)
	quantiles := []float64{0.25, 0.5, 0.75, 0.95}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "suite")
	for _, q := range quantiles {
		fmt.Fprintf(tw, "\tp%d free", int(q*100))
	}
	fmt.Fprintln(tw)
	for _, s := range series {
		fmt.Fprintf(tw, "%s", s.Suite)
		for _, q := range quantiles {
			fmt.Fprintf(tw, "\t%d", quantileOf(s, q))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func quantileOf(s ppa.CDFSeries, q float64) int {
	for _, p := range s.Points {
		if p.P >= q {
			return p.Value
		}
	}
	if n := len(s.Points); n > 0 {
		return s.Points[n-1].Value
	}
	return 0
}

func runTable(n int) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	switch n {
	case 1:
		header("Table 1: CLWB vs PPA")
		fmt.Fprintln(tw, "mechanism\tSQ occupied\tper-store tracking\tsnooping\treaches NVM")
		for _, r := range ppa.Table1() {
			fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\n", r.Mechanism,
				r.StoreQueueOccupied, r.SingleStoreTrack, r.Snooping, r.ReachesNVM)
		}
	case 2:
		header("Table 2: microarchitectural parameters")
		fmt.Print(ppa.Table2())
	case 3:
		header("Table 3: Mini-app and WHISPER inputs")
		fmt.Fprintln(tw, "app\tthreads\tfootprint\tdescription")
		for _, r := range ppa.Table3() {
			fmt.Fprintf(tw, "%s\t%d\t%dMB\t%s\n", r.App, r.Threads, r.FootprintMB, r.Description)
		}
	case 4:
		header("Table 4: PPA hardware overheads (22nm)")
		fmt.Fprintln(tw, "structure\tarea (um^2)\tlatency (ns)\tdynamic access (pJ)")
		for _, c := range ppa.Table4() {
			fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.5f\n", c.Name, c.AreaUM2, c.AccessLatencyNS, c.DynAccessPJ)
		}
		tw.Flush()
		fmt.Printf("total areal overhead vs server core: %.4f%% (paper: 0.005%%)\n",
			ppa.Table4ArealOverhead()*100)
		return
	case 5:
		header("Table 5 + Section 7.13: JIT flush energy and checkpoint timing")
		r := ppa.Table5()
		fmt.Fprintln(tw, "scheme\tclass\tbytes\tenergy\tsupercap mm^3\tli-thin mm^3")
		for _, row := range r.Rows {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.4f\t%.6f\n",
				row.Scheme, row.Class, row.Bytes, fmtEnergy(row.EnergyUJ),
				row.SupercapMM3, row.LiThinMM3)
		}
		tw.Flush()
		fmt.Printf("PPA worst-case checkpoint: %d bytes (paper: 1838)\n", r.WorstCaseBytes)
		fmt.Printf("controller read time: %.1f ns (paper: 114.9); PMEM flush: %.2f us (paper: ~0.91)\n",
			r.ReadTimeNS, r.FlushTimeUS)
		fmt.Printf("controller: %d flip-flops, %d gates (paper RTL synthesis)\n",
			r.ControllerFlipFlops, r.ControllerGates)
		return
	case 6:
		header("Table 6: WSP scheme comparison")
		fmt.Fprintln(tw, "scheme\thw complexity\tenergy\trecompilation\ttransparent\tDRAM cache\tmulti-MC")
		for _, r := range ppa.Table6() {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%v\t%v\t%v\n", r.Scheme,
				r.HardwareComplexity, r.EnergyRequirement, r.Recompilation,
				r.Transparency, r.EnableDRAMCache, r.EnableMultiMCs)
		}
	default:
		log.Fatalf("unknown table %d (1-6)", n)
	}
	tw.Flush()
}

func fmtEnergy(uj float64) string {
	switch {
	case uj >= 1e3:
		return fmt.Sprintf("%.1f mJ", uj/1e3)
	default:
		return fmt.Sprintf("%.1f uJ", uj)
	}
}

func runAblations() {
	header("Ablation studies (DESIGN.md section 6)")
	results, err := ppa.Ablations(*insts / 2)
	check(err)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ablation\tPPA gmean\tablated gmean\tdelta")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.1f%%\n", r.Name, r.PPAGMean, r.AblGMean,
			(r.AblGMean-r.PPAGMean)*100)
	}
	tw.Flush()
}

func runWriteAmp() {
	header("NVM write amplification (Section 2.4)")
	rows, err := ppa.WriteAmplification(*insts / 2)
	check(err)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tbaseline wr/kI\tPPA wr/kI\tRC wr/kI\tPPA/base\tRC/PPA")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.1fx\t%.1fx\n",
			r.App, r.Baseline, r.PPA, r.ReplayCache, r.PPAOverBaseline, r.RCOverPPA)
	}
	tw.Flush()
}
