// Command ppatorture sweeps the adversarial fault-injection torture
// harness over a workload: thousands of (failure cycle × fault kind ×
// parameter) points, each crashing the machine, damaging what the crash
// persisted, and demanding that recovery either converge to a consistent
// committed prefix or refuse the damage with a typed error. Violations are
// shrunk to a minimal reproducer and the process exits non-zero.
//
// Usage:
//
//	ppatorture -app mcf -scheme ppa -points 2000
//	ppatorture -app gcc -insts 4000 -points 500 -seed 7 -out report.json
//	ppatorture -config inorder.json -points 30 -oracle   # Section 6's in-order core
//	ppatorture -repro repro.json             # replay a saved reproducer
//	ppatorture -points 2000 -fabric :7077    # distribute: serve units to
//	                                         # ppafabric workers and merge
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"slices"
	"time"

	"ppa"
	"ppa/internal/fabric"
	"ppa/internal/fault"
	"ppa/internal/mutation"
	"ppa/internal/obs"
	internalsweep "ppa/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppatorture: ")

	appFlag := flag.String("app", "mcf", "application name from the workload suite")
	schemeFlag := flag.String("scheme", "ppa", "persistence scheme (the contract targets ppa)")
	insts := flag.Int("insts", 2_000, "dynamic instructions per thread")
	points := flag.Int("points", 2_000, "number of torture points to sweep")
	seed := flag.Int64("seed", 1, "sweep generator seed")
	minCycle := flag.Uint64("mincycle", 200, "earliest failure cycle")
	maxCycle := flag.Uint64("maxcycle", 8_000, "failure cycles are uniform in [mincycle, maxcycle)")
	kindFlag := flag.String("kind", "", "restrict the sweep to one fault kind (torn-checkpoint|nested-outage|bit-flip|torn-word|drop-tail)")
	outPath := flag.String("out", "", "write the sweep report as JSON")
	reproPath := flag.String("repro", "", "path for the shrunk reproducer JSON written on violation (default ppatorture-repro.json)")
	replayPath := flag.String("replay", "", "replay a saved reproducer JSON and exit")
	metricsPath := flag.String("metrics", "", "write the metrics registry snapshot as JSON Lines")
	serveAddr := flag.String("serve", "", "serve live observability over HTTP for the duration of the sweep (endpoints /metrics, /snapshot.json, /trace); torture.points/violations tick live, per-worker simulator metrics merge in at sweep end")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = one per CPU, 1 = sequential; in -fabric mode, the in-process worker's simulation parallelism)")
	verbose := flag.Bool("v", false, "print every point's verdict")
	configPath := flag.String("config", "", "JSON machine-config override file, as ppasim -config (e.g. Section 6's in-order core); not with -fabric")
	oracleFlag := flag.Bool("oracle", false, "run every point under the differential lockstep oracle: commit-stream divergences and post-recovery image mismatches count as violations")
	fabricAddr := flag.String("fabric", "", "distribute the sweep: serve it as a fabric coordinator on this address (ppafabric workers can join) while an in-process worker chews units")
	fabricManifest := flag.String("fabric-manifest", "", "resumable completed-unit ledger for -fabric mode (restart over it to resume)")
	fabricUnit := flag.Int("fabric-unit", fabric.DefaultUnitSize, "torture points per fabric work unit")
	fabricTrace := flag.String("fabric-trace", "", "with -fabric: write the merged fleet Chrome trace to this file after the sweep")
	forensicsDir := flag.String("forensics", "", "capture a violation flight-recorder bundle (trace tail + metrics + NVM accept tail + divergence report) into this directory on every violation; inspect with `ppareport forensics <file>`")
	mutateFlag := flag.String("mutate", "", "enable one seeded simulator bug by name for the whole sweep (see internal/mutation; used to prove the harness and forensics pipeline have teeth)")
	pprofFlag := flag.Bool("pprof", false, "with -serve: also mount net/http/pprof under /debug/pprof/ for live profiling of the sweep")
	flag.Parse()

	// Reject nonsense parallelism up front with a typed error instead of
	// letting a negative count feed the sweep engine (0 keeps its
	// one-worker-per-CPU meaning).
	if err := fabric.ValidateWorkers("workers", *workers, 0); err != nil {
		log.Fatal(err)
	}
	if *fabricUnit < 1 {
		log.Fatal(&fabric.FlagError{Flag: "fabric-unit", Value: fmt.Sprint(*fabricUnit), Reason: "must be >= 1"})
	}
	if *configPath != "" && *fabricAddr != "" {
		// A fabric sweep spec names the app, scheme and sizes, and every
		// worker builds its machines from that alone.
		log.Fatal(&fabric.FlagError{Flag: "config", Value: *configPath,
			Reason: "a -fabric sweep spec carries no machine config, so fabric workers could not build the configured machine; run the sweep without -fabric"})
	}
	if *maxCycle <= *minCycle {
		// TorturePoints would silently clamp an empty range to a single
		// cycle; at the CLI that hides a flag mistake, so fail loudly.
		log.Fatal(&fabric.FlagError{
			Flag:   "maxcycle",
			Value:  fmt.Sprint(*maxCycle),
			Reason: fmt.Sprintf("failure-cycle range [%d, %d) is empty; -maxcycle must exceed -mincycle", *minCycle, *maxCycle),
		})
	}

	if *mutateFlag != "" {
		m, err := mutation.Parse(*mutateFlag)
		if err != nil {
			log.Fatal(err)
		}
		mutation.Enable(m)
		log.Printf("MUTATION ENABLED: %s (%s at %s) — violations are expected", m, m.Description(), m.Site())
	}

	hub := ppa.NewObsHub(0)
	if *serveAddr != "" {
		obs.RegisterRuntimeMetrics(hub.Registry(), "")
		srv, err := obs.ServeWith(*serveAddr, hub, obs.ServeOptions{Pprof: *pprofFlag})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving observability on http://%s (/metrics /snapshot.json /trace /healthz)", srv.Addr())
	}
	var recorder *ppa.ForensicsRecorder
	if *forensicsDir != "" {
		recorder = ppa.NewForensicsRecorder(*forensicsDir, 0)
	}
	rc := ppa.RunConfig{
		App:            *appFlag,
		Scheme:         ppa.Scheme(*schemeFlag),
		InstsPerThread: *insts,
		Obs:            hub,
		Lockstep:       *oracleFlag,
		Forensics:      recorder,
	}
	if *configPath != "" {
		customize, err := ppa.MachineCustomizerFromFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		rc.Customize = customize
	}

	if *replayPath != "" {
		if err := replay(rc, *replayPath); err != nil {
			log.Fatal(err)
		}
		return
	}

	sweep, err := ppa.TorturePointsChecked(*seed, *points, *minCycle, *maxCycle)
	if err != nil {
		log.Fatal(err)
	}
	if *kindFlag != "" {
		k, err := fault.ParseKind(*kindFlag)
		if err != nil {
			log.Fatal(err)
		}
		sweep = ppa.FilterTorturePointsByKind(sweep, k)
	}
	log.Printf("sweeping %d points: app=%s scheme=%s insts=%d cycles=[%d,%d) seed=%d workers=%d",
		len(sweep), *appFlag, *schemeFlag, *insts, *minCycle, *maxCycle, *seed,
		internalsweep.Workers(*workers))

	onPoint := func(out *ppa.CrashVerdict) {
		if *verbose || out.Violation != "" {
			status := "ok"
			switch {
			case out.Violation != "":
				status = "VIOLATION: " + out.Violation
			case out.Detected != nil:
				status = "detected: " + out.Detected.Error()
			case out.Completed:
				status = "completed before failure"
			}
			log.Printf("  %v -> %s", out.Point, status)
		}
	}
	var rep *ppa.TortureReport
	if *fabricAddr != "" {
		rep, err = runFabric(fabricOptions{
			listen:       *fabricAddr,
			manifest:     *fabricManifest,
			unit:         *fabricUnit,
			workers:      *workers,
			hub:          hub,
			traceOut:     *fabricTrace,
			forensicsDir: *forensicsDir,
			spec: fabric.Spec{
				App:      *appFlag,
				Scheme:   *schemeFlag,
				Insts:    *insts,
				Points:   *points,
				Seed:     *seed,
				MinCycle: *minCycle,
				MaxCycle: *maxCycle,
				Kind:     *kindFlag,
				Oracle:   *oracleFlag,
				UnitSize: *fabricUnit,
			},
		})
	} else {
		rep, err = ppa.RunTortureParallel(context.Background(), rc, sweep, *workers, onPoint)
	}
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("%d points: %d injected, %d detected, %d recovered, %d completed-before-failure, %d violations",
		rep.Points, rep.Injected, rep.Detected, rep.Recovered,
		rep.CompletedBeforeFailure, len(rep.Violations))
	kinds := make([]string, 0, len(rep.ByKind))
	for kind := range rep.ByKind {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds) // map order would differ run to run
	for _, kind := range kinds {
		log.Printf("  %-16s %d points", kind, rep.ByKind[kind])
	}
	if files := recorder.Files(); len(files) > 0 {
		log.Printf("%d forensic bundle(s) in %s (inspect with: ppareport forensics <file>)",
			len(files), *forensicsDir)
	}

	if *outPath != "" {
		if err := writeJSON(*outPath, rep); err != nil {
			log.Fatal(err)
		}
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := ppa.WriteMetricsJSONL(f, hub); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	if len(rep.Violations) > 0 {
		first := rep.Violations[0]
		log.Printf("shrinking first violation: %v", first.Point)
		min, err := ppa.ShrinkTorturePoint(rc, first.Point, *minCycle)
		if err != nil {
			log.Printf("shrink failed: %v", err)
			min = first.Point
		}
		log.Printf("minimal reproducer: %v (replay with -replay <file>)", min)
		path := *reproPath
		if path == "" {
			path = "ppatorture-repro.json"
		}
		if err := writeJSON(path, min); err != nil {
			log.Fatal(err)
		}
		log.Printf("reproducer written to %s", path)
		os.Exit(1)
	}
}

// fabricOptions parameterizes a distributed (-fabric) sweep.
type fabricOptions struct {
	listen   string
	manifest string
	unit     int
	workers  int
	hub      *obs.Hub
	spec     fabric.Spec
	// traceOut, when non-empty, receives the merged fleet Chrome trace
	// after the sweep; forensicsDir receives bundles workers ship back.
	traceOut     string
	forensicsDir string
}

// runFabric serves the sweep as a fabric coordinator on opt.listen and
// chews units with one in-process worker, so `ppatorture -fabric :7077`
// makes progress on its own while external `ppafabric work` processes —
// on this host or others — join the same sweep. The merged report comes
// back through the coordinator's deterministic point-ordered merge, so
// the rest of main (report, metrics, shrink, exit code) is identical to
// the single-process path.
func runFabric(opt fabricOptions) (*ppa.TortureReport, error) {
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:         opt.spec,
		ManifestPath: opt.manifest,
		Hub:          opt.hub,
		Log:          log.Default(),
		ForensicsDir: opt.forensicsDir,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	srv, err := coord.Serve(opt.listen)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	log.Printf("fabric coordinator on http://%s (sweep %.12s…, %d units; join with: ppafabric work -coordinator http://<host>%s)",
		srv.Addr(), coord.SpecHash(), coord.Units(), portSuffix(srv.Addr()))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workerErr error
	go func() {
		_, werr := fabric.RunWorker(ctx, fabric.WorkerConfig{
			Coordinator: "http://" + loopback(srv.Addr()),
			Name:        "ppatorture-local",
			Parallel:    opt.workers,
			Log:         log.Default(),
		})
		if werr != nil && ctx.Err() == nil {
			workerErr = werr
			cancel()
		}
	}()
	rep, err := coord.Wait(ctx)
	if err != nil {
		if workerErr != nil {
			return nil, workerErr
		}
		return nil, err
	}
	// Linger before the deferred server close: external workers that were
	// idle-polling when the last unit landed learn the sweep is done from
	// their next lease attempt instead of hitting a dead socket.
	time.Sleep(3 * fabric.DefaultRetry)
	if opt.traceOut != "" {
		f, err := os.Create(opt.traceOut)
		if err != nil {
			return nil, err
		}
		if err := coord.WriteFleetTrace(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		log.Printf("fleet trace written to %s (%d events dropped)", opt.traceOut, coord.TraceDropped())
	}
	if files := coord.BundleFiles(); len(files) > 0 {
		log.Printf("%d forensic bundle(s) in %s (inspect with: ppareport forensics <file>)",
			len(files), opt.forensicsDir)
	}
	return rep, nil
}

// loopback rewrites an unspecified listen host (":7077", "[::]:7077") to a
// dialable loopback address for the in-process worker.
func loopback(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return addr
}

// portSuffix extracts ":port" for the join hint.
func portSuffix(addr string) string {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return ""
	}
	return ":" + port
}

// replay re-runs a saved reproducer point and reports its verdict.
func replay(rc ppa.RunConfig, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var p ppa.TorturePoint
	if err := json.Unmarshal(blob, &p); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	out, err := ppa.RunTorturePoint(rc, p)
	if err != nil {
		return err
	}
	blob, _ = json.MarshalIndent(out, "", "  ")
	fmt.Println(string(blob))
	if out.Violation != "" {
		os.Exit(1)
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
