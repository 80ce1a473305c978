// Command ppalitmus is the Px86 persistency-model conformance gate:
// generate small concurrent persist litmus tests, solve each test's
// allowed-outcome set under the axiomatic model, and run the real
// simulator through every test under perturbed schedules and the lockstep
// oracle, failing on any NVM accept-stream outcome the model forbids and on
// any persist-order violation or divergence the oracle latches.
//
// Usage:
//
//	ppalitmus generate -count 200 -seed 7 -out corpus.litmus
//	ppalitmus run -corpus corpus.litmus -iters 50 -out report.json
//	ppalitmus run -corpus builtin               # the curated corpus
//	ppalitmus run -corpus testdata/ -v -serve :8077
//	ppalitmus explain -corpus corpus.litmus -test g0007
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ppa"
	"ppa/internal/fabric"
	"ppa/internal/litmus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppalitmus: ")

	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		log.Printf("unknown subcommand %q", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ppalitmus generate -count N -seed S [-cores 2..4] [-out file]
  ppalitmus run -corpus <file|dir|builtin> [-iters N] [-seed S] [-maxcycles N]
                [-scheme name] [-out report.json] [-serve addr] [-v]
  ppalitmus explain -corpus <file|dir|builtin> -test <name>`)
}

// validateCores rejects core counts outside the format's 2–4 band (0 keeps
// the generator's mixed-width default).
func validateCores(n int) error {
	if n != 0 && (n < 2 || n > litmus.MaxCores) {
		return &fabric.FlagError{Flag: "cores", Value: fmt.Sprint(n),
			Reason: fmt.Sprintf("must be 0 (mixed) or 2..%d", litmus.MaxCores)}
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	count := fs.Int("count", 200, "number of tests to generate")
	seed := fs.Uint64("seed", 1, "deterministic generator seed")
	cores := fs.Int("cores", 0, "fixed core count (0 = mix of 2-4)")
	out := fs.String("out", "", "write the corpus here (default stdout)")
	fs.Parse(args)

	if *count < 1 {
		return &fabric.FlagError{Flag: "count", Value: fmt.Sprint(*count), Reason: "must be >= 1"}
	}
	if err := validateCores(*cores); err != nil {
		return err
	}
	tests := litmus.Generate(litmus.GenOptions{Seed: *seed, Count: *count, Cores: *cores})
	text := litmus.EncodeCorpus(tests)
	if *out == "" {
		fmt.Print(text)
		return nil
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %d tests to %s", len(tests), *out)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	corpus := fs.String("corpus", "", "corpus file, directory of .litmus files, or \"builtin\"")
	iters := fs.Int("iters", 50, "perturbed schedules per test")
	seed := fs.Uint64("seed", 1, "perturbation seed")
	maxCycles := fs.Uint64("maxcycles", 50_000, "cycle bound per schedule")
	schemeFlag := fs.String("scheme", "ppa", "persistence scheme to run the corpus under (any name from the scheme zoo)")
	out := fs.String("out", "", "write the corpus report as JSON")
	serveAddr := fs.String("serve", "", "serve live observability over HTTP (endpoints /metrics, /snapshot.json); litmus.* counters tick per test")
	forensicsDir := fs.String("forensics", "", "capture a flight-recorder bundle (trace tail + metrics + NVM accept tail) into this directory for each test with forbidden outcomes; inspect with `ppareport forensics <file>`")
	verbose := fs.Bool("v", false, "print every test's outcome table")
	fs.Parse(args)

	if *iters < 1 {
		return &fabric.FlagError{Flag: "iters", Value: fmt.Sprint(*iters), Reason: "must be >= 1"}
	}
	tests, err := loadCorpus(*corpus)
	if err != nil {
		return err
	}

	hub := ppa.NewObsHub(0)
	if *serveAddr != "" {
		srv, err := ppa.ServeObs(*serveAddr, hub)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("serving observability on http://%s (/metrics /snapshot.json)", srv.Addr())
	}
	var recorder *ppa.ForensicsRecorder
	if *forensicsDir != "" {
		recorder = ppa.NewForensicsRecorder(*forensicsDir, 0)
	}
	schemeCfg, err := ppa.SchemeConfig(ppa.Scheme(*schemeFlag))
	if err != nil {
		return &fabric.FlagError{Flag: "scheme", Value: *schemeFlag, Reason: "unknown scheme"}
	}
	opt := litmus.RunOptions{
		Schedules: *iters,
		Seed:      *seed,
		MaxCycles: *maxCycles,
		Scheme:    &schemeCfg,
		Obs:       hub,
		Forensics: recorder,
	}
	log.Printf("running %d tests x %d schedules (seed %d, scheme %s)", len(tests), *iters, *seed, *schemeFlag)

	rep, err := litmus.RunCorpus(tests, opt, func(res *litmus.TestResult) {
		if *verbose || len(res.Forbidden) > 0 {
			log.Print(litmus.Summarize(res))
		}
	})
	if err != nil {
		return err
	}
	log.Printf("%d tests, %d schedules: %d forbidden outcomes; coverage %d/%d allowed outcomes observed (%.0f%%)",
		rep.TotalTests, rep.TotalSchedules, rep.TotalForbidden,
		rep.ObservedTotal, rep.AllowedTotal, 100*rep.Coverage)
	if files := recorder.Files(); len(files) > 0 {
		log.Printf("%d forensic bundle(s) in %s (inspect with: ppareport forensics <file>)",
			len(files), *forensicsDir)
	}

	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return err
		}
		log.Printf("report written to %s", *out)
	}

	if f := rep.FirstForbidden(); f != nil {
		log.Printf("FORBIDDEN: %s", f)
		if t := findTest(tests, f.Test); t != nil {
			min := litmus.Shrink(t, opt)
			log.Printf("minimal reproducer:\n%s", litmus.Encode(min))
		}
		os.Exit(1)
	}
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	corpus := fs.String("corpus", "", "corpus file, directory of .litmus files, or \"builtin\"")
	name := fs.String("test", "", "test name to explain")
	fs.Parse(args)

	tests, err := loadCorpus(*corpus)
	if err != nil {
		return err
	}
	if *name == "" {
		return &fabric.FlagError{Flag: "test", Value: "", Reason: "name one of: " + strings.Join(litmus.Names(tests), " ")}
	}
	t := findTest(tests, *name)
	if t == nil {
		return &fabric.FlagError{Flag: "test", Value: *name, Reason: "not in the corpus; have: " + strings.Join(litmus.Names(tests), " ")}
	}
	c, err := litmus.Compile(t)
	if err != nil {
		return err
	}
	fmt.Print(litmus.Encode(t))
	fmt.Printf("\naddress slots:\n")
	for i, a := range c.Addrs {
		fmt.Printf("  slot %d -> %#x\n", i, a)
	}
	fmt.Printf("\nper-core persist events (stores in program order, b = barrier):\n")
	for ci, cp := range c.Model.Cores {
		fmt.Printf("  p%d:", ci)
		bi := 0
		for si, s := range cp.Stores {
			for bi < len(cp.Barriers) && cp.Barriers[bi] <= si {
				fmt.Printf(" |b|")
				bi++
			}
			fmt.Printf(" [%#x]<-%#x", s.Addr, s.Val)
		}
		for bi < len(cp.Barriers) {
			fmt.Printf(" |b|")
			bi++
		}
		fmt.Println()
	}
	fmt.Printf("\npersist-order edges (s_i must be durable before s_j):\n")
	edges := 0
	for ci, cp := range c.Model.Cores {
		for i := range cp.Stores {
			for j := i + 1; j < len(cp.Stores); j++ {
				if cp.Ordered(i, j) {
					fmt.Printf("  p%d: store %d ([%#x]<-%#x) < store %d ([%#x]<-%#x)\n",
						ci, i, cp.Stores[i].Addr, cp.Stores[i].Val,
						j, cp.Stores[j].Addr, cp.Stores[j].Val)
					edges++
				}
			}
		}
	}
	if edges == 0 {
		fmt.Println("  (none: every persist interleaving is legal)")
	}
	fmt.Printf("\nsolved %d persist configurations\n", c.Model.Configs())
	fmt.Printf("\nallowed states (%d; * also legal once fully drained):\n", len(c.Model.Outcomes()))
	finals := make(map[string]bool)
	for _, k := range c.Model.FinalOutcomes() {
		finals[k] = true
	}
	for _, k := range c.Model.Outcomes() {
		mark := " "
		if finals[k] {
			mark = "*"
		}
		fmt.Printf("  %s %s\n", mark, k)
	}
	return nil
}

// loadCorpus reads a corpus from a file, a directory of .litmus files, or
// the built-in curated corpus ("builtin").
func loadCorpus(path string) ([]*litmus.Test, error) {
	if path == "" {
		return nil, &fabric.FlagError{Flag: "corpus", Value: "", Reason: "required: a corpus file, a directory of .litmus files, or \"builtin\""}
	}
	if path == "builtin" {
		return litmus.ConformanceCorpus(), nil
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, &fabric.FlagError{Flag: "corpus", Value: path, Reason: err.Error()}
	}
	if !info.IsDir() {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return litmus.DecodeCorpus(string(blob))
	}
	files, err := filepath.Glob(filepath.Join(path, "*.litmus"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, &fabric.FlagError{Flag: "corpus", Value: path, Reason: "directory contains no .litmus files"}
	}
	sort.Strings(files)
	var parts []string
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		parts = append(parts, string(blob))
	}
	return litmus.DecodeCorpus(strings.Join(parts, "\n"))
}

func findTest(tests []*litmus.Test, name string) *litmus.Test {
	for _, t := range tests {
		if t.Name == name {
			return t
		}
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
