package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"ppa/internal/forensics"
	"ppa/internal/obs"
)

// runForensics implements `ppareport forensics <bundle.ppab>...`: decode
// each flight-recorder bundle and render its correlated evidence — meta,
// divergence report, trace tail, NVM accept tail, and metrics snapshot —
// as a human-readable post-mortem.
func runForensics(args []string) int {
	fs := flag.NewFlagSet("forensics", flag.ExitOnError)
	full := fs.Bool("full", false, "print the entire trace tail and metrics snapshot instead of bounded excerpts")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ppareport forensics [-full] <bundle.ppab>...")
		fmt.Fprintln(os.Stderr, "Renders violation flight-recorder bundles written by ppatorture/ppalitmus")
		fmt.Fprintln(os.Stderr, "(-forensics) or collected by a ppafabric coordinator.")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	status := 0
	for _, path := range fs.Args() {
		blob, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppareport: %v\n", err)
			status = 1
			continue
		}
		b, err := forensics.Decode(blob)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppareport: %s: %v\n", path, err)
			status = 1
			continue
		}
		renderBundle(os.Stdout, path, b, *full)
	}
	return status
}

func renderBundle(w io.Writer, path string, b *forensics.Bundle, full bool) {
	m := b.Meta
	fmt.Fprintf(w, "# Forensic bundle: %s\n\n", path)
	fmt.Fprintf(w, "kind:    %s\n", m.Kind)
	fmt.Fprintf(w, "reason:  %s\n", m.Reason)
	if m.Verifier != "" {
		fmt.Fprintf(w, "check:   %s\n", m.Verifier)
	}
	switch {
	case m.Test != "":
		fmt.Fprintf(w, "context: litmus %s schedule=%d seed=%d\n", m.Test, m.Schedule, m.Seed)
	case m.Point != "":
		fmt.Fprintf(w, "context: %s/%s point %s\n", m.App, m.Scheme, m.Point)
	default:
		fmt.Fprintf(w, "context: %s/%s\n", m.App, m.Scheme)
	}
	fmt.Fprintf(w, "capture: cycle %d\n", m.CaptureCycle)

	if len(b.Divergence) > 0 {
		fmt.Fprintf(w, "\n## Divergence report\n\n")
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, b.Divergence, "", "  "); err == nil {
			fmt.Fprintln(w, pretty.String())
		} else {
			fmt.Fprintf(w, "%s\n", b.Divergence)
		}
	}

	fmt.Fprintf(w, "\n## Trace tail (%d of %d lifetime events)\n\n", len(b.Trace), m.TraceTotal)
	events := b.Trace
	const excerpt = 32
	if !full && len(events) > excerpt {
		fmt.Fprintf(w, "(last %d shown; -full for all %d)\n\n", excerpt, len(events))
		events = events[len(events)-excerpt:]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cycle\tdur\ttype\tcore\tname\targs")
	for _, ev := range events {
		var args bytes.Buffer
		for _, a := range ev.Args {
			if a.Key == "" {
				continue
			}
			if args.Len() > 0 {
				args.WriteByte(' ')
			}
			fmt.Fprintf(&args, "%s=%d", a.Key, a.Val)
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%d\t%s\t%s\n", ev.Cycle, ev.Dur, ev.Type, ev.Core, ev.Name, args.String())
	}
	tw.Flush()

	fmt.Fprintf(w, "\n## NVM accept tail (%d of %d lifetime accepts)\n\n", len(b.Accepts), m.AcceptTotal)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cycle\tline\twords")
	for _, a := range b.Accepts {
		var words bytes.Buffer
		for _, ww := range a.Words {
			if words.Len() > 0 {
				words.WriteByte(' ')
			}
			fmt.Fprintf(&words, "0x%x=%#x", ww.Addr, ww.Val)
		}
		fmt.Fprintf(tw, "%d\t0x%x\t%s\n", a.Cycle, a.Line, words.String())
	}
	tw.Flush()

	fmt.Fprintf(w, "\n## Metrics snapshot (%d series)\n\n", len(b.Metrics))
	metrics := append([]obs.WireMetric(nil), b.Metrics...)
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].Name < metrics[j].Name })
	shown := 0
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tkind\tvalue")
	for _, wm := range metrics {
		if !full && shown >= 24 {
			fmt.Fprintf(tw, "…\t\t(%d more; -full for all)\n", len(metrics)-shown)
			break
		}
		shown++
		switch wm.Kind {
		case "counter":
			fmt.Fprintf(tw, "%s\t%s\t%d\n", wm.Name, wm.Kind, wm.Counter)
		case "gauge":
			fmt.Fprintf(tw, "%s\t%s\t%g\n", wm.Name, wm.Kind, wm.Gauge)
		case "histogram":
			if wm.Hist != nil {
				fmt.Fprintf(tw, "%s\t%s\tcount=%d sum=%g min=%g max=%g\n",
					wm.Name, wm.Kind, wm.Hist.Count, wm.Hist.Sum, wm.Hist.Min, wm.Hist.Max)
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}
