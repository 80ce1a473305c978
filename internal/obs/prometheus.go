package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for the metrics registry.
//
// Registry names are dotted simulator paths ("persist.acked-stores",
// "core0.regions"); the writer mangles them into Prometheus metric names by
// prefixing "ppa_" and mapping every character outside [a-zA-Z0-9_] to '_'.
// A name may carry labels after a '|' separator as comma-separated k=v
// pairs — "region.barrier-total|cause=csq-full" exposes as
// ppa_region_barrier_total{cause="csq-full"} — which is how per-cause
// counters share one Prometheus metric family. Histograms expose as
// summaries with quantile="0.5"/"0.95"/"0.99" sample lines plus _sum and
// _count.

// promLabelSep splits a registry name from its label suffix.
const promLabelSep = "|"

// promName mangles a registry name (without label suffix) into a
// Prometheus-valid metric name.
func promName(base string) string {
	var b strings.Builder
	b.Grow(len(base) + 4)
	b.WriteString("ppa_")
	for i := 0; i < len(base); i++ {
		c := base[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders the label suffix of a registry name ("k=v,k2=v2") as a
// Prometheus label list without braces, escaping values. Extra labels are
// appended verbatim.
func promLabels(suffix string, extra ...string) string {
	var parts []string
	if suffix != "" {
		for _, kv := range strings.Split(suffix, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			parts = append(parts, promName(k)[len("ppa_"):]+`="`+promEscape(v)+`"`)
		}
	}
	parts = append(parts, extra...)
	return strings.Join(parts, ",")
}

func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promKind maps a Sample kind to the Prometheus TYPE keyword.
func promKind(kind string) string {
	if kind == "histogram" {
		return "summary"
	}
	return kind
}

// WritePrometheusSamples writes samples (as produced by Snapshot or
// SnapshotLive) in Prometheus text exposition format. Samples whose names
// share a base (differing only in the '|' label suffix) are grouped into one
// metric family under a single TYPE line.
func WritePrometheusSamples(w io.Writer, samples []Sample) error {
	// Group by exposed family name, keeping first-seen order of families so
	// labeled variants stay contiguous even if raw-name sort interleaves an
	// unrelated name between them.
	type family struct {
		name    string
		kind    string
		samples []Sample
	}
	byName := make(map[string]*family)
	var order []string
	for _, s := range samples {
		base, _, _ := strings.Cut(s.Name, promLabelSep)
		name := promName(base)
		f, ok := byName[name]
		if !ok {
			f = &family{name: name, kind: promKind(s.Kind)}
			byName[name] = f
			order = append(order, name)
		}
		f.samples = append(f.samples, s)
	}
	sort.Strings(order)

	for _, name := range order {
		f := byName[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.samples {
			_, suffix, _ := strings.Cut(s.Name, promLabelSep)
			if s.Kind == "histogram" {
				for _, q := range [...]struct {
					q string
					v float64
				}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
					labels := promLabels(suffix, `quantile="`+q.q+`"`)
					if _, err := fmt.Fprintf(w, "%s{%s} %s\n", f.name, labels, promFloat(q.v)); err != nil {
						return err
					}
				}
				bare := ""
				if l := promLabels(suffix); l != "" {
					bare = "{" + l + "}"
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, bare, promFloat(s.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, bare, s.Count); err != nil {
					return err
				}
				continue
			}
			bare := ""
			if l := promLabels(suffix); l != "" {
				bare = "{" + l + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, bare, promFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}
