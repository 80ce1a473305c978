package main

import (
	"fmt"
	"math"
	"time"

	"ppa/internal/stats"
)

// Layers of the traced cycle loop. The first four are called from the loop
// itself; the oracle layers are the commit sink and NVM accept observer,
// called from inside them. glue is what the loop does between those calls
// (multicore stepping, the done check, the benchmark's own sampling).
const (
	layerGlue = iota
	layerCache
	layerBackend
	layerPipeline
	layerOracleCommit
	layerOracleAccept
	numLayers
)

var layerNames = [numLayers]string{"multicore.glue", "cache.tick", "persist.backend_tick", "pipeline.step", "oracle.commit", "oracle.accept"}

// ledger accumulates inclusive span time per layer and the time of nested
// spans charged against whichever loop layer was open when they ran, so a
// layer's self time is its inclusive time minus its children's.
type ledger struct {
	epoch time.Time
	cur   int // open loop layer; child spans are charged to it
	incl  [numLayers]int64
	child [numLayers]int64
	calls [numLayers]uint64
	total int64 // loop total: wall time of every traced loop
}

func newLedger() *ledger { return &ledger{epoch: time.Now()} }

// now is a monotonic nanosecond stamp.
func (l *ledger) now() int64 { return int64(time.Since(l.epoch)) }

// span charges [start, end) to a loop layer.
func (l *ledger) span(layer int, start, end int64) {
	l.incl[layer] += end - start
	l.calls[layer]++
}

// nested charges a child span to its layer and to the open loop layer.
func (l *ledger) nested(layer int, d int64) {
	l.incl[layer] += d
	l.child[l.cur] += d
}

// self is a layer's time excluding nested spans. Glue is the loop total
// minus every loop layer's inclusive time.
func (l *ledger) self(layer int) int64 {
	if layer == layerGlue {
		g := l.total
		for i := layerCache; i <= layerPipeline; i++ {
			g -= l.incl[i]
		}
		return g - l.child[layerGlue]
	}
	return l.incl[layer] - l.child[layer]
}

// closure checks the ledger adds up: no self time is negative and the self
// times sum to the loop total.
func (l *ledger) closure() (sum int64, err error) {
	for i := 0; i < numLayers; i++ {
		s := l.self(i)
		if s < 0 {
			return 0, fmt.Errorf("layer %s has negative self time %d ns", layerNames[i], s)
		}
		sum += s
	}
	if sum != l.total {
		return sum, fmt.Errorf("layer self times sum to %d ns, loop total is %d ns", sum, l.total)
	}
	return sum, nil
}

// add folds another ledger's counts into l.
func (l *ledger) add(o *ledger) {
	for i := 0; i < numLayers; i++ {
		l.incl[i] += o.incl[i]
		l.child[i] += o.child[i]
		l.calls[i] += o.calls[i]
	}
	l.total += o.total
}

// report renders the split for the ledger line: self ms and share of total.
func (l *ledger) report() map[string]any {
	out := map[string]any{"loop_total_ms": float64(l.total) / 1e6}
	for i := 0; i < numLayers; i++ {
		s := l.self(i)
		out[layerNames[i]] = map[string]float64{
			"self_ms": float64(s) / 1e6,
			"share":   math.Round(stats.Ratio(float64(s), float64(l.total))*1e4) / 1e4,
		}
	}
	sum, err := l.closure()
	out["self_sum_ms"] = float64(sum) / 1e6
	out["closes"] = err == nil
	if err != nil {
		out["closure_error"] = err.Error()
	}
	return out
}
