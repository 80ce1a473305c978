// Package fault defines the adversarial fault model for the
// crash-consistency torture harness: the three classes of nastiness the
// paper's recovery protocol must survive — a capacitor browning out mid
// JIT dump (torn checkpoint), a second outage striking during recovery
// itself (nested failure), and NVM-level damage to the persisted
// checkpoint region (bit flips, torn 8-byte words, lost tails). Faults are
// plain values, deterministic in their parameters, so every torture point
// is replayable from its description alone.
package fault

import (
	"fmt"

	"ppa/internal/obs"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// None injects nothing: the control arm of a sweep.
	None Kind = iota
	// TornCheckpoint models the residual-energy reservoir running dry mid
	// JIT dump. Param is the reservoir's capacity in permille of the full
	// dump's energy demand, reduced mod 1000, so the dump always tears.
	TornCheckpoint
	// NestedOutage models power failing again during recovery: Param is
	// how many CSQ entries replay before the second outage. Recovery
	// re-enters from the top; idempotent replay must converge. The fault
	// never damages NVM.
	NestedOutage
	// BitFlip flips one bit of the persisted checkpoint region, selected
	// by Param mod the region's bit count.
	BitFlip
	// TornWord models a torn 8-byte NVM word write: word Param (mod the
	// region's word count) persists a seeded prefix of garbage bytes over
	// its old value.
	TornWord
	// DropTail truncates the persisted checkpoint region by
	// 1 + Param mod len bytes — the unflushed tail of an interrupted
	// stream.
	DropTail

	numKinds
)

// Kinds lists every injectable kind, sweep order. None is excluded.
var Kinds = []Kind{TornCheckpoint, NestedOutage, BitFlip, TornWord, DropTail}

var kindNames = [numKinds]string{
	None:           "none",
	TornCheckpoint: "torn-checkpoint",
	NestedOutage:   "nested-outage",
	BitFlip:        "bit-flip",
	TornWord:       "torn-word",
	DropTail:       "drop-tail",
}

// String returns the kind's stable sweep/CLI name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a CLI name back to its Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return None, fmt.Errorf("fault: unknown kind %q", s)
}

// Fault is one injection: a kind plus the deterministic parameters that
// fully reproduce it.
type Fault struct {
	// Kind selects the fault class.
	Kind Kind `json:"kind"`
	// Param is the kind-specific knob (see the Kind constants); it is
	// reduced modulo the applicable range, so any value is legal.
	Param uint64 `json:"param"`
	// Seed feeds the garble generator for TornWord.
	Seed int64 `json:"seed"`
}

// String renders the fault for logs and reproducer output.
func (f Fault) String() string {
	if f.Kind == None {
		return "none"
	}
	return fmt.Sprintf("%s(param=%d,seed=%d)", f.Kind, f.Param, f.Seed)
}

// Corrupting reports whether the fault can damage the persisted checkpoint
// image — in which case recovery must detect it with a typed error, never
// silently use it. NestedOutage interrupts recovery without touching NVM;
// it must instead converge to a consistent state.
func (f Fault) Corrupting() bool {
	switch f.Kind {
	case TornCheckpoint, BitFlip, TornWord, DropTail:
		return true
	}
	return false
}

// ByteLevel reports whether Mutate carries the fault (NVM-region damage),
// as opposed to kinds modeled at crash or recovery time.
func (f Fault) ByteLevel() bool {
	switch f.Kind {
	case BitFlip, TornWord, DropTail:
		return true
	}
	return false
}

// Mutate applies a byte-level fault to a copy of the checkpoint region and
// returns it (nil for non-byte-level kinds or an empty region — no
// change). The result is a pure function of the fault and the input, and
// for a non-empty region every byte-level kind is guaranteed to actually
// change it.
func (f Fault) Mutate(region []byte) []byte {
	if len(region) == 0 {
		return nil
	}
	switch f.Kind {
	case BitFlip:
		out := append([]byte(nil), region...)
		bit := f.Param % uint64(len(out)*8)
		out[bit/8] ^= 1 << (bit % 8)
		return out

	case TornWord:
		out := append([]byte(nil), region...)
		words := (len(out) + 7) / 8
		w := int(f.Param % uint64(words))
		start := w * 8
		end := start + 8
		if end > len(out) {
			end = len(out)
		}
		// A torn 8-byte write persists a prefix of the new (garbage) value
		// over the old bytes; the suffix keeps its old contents.
		k, garbage := tornGarbage(f.Seed ^ int64(w)<<32)
		changed := false
		for i := start; i < end && i < start+k; i++ {
			b := garbage[i-start]
			changed = changed || b != out[i]
			out[i] = b
		}
		if !changed {
			out[start] ^= 0xFF
		}
		return out

	case DropTail:
		n := 1 + int(f.Param%uint64(len(region)))
		out := make([]byte, len(region)-n)
		copy(out, region)
		return out
	}
	return nil
}

// Injector wires fault injection into the observability layer: every
// injection and every detection is counted and traced, so a torture sweep
// is auditable from its metrics alone. A nil Injector (or one over a nil
// hub) is a no-op.
type Injector struct {
	hub      *obs.Hub
	injected *obs.Counter
	detected *obs.Counter
}

// NewInjector builds an injector over the hub (which may be nil).
func NewInjector(hub *obs.Hub) *Injector {
	return &Injector{
		hub:      hub,
		injected: hub.Registry().Counter("fault.injected"),
		detected: hub.Registry().Counter("fault.detected"),
	}
}

// Injected records that the fault actually struck at the given cycle.
func (in *Injector) Injected(f Fault, cycle uint64) {
	if in == nil {
		return
	}
	in.injected.Inc()
	in.hub.Tracer().Emit(obs.Event{
		Cycle: cycle,
		Type:  obs.EvInstant,
		Core:  obs.SystemTrack,
		Name:  "fault-inject",
		Cat:   "fault",
		Args: [obs.MaxEventArgs]obs.Arg{
			{Key: "kind", Val: int64(f.Kind)},
			{Key: "param", Val: int64(f.Param)},
		},
	})
}

// Detected records that recovery refused the damaged checkpoint at the
// given cycle — the desired end state for every corrupting fault.
func (in *Injector) Detected(f Fault, cycle uint64) {
	if in == nil {
		return
	}
	in.detected.Inc()
	in.hub.Tracer().Emit(obs.Event{
		Cycle: cycle,
		Type:  obs.EvInstant,
		Core:  obs.SystemTrack,
		Name:  "fault-detect",
		Cat:   "fault",
		Args: [obs.MaxEventArgs]obs.Arg{
			{Key: "kind", Val: int64(f.Kind)},
			{Key: "param", Val: int64(f.Param)},
		},
	})
}
