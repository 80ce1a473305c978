// Recovery's NVM-truth path: after a real outage the only state that
// exists is what the JIT dump managed to push into the NVM checkpoint
// area, so recovery must start by reading that region back and proving it
// intact — not by trusting an in-memory capture. Damage is classified into
// a small typed-error taxonomy that the torture harness (and a real
// recovery firmware) can dispatch on.

package recovery

import (
	"errors"
	"fmt"

	"ppa/internal/checkpoint"
	"ppa/internal/mutation"
	"ppa/internal/nvm"
)

var (
	// ErrNoCheckpoint reports an empty NVM checkpoint area: power failed
	// before the dump FSM wrote its first word, or the area was cleared
	// after a completed recovery.
	ErrNoCheckpoint = errors.New("recovery: no checkpoint in NVM")
	// ErrTornCheckpoint reports a checkpoint whose framing is damaged —
	// truncated mid-stream, missing sections, or structurally implausible —
	// the signature of a capacitor browning out mid-dump.
	ErrTornCheckpoint = errors.New("recovery: torn checkpoint")
	// ErrChecksum reports a checkpoint that frames correctly but fails a
	// CRC — the signature of NVM-level corruption (bit flips, torn word
	// writes) inside an otherwise complete dump.
	ErrChecksum = errors.New("recovery: checkpoint checksum mismatch")
)

// IsDetection reports whether err belongs to recovery's typed detection
// taxonomy — a deliberate refusal of absent or damaged checkpoint state,
// as opposed to a simulator defect.
func IsDetection(err error) bool {
	return errors.Is(err, ErrNoCheckpoint) ||
		errors.Is(err, ErrTornCheckpoint) ||
		errors.Is(err, ErrChecksum)
}

// classify maps the checkpoint codec's error taxonomy onto recovery's:
// checksum mismatches stay checksum failures; every other defect (bad
// magic, truncation, implausible structure) presents as a torn checkpoint.
func classify(err error) error {
	if errors.Is(err, checkpoint.ErrChecksum) {
		return fmt.Errorf("%w: %v", ErrChecksum, err)
	}
	return fmt.Errorf("%w: %v", ErrTornCheckpoint, err)
}

// LoadImages reads the NVM checkpoint area and decodes every core's image,
// returning ErrNoCheckpoint / ErrTornCheckpoint / ErrChecksum when the
// region is absent or damaged. This is the entry point of the recovery
// protocol proper: everything downstream (replay, RAT rebuild, resume)
// operates only on images this function vouched for. It decodes into the
// images of into as checkpoint.DecodeAll does (nil allocates them).
func LoadImages(dev *nvm.Device, into []*checkpoint.Image) ([]*checkpoint.Image, error) {
	blob := dev.Checkpoint()
	if len(blob) == 0 {
		return nil, ErrNoCheckpoint
	}
	images, err := checkpoint.DecodeAll(into, blob)
	if err != nil {
		return nil, classify(err)
	}
	return images, nil
}

// ReplayN applies the first n CSQ entries of one core's image to the NVM
// data image (all entries when n is negative or past the end). Because
// committed stores are idempotent, a replay interrupted after k entries
// followed by a full restart writes every address its committed prefix
// owns exactly the same values — this is what makes recovery itself
// restartable under nested outages.
func ReplayN(dev *nvm.Device, im *checkpoint.Image, n int) (*Outcome, error) {
	if n < 0 || n > len(im.CSQ) {
		n = len(im.CSQ)
	}
	out := &Outcome{CoreID: im.CoreID}
	if mutation.Is(mutation.RecoveryReplayOffByOne) && n > 0 {
		// Seeded bug RecoveryReplayOffByOne: replay stops one entry short,
		// silently dropping the newest committed store.
		n--
	}
	for _, e := range im.CSQ[:n] {
		var val uint64
		if e.ValueBearing {
			val = e.Val
		} else {
			v, ok := im.RegValue(e.Phys)
			if !ok {
				return nil, fmt.Errorf("%w: core %d csq seq %d references unchecked register %v",
					ErrTornCheckpoint, im.CoreID, e.Seq, e.Phys)
			}
			val = v
		}
		dev.Image().WriteWord(e.Addr, val)
		out.ReplayedWords++
	}
	return out, nil
}
