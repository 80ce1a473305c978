package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"ppa"
)

// The manifest is the coordinator's durable ledger: an append-only JSONL
// file with a header line binding it to a spec hash, then one line per
// completed unit carrying the unit's outcomes. A coordinator that dies
// mid-sweep reopens the manifest at startup, replays the completed units
// into its state, and only dispatches the remainder — no finished
// simulation work is ever redone. A torn final line (the coordinator was
// killed mid-append) is detected and dropped: that unit simply runs
// again, which is safe because units are deterministic.

// manifestVersion is bumped if the ledger format ever changes shape:
// version 2 records each point's whole ppa.CrashVerdict.
const manifestVersion = 2

type manifestHeader struct {
	Kind     string `json:"kind"` // "ppa-fabric-manifest"
	Version  int    `json:"version"`
	SpecHash string `json:"spec_hash"`
	Units    int    `json:"units"`
}

type manifestEntry struct {
	Kind     string              `json:"kind"` // "unit"
	UnitID   string              `json:"unit_id"`
	Index    int                 `json:"index"`
	Worker   string              `json:"worker,omitempty"`
	Outcomes []*ppa.CrashVerdict `json:"outcomes"`
}

// Manifest is the open ledger. All methods are safe for concurrent use.
type Manifest struct {
	path string
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	done map[string]*manifestEntry // unit ID -> recorded completion
}

// OpenManifest opens (or creates) the ledger at path for the sweep with
// the given spec hash and unit count. An existing file whose header names
// a different spec hash yields a *SpecMismatchError — resuming someone
// else's sweep would merge incompatible point lists. Corrupt or truncated
// trailing entries are dropped with their units left incomplete.
func OpenManifest(path, specHash string, units int) (*Manifest, error) {
	m := &Manifest{path: path, done: make(map[string]*manifestEntry)}

	blob, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("fabric: open manifest: %w", err)
	}
	existing := err == nil && len(blob) > 0
	if existing {
		good, err := m.load(blob, specHash)
		if err != nil {
			return nil, err
		}
		if good < int64(len(blob)) {
			// A torn tail from a killed coordinator: truncate to the last
			// intact entry, or later appends would land after the garbage
			// and be dropped on the next restart.
			if err := os.Truncate(path, good); err != nil {
				return nil, fmt.Errorf("fabric: manifest truncate torn tail: %w", err)
			}
		}
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: open manifest: %w", err)
	}
	m.f = f
	m.w = bufio.NewWriter(f)
	if !existing {
		hdr := manifestHeader{Kind: "ppa-fabric-manifest", Version: manifestVersion, SpecHash: specHash, Units: units}
		if err := m.append(hdr); err != nil {
			f.Close()
			return nil, err
		}
	}
	return m, nil
}

// load replays an existing ledger, validating the header against
// specHash. It returns the byte offset just past the last intact record,
// so the caller can truncate a torn tail (the coordinator was killed
// mid-append; that unit simply re-runs).
func (m *Manifest) load(blob []byte, specHash string) (int64, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	var hdr manifestHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, fmt.Errorf("fabric: manifest %s: unreadable header: %w", m.path, err)
	}
	if hdr.Kind != "ppa-fabric-manifest" || hdr.Version != manifestVersion {
		return 0, fmt.Errorf("fabric: manifest %s: not a v%d fabric manifest", m.path, manifestVersion)
	}
	if hdr.SpecHash != specHash {
		return 0, &SpecMismatchError{Where: "manifest " + m.path, Want: specHash, Got: hdr.SpecHash}
	}
	good := dec.InputOffset()
	for {
		var e manifestEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return int64(len(blob)), nil
			}
			return good, nil
		}
		good = dec.InputOffset()
		if e.Kind != "unit" || e.UnitID == "" {
			continue
		}
		entry := e
		m.done[e.UnitID] = &entry
	}
}

// append writes one JSONL record and syncs it to disk: a recorded unit
// must survive the coordinator being killed the next instant.
func (m *Manifest) append(v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := m.w.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("fabric: manifest append: %w", err)
	}
	if err := m.w.Flush(); err != nil {
		return fmt.Errorf("fabric: manifest append: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("fabric: manifest sync: %w", err)
	}
	return nil
}

// Record durably logs a completed unit. Recording an already-done unit is
// a no-op (late duplicate completions after a re-lease).
func (m *Manifest) Record(u Unit, worker string, outcomes []*ppa.CrashVerdict) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.done[u.ID]; ok {
		return nil
	}
	e := &manifestEntry{Kind: "unit", UnitID: u.ID, Index: u.Index, Worker: worker, Outcomes: outcomes}
	if err := m.append(e); err != nil {
		return err
	}
	m.done[u.ID] = e
	return nil
}

// Completed returns the recorded outcomes for a unit ID (nil when the
// unit is not in the ledger).
func (m *Manifest) Completed(unitID string) []*ppa.CrashVerdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.done[unitID]
	if !ok {
		return nil
	}
	return e.Outcomes
}

// Len returns how many units the ledger holds.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.done)
}

// Close releases the file handle (recorded entries are already synced).
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	err := m.w.Flush()
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	return err
}
