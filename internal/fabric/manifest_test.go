package fabric

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ppa"
)

func testUnits(t *testing.T) (Spec, []Unit) {
	t.Helper()
	spec := Spec{App: "mcf", Scheme: "ppa", Insts: 500, Points: 20, Seed: 3, MinCycle: 200, MaxCycle: 1500, UnitSize: 5}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	return spec, units
}

func fakeOutcomes(u Unit, spec Spec, violate bool) []*ppa.CrashVerdict {
	points, _ := spec.PointList()
	outs := make([]*ppa.CrashVerdict, u.Range.Len())
	for i := range outs {
		outs[i] = &ppa.CrashVerdict{Point: points[u.Range.Start+i], Recovered: true}
		if violate && i == 0 {
			outs[i].Violation = "synthetic"
		}
	}
	return outs
}

// TestManifestRoundTrip pins the ledger's core contract: units recorded
// by one manifest handle are visible — outcomes intact — after reopening
// the same file, and double-recording is a no-op.
func TestManifestRoundTrip(t *testing.T) {
	spec, units := testUnits(t)
	path := filepath.Join(t.TempDir(), "sweep.manifest")

	m1, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Record(units[0], "w1", fakeOutcomes(units[0], spec, false)); err != nil {
		t.Fatal(err)
	}
	if err := m1.Record(units[2], "w2", fakeOutcomes(units[2], spec, true)); err != nil {
		t.Fatal(err)
	}
	// Duplicate record: no-op, no corruption.
	if err := m1.Record(units[0], "w3", fakeOutcomes(units[0], spec, false)); err != nil {
		t.Fatal(err)
	}
	if m1.Len() != 2 {
		t.Fatalf("ledger holds %d units, want 2", m1.Len())
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 2 {
		t.Fatalf("reopened ledger holds %d units, want 2", m2.Len())
	}
	if outs := m2.Completed(units[2].ID); len(outs) != units[2].Range.Len() || outs[0].Violation != "synthetic" {
		t.Fatalf("unit 2 outcomes mangled on reload: %+v", outs)
	}
	if m2.Completed(units[1].ID) != nil {
		t.Fatal("never-recorded unit reported complete")
	}
}

// TestManifestSpecMismatch pins that a ledger from a different sweep is
// refused with the typed error, not merged.
func TestManifestSpecMismatch(t *testing.T) {
	spec, units := testUnits(t)
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	m, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	other := spec
	other.Seed = 99
	_, err = OpenManifest(path, other.Hash(), len(units))
	var mismatch *SpecMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("mismatched manifest opened with err=%v, want *SpecMismatchError", err)
	}
}

// TestManifestTornTail pins kill-resilience of the ledger itself: a
// coordinator killed mid-append leaves a torn final line, which reopening
// must drop (that unit re-runs) while keeping every intact entry.
func TestManifestTornTail(t *testing.T) {
	spec, units := testUnits(t)
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	m, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Record(units[0], "w1", fakeOutcomes(units[0], spec, false)); err != nil {
		t.Fatal(err)
	}
	if err := m.Record(units[1], "w1", fakeOutcomes(units[1], spec, false)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// Tear the last entry mid-line.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-37], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatalf("torn manifest refused entirely: %v", err)
	}
	defer m2.Close()
	if m2.Len() != 1 {
		t.Fatalf("torn ledger holds %d units, want 1 (intact entry kept, torn tail dropped)", m2.Len())
	}
	if m2.Completed(units[0].ID) == nil {
		t.Fatal("intact entry lost")
	}
	if m2.Completed(units[1].ID) != nil {
		t.Fatal("torn entry survived")
	}
	// And the reopened ledger must still accept the re-run unit — durably:
	// a third open (the second "restart") must see both entries, which is
	// what forces the torn tail to be truncated rather than skipped.
	if err := m2.Record(units[1], "w2", fakeOutcomes(units[1], spec, false)); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if m3.Len() != 2 {
		t.Fatalf("second restart lost entries: %d units, want 2", m3.Len())
	}
	if m3.Completed(units[1].ID) == nil {
		t.Fatal("re-recorded unit lost on second restart")
	}
}

// TestManifestEmptyFile pins that a zero-byte file (created, then killed
// before the header flushed) behaves as a fresh ledger.
func TestManifestEmptyFile(t *testing.T) {
	spec, units := testUnits(t)
	path := filepath.Join(t.TempDir(), "sweep.manifest")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatalf("empty manifest refused: %v", err)
	}
	defer m.Close()
	if m.Len() != 0 {
		t.Fatalf("empty ledger holds %d units", m.Len())
	}
	if err := m.Record(units[0], "w1", fakeOutcomes(units[0], spec, false)); err != nil {
		t.Fatal(err)
	}
	// Reopen: header must have been written on the empty-file path.
	m.Close()
	m2, err := OpenManifest(path, spec.Hash(), len(units))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 1 {
		t.Fatalf("reopened ledger holds %d units, want 1", m2.Len())
	}
}
