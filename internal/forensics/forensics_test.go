package forensics

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/obs"
)

func sampleBundle() *Bundle {
	hub := obs.NewHub(16)
	hub.Registry().Counter("torture.points").Add(7)
	hub.Registry().Histogram("persist.drain-cycles").Observe(12)
	hub.Tracer().Emit(obs.Event{Cycle: 100, Type: obs.EvComplete, Dur: 5, Core: 0, Name: "region", Cat: "region"})
	hub.Tracer().Emit(obs.Event{Cycle: 108, Type: obs.EvInstant, Core: obs.SystemTrack, Name: "power-failure", Cat: "failure",
		Args: [obs.MaxEventArgs]obs.Arg{{Key: "cycle", Val: 108}}})

	tail := NewAcceptTail(8)
	var lw isa.LineWords
	lw.Set(0x40, 0xdead)
	lw.Set(0x48, 0xbeef)
	tail.Observe(90, 0x40, &lw)
	tail.Observe(95, 0x80, nil)

	b := &Bundle{
		Meta: Meta{
			Kind:     KindTortureViolation,
			Reason:   "recovered image dropped a committed store",
			Verifier: "committed-prefix",
			App:      "mcf", Scheme: "ppa",
			Point:        "fail@1200 torn-word seed=3",
			CaptureCycle: 1200,
		},
		Divergence: json.RawMessage(`{"core":0,"cycle":77,"field":"pc"}`),
	}
	Snapshot(hub, tail, b)
	return b
}

func TestBundleRoundTrip(t *testing.T) {
	b := sampleBundle()
	blob := b.Encode()
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, b.Meta) {
		t.Errorf("meta round trip:\n got %+v\nwant %+v", got.Meta, b.Meta)
	}
	if !reflect.DeepEqual(got.Trace, b.Trace) {
		t.Errorf("trace round trip: got %d events %+v", len(got.Trace), got.Trace)
	}
	if !reflect.DeepEqual(got.Metrics, b.Metrics) {
		t.Errorf("metrics round trip: got %+v", got.Metrics)
	}
	if !reflect.DeepEqual(got.Accepts, b.Accepts) {
		t.Errorf("accepts round trip: got %+v", got.Accepts)
	}
	if string(got.Divergence) != string(b.Divergence) {
		t.Errorf("divergence round trip: got %s", got.Divergence)
	}
	if b.Meta.TraceTotal != 2 || b.Meta.AcceptTotal != 2 {
		t.Errorf("snapshot totals: trace=%d accept=%d", b.Meta.TraceTotal, b.Meta.AcceptTotal)
	}
}

func TestBundleDecodeHostile(t *testing.T) {
	blob := sampleBundle().Encode()

	if _, err := Decode(blob[:len(blob)-3]); !errors.Is(err, checkpoint.ErrTruncated) && !errors.Is(err, checkpoint.ErrChecksum) {
		t.Errorf("truncated: err = %v", err)
	}

	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Decode(flipped); err == nil {
		t.Error("bit flip: decode accepted a corrupted bundle")
	}

	wrongMagic := append([]byte(nil), blob...)
	// The first section's payload (magic) starts after the 4-byte length;
	// rewriting it invalidates the CRC, which is also an acceptable reject.
	wrongMagic[4] ^= 0xff
	if _, err := Decode(wrongMagic); err == nil {
		t.Error("wrong magic: decode accepted")
	}

	if _, err := Decode(append(blob, blob...)); err == nil {
		t.Error("trailing bytes: decode accepted")
	}

	if _, err := Decode(nil); err == nil {
		t.Error("empty input: decode accepted")
	}
}

func TestAcceptTailWraps(t *testing.T) {
	tail := NewAcceptTail(4)
	for i := 0; i < 10; i++ {
		tail.Observe(uint64(i), uint64(i)*64, nil)
	}
	got := tail.Tail()
	if len(got) != 4 {
		t.Fatalf("tail len = %d, want 4", len(got))
	}
	for i, a := range got {
		if want := uint64(6 + i); a.Cycle != want {
			t.Errorf("tail[%d].Cycle = %d, want %d", i, a.Cycle, want)
		}
	}
	if tail.Total() != 10 {
		t.Errorf("total = %d, want 10", tail.Total())
	}
}

func TestRecorderCapAndFiles(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(dir, 2)
	for i := 0; i < 5; i++ {
		if err := rec.Capture(sampleBundle()); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(rec.Bundles()); n != 2 {
		t.Errorf("kept %d bundles, want 2", n)
	}
	if rec.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", rec.Dropped())
	}
	files := rec.Files()
	if len(files) != 2 {
		t.Fatalf("wrote %d files, want 2: %v", len(files), files)
	}
	for _, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(blob); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	if err := rec.Capture(&Bundle{}); err != nil {
		t.Error(err)
	}
	if rec.Bundles() != nil || rec.Files() != nil || rec.Dropped() != 0 {
		t.Error("nil recorder leaked state")
	}
	var tail *AcceptTail
	tail.Observe(1, 2, nil)
	if tail.Tail() != nil || tail.Total() != 0 {
		t.Error("nil tail leaked state")
	}
}
