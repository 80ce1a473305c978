// Package forensics is the violation flight recorder: when a lockstep
// divergence, torture violation, or litmus forbidden outcome fires, the
// evidence that explains it — the last trace events, the metrics registry,
// the NVM accept-stream tail, the failure point and seed, the first
// divergence — is snapshotted into one correlated, self-describing bundle
// at the instant of the failure, instead of evaporating by the time anyone
// reads the end-of-run report.
//
// A bundle travels as a single CRC-framed binary blob (the checkpoint
// package's section framing, the tree's one integrity convention), so
// fabric workers can ship bundles to the coordinator inside /v1/complete
// and CI can archive them as artifacts. `ppareport forensics <bundle>`
// renders one for a human.
package forensics

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/obs"
)

const (
	// bundleMagic opens every encoded bundle ("PPAB", little-endian).
	bundleMagic = 0x42415050
	// bundleVersion is the current encoding version.
	bundleVersion = 1

	// DefaultTraceTail is how many trailing trace events Snapshot captures.
	DefaultTraceTail = 256
	// DefaultAcceptTail is the NVM accept-stream ring capacity.
	DefaultAcceptTail = 64
	// DefaultMaxBundles caps how many bundles a Recorder keeps per run —
	// the first failures matter; a pathological sweep should not hoard
	// thousands of near-identical bundles.
	DefaultMaxBundles = 4
)

// Bundle kinds.
const (
	KindLockstepDivergence = "lockstep-divergence"
	KindTortureViolation   = "torture-violation"
	KindLitmusForbidden    = "litmus-forbidden"
)

// WordWrite is one word of an accepted NVM line.
type WordWrite struct {
	Addr uint64 `json:"addr"`
	Val  uint64 `json:"val"`
}

// Accept is one NVM accept-stream record: a line crossing the persistence
// boundary.
type Accept struct {
	Cycle uint64      `json:"cycle"`
	Line  uint64      `json:"line"`
	Words []WordWrite `json:"words,omitempty"`
}

// AcceptTail is a bounded ring over the NVM accept stream, teed off the
// device via nvm.Device.AddAcceptObserver(tail.Observe). When a violation
// fires, the tail holds the last writes that reached the persistence
// boundary — exactly the evidence a persist-ordering bug destroys by the
// end of the run.
type AcceptTail struct {
	mu    sync.Mutex
	buf   []Accept
	next  int
	wrap  bool
	total uint64
}

// NewAcceptTail returns a ring holding capacity accepts (minimum 1;
// DefaultAcceptTail when capacity <= 0).
func NewAcceptTail(capacity int) *AcceptTail {
	if capacity <= 0 {
		capacity = DefaultAcceptTail
	}
	return &AcceptTail{buf: make([]Accept, 0, capacity)}
}

// Observe records one accepted line. Its signature matches
// nvm.Device.AddAcceptObserver. Safe on a nil tail.
func (t *AcceptTail) Observe(cycle, line uint64, words *isa.LineWords) {
	if t == nil {
		return
	}
	a := Accept{Cycle: cycle, Line: line}
	if words != nil {
		words.Range(line, func(addr, val uint64) {
			a.Words = append(a.Words, WordWrite{Addr: addr, Val: val})
		})
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, a)
	} else {
		t.buf[t.next] = a
		t.wrap = true
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.total++
	t.mu.Unlock()
}

// CopyFrom makes t hold exactly src's accepts, keeping t's ring: a copied
// machine's tail continues the stream its source's tail saw. Recorded
// accepts are never modified, so their word lists are shared. Safe on nil
// tails.
func (t *AcceptTail) CopyFrom(src *AcceptTail) {
	if t == nil || src == nil {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf[:0], src.buf...)
	t.next, t.wrap, t.total = src.next, src.wrap, src.total
}

// Tail returns the buffered accepts, oldest first.
func (t *AcceptTail) Tail() []Accept {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Accept, 0, len(t.buf))
	if t.wrap {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Total returns how many accepts were ever observed, including overwritten
// ones.
func (t *AcceptTail) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Meta is a bundle's correlating context: what fired, where, and how to
// reproduce it.
type Meta struct {
	// Kind is KindLockstepDivergence, KindTortureViolation, or
	// KindLitmusForbidden.
	Kind string `json:"kind"`
	// Reason is the violation string / forbidden-outcome description.
	Reason string `json:"reason"`
	// App/Scheme identify the workload configuration.
	App    string `json:"app,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	// Point is the torture point's String() form (torture bundles).
	Point string `json:"point,omitempty"`
	// Test/Schedule/Seed identify a litmus failure's schedule.
	Test     string `json:"test,omitempty"`
	Schedule int    `json:"schedule,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// CaptureCycle is the simulation cycle at capture time.
	CaptureCycle uint64 `json:"capture_cycle,omitempty"`
	// TraceTotal/AcceptTotal are lifetime emit counts, so a reader can
	// tell how much history the bounded tails dropped.
	TraceTotal  uint64 `json:"trace_total,omitempty"`
	AcceptTotal uint64 `json:"accept_total,omitempty"`
}

// Bundle is one captured failure: meta plus the correlated evidence tails.
type Bundle struct {
	Meta Meta
	// Divergence is the oracle report JSON (lockstep captures).
	Divergence json.RawMessage
	// Trace is the last-N trace events at capture time.
	Trace []obs.Event
	// Metrics is the full metrics snapshot in mergeable wire form.
	Metrics []obs.WireMetric
	// Accepts is the NVM accept-stream tail.
	Accepts []Accept
}

// Snapshot fills b's evidence sections from the hub and accept tail (either
// may be nil). Meta.TraceTotal/AcceptTotal are set from the sources.
func Snapshot(hub *obs.Hub, tail *AcceptTail, b *Bundle) {
	if hub != nil {
		b.Trace = hub.Tracer().Recent(DefaultTraceTail)
		b.Meta.TraceTotal = hub.Tracer().Total()
		b.Metrics = hub.Registry().Export()
	}
	if tail != nil {
		b.Accepts = tail.Tail()
		b.Meta.AcceptTotal = tail.Total()
	}
}

// Encode serializes the bundle: a magic+version header followed by four
// JSON payloads (meta, trace, metrics, accepts), each wrapped in the
// checkpoint package's [len | payload | crc32c] section framing so torn or
// corrupted artifacts are detected on read, not trusted.
func (b *Bundle) Encode() []byte {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], bundleMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], bundleVersion)
	out := checkpoint.AppendSection(nil, hdr)
	out = checkpoint.AppendSection(out, mustJSON(b.Meta))
	out = checkpoint.AppendSection(out, mustJSON(obs.ExportEvents(b.Trace)))
	out = checkpoint.AppendSection(out, mustJSON(b.Metrics))
	out = checkpoint.AppendSection(out, mustJSON(b.Accepts))
	out = checkpoint.AppendSection(out, b.Divergence)
	return out
}

func mustJSON(v any) []byte {
	blob, err := json.Marshal(v)
	if err != nil {
		// Every section type marshals from plain data structs; an error
		// here is a programming bug, not an input condition.
		panic(fmt.Sprintf("forensics: marshal: %v", err))
	}
	return blob
}

// Decode parses an encoded bundle, validating the framing CRCs, the magic,
// and the version. Errors from the section layer wrap
// checkpoint.ErrTruncated / checkpoint.ErrChecksum.
func Decode(blob []byte) (*Bundle, error) {
	hdr, rest, err := checkpoint.NextSection(blob)
	if err != nil {
		return nil, fmt.Errorf("forensics: header: %w", err)
	}
	if len(hdr) != 8 {
		return nil, fmt.Errorf("forensics: header is %d bytes, want 8", len(hdr))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != bundleMagic {
		return nil, fmt.Errorf("forensics: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != bundleVersion {
		return nil, fmt.Errorf("forensics: unsupported bundle version %d", v)
	}
	b := &Bundle{}
	var wire []obs.WireEvent
	sections := []struct {
		name string
		into any
	}{
		{"meta", &b.Meta},
		{"trace", &wire},
		{"metrics", &b.Metrics},
		{"accepts", &b.Accepts},
	}
	for _, s := range sections {
		var payload []byte
		payload, rest, err = checkpoint.NextSection(rest)
		if err != nil {
			return nil, fmt.Errorf("forensics: %s section: %w", s.name, err)
		}
		if err := json.Unmarshal(payload, s.into); err != nil {
			return nil, fmt.Errorf("forensics: %s section: %w", s.name, err)
		}
	}
	div, rest, err := checkpoint.NextSection(rest)
	if err != nil {
		return nil, fmt.Errorf("forensics: divergence section: %w", err)
	}
	if len(div) > 0 {
		if !json.Valid(div) {
			return nil, fmt.Errorf("forensics: divergence section is not JSON")
		}
		b.Divergence = json.RawMessage(div)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("forensics: %d trailing bytes after bundle", len(rest))
	}
	b.Trace = obs.ImportEvents(wire, 0)
	return b, nil
}

// Recorder collects the first few bundles of a run. It is safe for
// concurrent captures (parallel torture workers share one recorder). With a
// directory configured, each kept bundle is also written to disk as it is
// captured — flight-recorder semantics: the evidence survives even if the
// process never reaches its end-of-run reporting.
type Recorder struct {
	mu      sync.Mutex
	dir     string
	max     int
	seq     int
	bundles []*Bundle
	files   []string
	dropped int
}

// NewRecorder returns a recorder keeping at most max bundles
// (DefaultMaxBundles when max <= 0), writing each to dir when dir is
// non-empty (created on first capture).
func NewRecorder(dir string, max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxBundles
	}
	return &Recorder{dir: dir, max: max}
}

// Capture keeps the bundle (and writes it to the recorder's directory, if
// any). Captures beyond the cap are counted but discarded. Safe on a nil
// recorder.
func (r *Recorder) Capture(b *Bundle) error {
	if r == nil || b == nil {
		return nil
	}
	r.mu.Lock()
	if len(r.bundles) >= r.max {
		r.dropped++
		r.mu.Unlock()
		return nil
	}
	r.bundles = append(r.bundles, b)
	r.seq++
	seq := r.seq
	dir := r.dir
	r.mu.Unlock()
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("forensic-%03d-%s.ppab", seq, b.Meta.Kind))
	if err := os.WriteFile(path, b.Encode(), 0o644); err != nil {
		return err
	}
	r.mu.Lock()
	r.files = append(r.files, path)
	r.mu.Unlock()
	return nil
}

// Bundles returns the captured bundles in capture order.
func (r *Recorder) Bundles() []*Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Bundle, len(r.bundles))
	copy(out, r.bundles)
	return out
}

// Files returns the paths written so far.
func (r *Recorder) Files() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.files))
	copy(out, r.files)
	return out
}

// Dropped returns how many captures the cap discarded.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}
