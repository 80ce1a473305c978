package fabric

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"ppa"
	"ppa/internal/forensics"
	"ppa/internal/obs"
)

// Default protocol timing. Lease length trades re-dispatch latency after a
// worker dies against tolerance for slow units; heartbeats (sent at a
// third of the lease) keep long units alive indefinitely.
const (
	DefaultLease = 30 * time.Second
	DefaultRetry = 500 * time.Millisecond
)

// CoordinatorConfig configures a sweep coordinator.
type CoordinatorConfig struct {
	// Spec is the sweep to distribute.
	Spec Spec
	// ManifestPath, when non-empty, makes the sweep resumable: completed
	// units are journaled there and replayed on restart.
	ManifestPath string
	// Lease is how long a granted unit stays assigned without a heartbeat
	// before it is re-leased (DefaultLease when 0).
	Lease time.Duration
	// Retry is the poll delay suggested to workers when every unit is
	// currently leased out (DefaultRetry when 0).
	Retry time.Duration
	// Hub, when non-nil, receives fleet-wide metrics: workers' per-unit
	// registries merge into it as units complete, so the coordinator's
	// /metrics endpoint shows the whole fleet live.
	Hub *obs.Hub
	// Log receives progress lines (silent when nil).
	Log *log.Logger
	// Now overrides the clock (tests re-lease without sleeping).
	Now func() time.Time
	// ForensicsDir, when non-empty, is where forensic bundles shipped by
	// workers on /v1/complete are persisted (one .ppab file per bundle,
	// created on first arrival). Bundles are validated before writing.
	ForensicsDir string
}

// unit lifecycle states.
type unitStatus uint8

const (
	unitPending unitStatus = iota
	unitLeased
	unitDone
)

type unitState struct {
	unit     Unit
	status   unitStatus
	lease    string
	worker   string
	expiry   time.Time
	outcomes []*ppa.CrashVerdict
	// trace is the unit's span fragment and traceWorker the worker whose
	// completion was accepted (fragments land in that worker's fleet lane).
	trace       []obs.Event
	traceWorker string
}

// Coordinator owns a distributed sweep: the unit table, the lease
// protocol, the manifest, and the deterministic merge.
type Coordinator struct {
	spec     Spec
	specHash string
	points   []ppa.TorturePoint
	leaseDur time.Duration
	retry    time.Duration
	hub      *obs.Hub
	log      *log.Logger
	now      func() time.Time
	manifest *Manifest
	// start anchors /healthz uptime; traceEpoch (start as Unix micros) is
	// the fleet trace's shared timebase, handed to workers on every lease.
	start        time.Time
	traceEpoch   int64
	forensicsDir string

	mu       sync.Mutex
	units    []*unitState
	byID     map[string]*unitState
	leaseSeq int
	done     int
	resumed  int
	pointsD  int
	viol     int
	doneCh   chan struct{}
	// traceDropped sums workers' reported ring overwrites plus events the
	// per-unit cap truncated; bundleFiles lists persisted forensic bundles.
	traceDropped  uint64
	bundleFiles   []string
	bundleDropped int
}

// NewCoordinator validates the spec, decomposes it into units, and — when
// a manifest path is configured — replays previously completed units so a
// restarted coordinator never re-dispatches finished work.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	points, err := cfg.Spec.PointList()
	if err != nil {
		return nil, err
	}
	units, err := cfg.Spec.Units()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		spec:         cfg.Spec,
		specHash:     cfg.Spec.Hash(),
		points:       points,
		leaseDur:     cfg.Lease,
		retry:        cfg.Retry,
		hub:          cfg.Hub,
		log:          cfg.Log,
		now:          cfg.Now,
		forensicsDir: cfg.ForensicsDir,
		byID:         make(map[string]*unitState, len(units)),
		doneCh:       make(chan struct{}),
	}
	if c.leaseDur <= 0 {
		c.leaseDur = DefaultLease
	}
	if c.retry <= 0 {
		c.retry = DefaultRetry
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.start = c.now()
	c.traceEpoch = c.start.UnixMicro()
	for _, u := range units {
		st := &unitState{unit: u}
		c.units = append(c.units, st)
		c.byID[u.ID] = st
	}

	if cfg.ManifestPath != "" {
		man, err := OpenManifest(cfg.ManifestPath, c.specHash, len(units))
		if err != nil {
			return nil, err
		}
		c.manifest = man
		for _, st := range c.units {
			outs := man.Completed(st.unit.ID)
			if outs == nil {
				continue
			}
			if len(outs) != st.unit.Range.Len() {
				// A damaged entry: drop it and re-run the unit.
				c.logf("manifest entry for unit %d (%s) holds %d outcomes, want %d; re-running",
					st.unit.Index, st.unit.ID, len(outs), st.unit.Range.Len())
				continue
			}
			c.markDoneLocked(st, outs)
			c.resumed++
			// The worker hub that produced these outcomes is long gone, so
			// tick the live counters here; fresh completions get their
			// ticks from the merged worker registries instead.
			c.hub.Registry().Counter("torture.points").Add(uint64(len(outs)))
			for _, o := range outs {
				if o.Violation != "" {
					c.hub.Registry().Counter("torture.violations").Inc()
				}
			}
		}
		if c.resumed > 0 {
			c.logf("resumed %d/%d units from manifest %s", c.resumed, len(units), cfg.ManifestPath)
		}
	}
	if c.done == len(c.units) {
		close(c.doneCh)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.log != nil {
		c.log.Printf(format, args...)
	}
}

// markDoneLocked transitions a unit to done and updates sweep accounting.
// c.mu must be held (or the coordinator not yet shared).
func (c *Coordinator) markDoneLocked(st *unitState, outs []*ppa.CrashVerdict) {
	st.status = unitDone
	st.outcomes = outs
	st.lease = ""
	c.done++
	c.pointsD += len(outs)
	for _, o := range outs {
		if o.Violation != "" {
			c.viol++
		}
	}
}

// SpecHash returns the sweep's content address.
func (c *Coordinator) SpecHash() string { return c.specHash }

// Units returns the unit count.
func (c *Coordinator) Units() int { return len(c.units) }

// Resumed returns how many units were satisfied from the manifest.
func (c *Coordinator) Resumed() int { return c.resumed }

// Status snapshots sweep progress.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	s := StatusResponse{
		SpecHash:   c.specHash,
		Units:      len(c.units),
		Done:       c.done,
		Points:     len(c.points),
		PointsDone: c.pointsD,
		Violations: c.viol,
		Resumed:    c.resumed,
	}
	for _, st := range c.units {
		switch st.status {
		case unitLeased:
			s.Leased++
		case unitPending:
			s.Pending++
		}
	}
	return s
}

// reapLocked returns expired leases to the pending pool.
func (c *Coordinator) reapLocked() {
	now := c.now()
	for _, st := range c.units {
		if st.status == unitLeased && now.After(st.expiry) {
			c.logf("lease %s on unit %d (worker %s) expired; re-queueing", st.lease, st.unit.Index, st.worker)
			st.status = unitPending
			st.lease = ""
			st.worker = ""
		}
	}
}

// lease grants the lowest-index pending unit.
func (c *Coordinator) lease(req *LeaseRequest) *LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	if c.done == len(c.units) {
		return &LeaseResponse{Done: true}
	}
	for _, st := range c.units {
		if st.status != unitPending {
			continue
		}
		c.leaseSeq++
		st.status = unitLeased
		st.lease = fmt.Sprintf("lease-%d", c.leaseSeq)
		st.worker = req.Worker
		st.expiry = c.now().Add(c.leaseDur)
		u := st.unit
		return &LeaseResponse{Unit: &u, Lease: st.lease, LeaseMS: c.leaseDur.Milliseconds(),
			TraceEpochMicros: c.traceEpoch}
	}
	return &LeaseResponse{RetryMS: c.retry.Milliseconds()}
}

// heartbeat extends a live lease.
func (c *Coordinator) heartbeat(req *HeartbeatRequest) *HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	st, ok := c.byID[req.UnitID]
	if !ok || st.status != unitLeased || st.lease != req.Lease {
		return &HeartbeatResponse{OK: false}
	}
	st.expiry = c.now().Add(c.leaseDur)
	return &HeartbeatResponse{OK: true}
}

// complete records a finished unit. Outcomes are accepted for any
// incomplete unit regardless of lease validity — units are deterministic,
// so a late completion after a re-lease is still the correct answer, and
// whoever finishes first wins.
func (c *Coordinator) complete(req *CompleteRequest) (*CompleteResponse, error) {
	c.mu.Lock()
	st, ok := c.byID[req.UnitID]
	if !ok {
		c.mu.Unlock()
		return nil, &ProtocolError{Op: "complete", Detail: fmt.Sprintf("unknown unit %q", req.UnitID)}
	}
	if st.status == unitDone {
		sweepDone := c.done == len(c.units)
		c.mu.Unlock()
		return &CompleteResponse{Accepted: false, Duplicate: true, Done: sweepDone}, nil
	}
	if len(req.Outcomes) != st.unit.Range.Len() {
		c.mu.Unlock()
		return nil, &ProtocolError{Op: "complete", Detail: fmt.Sprintf(
			"unit %d: %d outcomes for %d points", st.unit.Index, len(req.Outcomes), st.unit.Range.Len())}
	}
	for i, o := range req.Outcomes {
		if o == nil {
			c.mu.Unlock()
			return nil, &ProtocolError{Op: "complete", Detail: fmt.Sprintf("unit %d: nil outcome %d", st.unit.Index, i)}
		}
	}
	c.markDoneLocked(st, req.Outcomes)
	// Keep the unit's span fragment for the fleet trace, capped and
	// re-validated (the wire side may be hostile): events past the cap and
	// malformed entries count as dropped, not as silently missing.
	events := obs.ImportEvents(req.Trace, MaxTraceEventsPerUnit)
	st.trace = events
	st.traceWorker = req.Worker
	c.traceDropped += req.TraceDropped + uint64(len(req.Trace)-len(events))
	done, total := c.done, len(c.units)
	allDone := done == total
	c.mu.Unlock()

	// Durable ledger first, then fleet metrics: a crash between the two
	// re-merges nothing (metrics are per-coordinator-life, the report is
	// what must survive).
	if c.manifest != nil {
		if err := c.manifest.Record(st.unit, req.Worker, req.Outcomes); err != nil {
			return nil, err
		}
	}
	c.hub.Registry().MergeWire(req.Metrics)
	c.saveBundles(st.unit, req)
	c.logf("unit %d/%d complete (worker %s, %d points)", done, total, req.Worker, len(req.Outcomes))
	if allDone {
		close(c.doneCh)
	}
	return &CompleteResponse{Accepted: true, Done: allDone}, nil
}

// saveBundles persists a completion's forensic bundles under the
// coordinator's forensics directory, enforcing the per-unit count and size
// caps and rejecting blobs that do not decode as bundles.
func (c *Coordinator) saveBundles(u Unit, req *CompleteRequest) {
	if c.forensicsDir == "" || len(req.Bundles) == 0 {
		return
	}
	if err := os.MkdirAll(c.forensicsDir, 0o755); err != nil {
		c.logf("forensics dir %s: %v", c.forensicsDir, err)
		return
	}
	for bi, blob := range req.Bundles {
		if bi >= MaxBundlesPerUnit || len(blob) > MaxBundleBytes {
			c.mu.Lock()
			c.bundleDropped++
			c.mu.Unlock()
			continue
		}
		b, err := forensics.Decode(blob)
		if err != nil {
			c.logf("unit %d bundle %d from %s: %v", u.Index, bi, req.Worker, err)
			c.mu.Lock()
			c.bundleDropped++
			c.mu.Unlock()
			continue
		}
		path := filepath.Join(c.forensicsDir, fmt.Sprintf("unit%04d-%d-%s.ppab", u.Index, bi, b.Meta.Kind))
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			c.logf("write %s: %v", path, err)
			continue
		}
		c.mu.Lock()
		c.bundleFiles = append(c.bundleFiles, path)
		c.mu.Unlock()
		c.logf("forensic bundle from worker %s (unit %d, %s): %s", req.Worker, u.Index, b.Meta.Kind, path)
	}
}

// BundleFiles lists the forensic bundles persisted so far.
func (c *Coordinator) BundleFiles() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.bundleFiles))
	copy(out, c.bundleFiles)
	return out
}

// TraceDropped reports how many span events the fleet trace is missing
// (worker ring overwrites plus cap truncation).
func (c *Coordinator) TraceDropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceDropped
}

// WriteFleetTrace merges every completed unit's span fragment into one
// Chrome trace: one process lane per worker (sorted by name, so lane pids
// are stable), fragments within a lane in unit-index order. The output is a
// pure function of the completed-unit table — byte-identical no matter the
// order fragments arrived in — so CI can diff fleet traces across runs.
func (c *Coordinator) WriteFleetTrace(w io.Writer) error {
	c.mu.Lock()
	byWorker := make(map[string][]obs.Event)
	var lastTS uint64
	for _, st := range c.units { // unit-index order
		if st.status != unitDone || len(st.trace) == 0 {
			continue
		}
		byWorker[st.traceWorker] = append(byWorker[st.traceWorker], st.trace...)
		for _, ev := range st.trace {
			if end := ev.Cycle + ev.Dur; end > lastTS {
				lastTS = end
			}
		}
	}
	dropped := c.traceDropped
	c.mu.Unlock()

	names := make([]string, 0, len(byWorker))
	for n := range byWorker {
		names = append(names, n)
	}
	sort.Strings(names)
	lanes := make([]obs.ProcessLane, 0, len(names)+1)
	// Pid 0 is the coordinator's own lane; it carries the dropped marker.
	if dropped > 0 {
		lanes = append(lanes, obs.ProcessLane{Pid: 0, Name: "coordinator",
			Events: []obs.Event{obs.DroppedMarker(lastTS, dropped)}})
	}
	for i, n := range names {
		lanes = append(lanes, obs.ProcessLane{Pid: 1 + i, Name: "worker:" + n,
			TrackPrefix: "unit", Events: byWorker[n]})
	}
	return obs.WriteFleetChromeTrace(w, lanes)
}

// Done returns a channel closed when every unit is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the sweep completes (returning the merged report) or
// ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) (*ppa.TortureReport, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.doneCh:
	}
	return c.Report()
}

// Report assembles every unit's outcomes in point order and aggregates
// them through the exact accounting path RunTorture uses, so the report —
// and its JSON encoding — is byte-identical to the single-process sweep's.
func (c *Coordinator) Report() (*ppa.TortureReport, error) {
	c.mu.Lock()
	outs := make([]*ppa.CrashVerdict, len(c.points))
	for _, st := range c.units {
		if st.status != unitDone {
			c.mu.Unlock()
			return nil, fmt.Errorf("fabric: unit %d incomplete", st.unit.Index)
		}
		copy(outs[st.unit.Range.Start:st.unit.Range.End], st.outcomes)
	}
	c.mu.Unlock()
	// The live counters already ticked (merged worker registries and
	// manifest replay), so aggregation runs with a nil hub — the same
	// split RunTortureParallel uses.
	return ppa.AggregateTortureOutcomes(nil, c.points, outs, nil)
}

// Close releases the manifest handle.
func (c *Coordinator) Close() error {
	if c.manifest != nil {
		return c.manifest.Close()
	}
	return nil
}

// Handler returns the coordinator's HTTP handler: the /v1 job protocol
// plus the hub's observability endpoints (/metrics, /snapshot.json,
// /trace), so one port serves both workers and dashboards.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/spec", func(w http.ResponseWriter, r *http.Request) {
		c.writeJSON(w, &SpecResponse{
			Version: ProtocolVersion, Spec: c.spec, SpecHash: c.specHash, Units: len(c.units),
		})
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		s := c.Status()
		c.writeJSON(w, &s)
	})
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeLeaseRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Version != ProtocolVersion {
			http.Error(w, fmt.Sprintf("protocol version %d, coordinator speaks %d", req.Version, ProtocolVersion),
				http.StatusBadRequest)
			return
		}
		if req.SpecHash != c.specHash {
			http.Error(w, (&SpecMismatchError{Where: "worker " + req.Worker, Want: c.specHash, Got: req.SpecHash}).Error(),
				http.StatusConflict)
			return
		}
		c.writeJSON(w, c.lease(req))
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeHeartbeatRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.writeJSON(w, c.heartbeat(req))
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := DecodeCompleteRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := c.complete(req)
		if err != nil {
			status := http.StatusInternalServerError
			if _, ok := err.(*ProtocolError); ok {
				status = http.StatusBadRequest
			}
			http.Error(w, err.Error(), status)
			return
		}
		c.writeJSON(w, resp)
	})
	// /trace here shadows the hub's single-process /trace: on a
	// coordinator, the fleet-merged timeline is the trace you want.
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(obs.TraceDroppedHeader, strconv.FormatUint(c.TraceDropped(), 10))
		_ = c.WriteFleetTrace(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s := c.Status()
		c.writeJSON(w, map[string]any{
			"status":    "ok",
			"spec_hash": c.specHash,
			"uptime_ms": c.now().Sub(c.start).Milliseconds(),
			"units":     s.Units,
			"done":      s.Done,
		})
	})
	mux.Handle("/", c.hub.Handler())
	return mux
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, v any) {
	blob, err := encodeMessage(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(blob)
}

// readBody drains a request body under the protocol size cap.
func readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		return nil, &ProtocolError{Op: "read", Detail: err.Error()}
	}
	if len(body) > MaxBodyBytes {
		return nil, &ProtocolError{Op: "read", Detail: "body exceeds size cap"}
	}
	return body, nil
}

// Server is a coordinator bound to a listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and serves the coordinator in a background goroutine,
// returning once the listener is up (so workers started immediately after
// will connect).
func (c *Coordinator) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
