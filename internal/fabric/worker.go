package fabric

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"ppa"
	"ppa/internal/forensics"
	"ppa/internal/obs"
)

// WorkerConfig configures one worker process (or in-process worker loop).
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name identifies the worker in coordinator logs and the manifest.
	Name string
	// Parallel is the simulation parallelism within a leased unit
	// (sweep semantics: <= 0 means one per CPU, 1 means sequential).
	Parallel int
	// Hub, when non-nil, accumulates the worker's own metrics across
	// units (for a locally served /metrics); each unit's registry is
	// merged into it after the unit completes.
	Hub *obs.Hub
	// Client overrides the HTTP client (a sane default otherwise).
	Client *http.Client
	// DialTimeout bounds the initial spec fetch: if the coordinator does
	// not answer within it, RunWorker returns *UnreachableError instead
	// of hanging (10s when 0).
	DialTimeout time.Duration
	// Poll is the fallback delay between lease attempts when the
	// coordinator has nothing available (DefaultRetry when 0).
	Poll time.Duration
	// MaxUnits stops the worker after completing that many units
	// (0 = run until the sweep is done) — how tests stage partial
	// progress for resume scenarios.
	MaxUnits int
	// Log receives progress lines (silent when nil).
	Log *log.Logger
}

// requestAttempts is the per-request retry budget after first contact:
// transient transport hiccups are retried, a dead coordinator is not
// worth more than a few seconds of patience.
const requestAttempts = 3

// RunWorker leases, simulates, and completes units until the coordinator
// reports the sweep done (or MaxUnits is reached, or ctx is cancelled).
// It returns the number of units this worker completed.
//
// Failure model: the initial spec fetch retries inside DialTimeout and
// then fails with *UnreachableError — a worker pointed at a dead or
// wrong address reports that crisply rather than hanging. After first
// contact, each request gets a small retry budget before the same
// typed error surfaces.
func RunWorker(ctx context.Context, cfg WorkerConfig) (int, error) {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultRetry
	}
	base := strings.TrimRight(cfg.Coordinator, "/")
	if base == "" {
		return 0, &FlagError{Flag: "coordinator", Value: `""`, Reason: "coordinator URL is required"}
	}
	w := &worker{cfg: cfg, base: base}

	spec, err := w.fetchSpec(ctx)
	if err != nil {
		return 0, err
	}
	w.spec = spec.Spec
	w.specHash = spec.Spec.Hash()
	if w.specHash != spec.SpecHash {
		return 0, &SpecMismatchError{Where: "coordinator " + base, Want: w.specHash, Got: spec.SpecHash}
	}
	points, err := w.spec.PointList()
	if err != nil {
		return 0, err
	}
	w.points = points
	w.logf("joined sweep %0.12s…: %d points in %d units (app=%s scheme=%s oracle=%v)",
		w.specHash, len(points), spec.Units, w.spec.App, w.spec.Scheme, w.spec.Oracle)

	completed := 0
	for {
		if err := ctx.Err(); err != nil {
			return completed, err
		}
		lease, err := w.lease(ctx)
		if err != nil {
			return completed, err
		}
		if lease.Done {
			w.logf("sweep complete after %d units from this worker", completed)
			return completed, nil
		}
		if lease.Unit == nil {
			delay := cfg.Poll
			if lease.RetryMS > 0 {
				delay = time.Duration(lease.RetryMS) * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return completed, ctx.Err()
			case <-time.After(delay):
			}
			continue
		}
		ok, err := w.runUnit(ctx, lease)
		if err != nil {
			return completed, err
		}
		if ok {
			completed++
		}
		if w.sweepDone {
			// The complete response said this was the last unit. Exit now:
			// the coordinator may shut down the instant the sweep finished,
			// so another lease round trip could hit a dead socket.
			w.logf("sweep complete after %d units from this worker", completed)
			return completed, nil
		}
		if cfg.MaxUnits > 0 && completed >= cfg.MaxUnits {
			return completed, nil
		}
	}
}

type worker struct {
	cfg      WorkerConfig
	base     string
	spec     Spec
	specHash string
	points   []ppa.TorturePoint
	// sweepDone is set when a complete response reports the whole sweep
	// finished, so the lease loop can exit without another round trip.
	sweepDone bool
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Printf(format, args...)
	}
}

// runUnit simulates one leased unit and posts the verdicts. It returns
// false (with nil error) when the unit was abandoned: the lease was lost
// to a re-lease, or another worker completed it first.
func (w *worker) runUnit(ctx context.Context, lease *LeaseResponse) (bool, error) {
	u := *lease.Unit
	if u.Range.Start < 0 || u.Range.End > len(w.points) || u.Range.Len() <= 0 {
		return false, &ProtocolError{Op: "lease", Detail: fmt.Sprintf("unit %d range [%d,%d) outside sweep of %d points",
			u.Index, u.Range.Start, u.Range.End, len(w.points))}
	}
	// Recompute the content address: a unit that does not hash to its ID
	// under our spec is from some other sweep and must not run here.
	if want := UnitID(w.specHash, u.Range); want != u.ID {
		return false, &ProtocolError{Op: "lease", Detail: fmt.Sprintf("unit %d id %q does not match content address %q",
			u.Index, u.ID, want)}
	}

	// Heartbeat for the duration of the simulation; lose the lease, stop
	// simulating (the unit is someone else's now — results would still be
	// correct, but the cycles are better spent on a fresh lease).
	unitCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	leaseLost := false
	go func() {
		defer close(hbDone)
		ivl := time.Duration(lease.LeaseMS) * time.Millisecond / 3
		if ivl <= 0 {
			ivl = DefaultLease / 3
		}
		t := time.NewTicker(ivl)
		defer t.Stop()
		for {
			select {
			case <-unitCtx.Done():
				return
			case <-t.C:
				ok, err := w.heartbeat(unitCtx, lease.Lease, u.ID)
				if err == nil && !ok {
					leaseLost = true
					cancel()
					return
				}
			}
		}
	}()

	// Span clock: microseconds since the coordinator's trace epoch (carried
	// on the lease), so every host's fragment lands on one fleet timeline.
	epoch := lease.TraceEpochMicros
	sinceEpoch := func() uint64 {
		if us := time.Now().UnixMicro() - epoch; us > 0 {
			return uint64(us)
		}
		return 0
	}
	spanDur := func(start uint64) uint64 {
		if end := sinceEpoch(); end > start {
			return end - start
		}
		return 0
	}
	// Spans live in their own ring (drops surface as the fleet trace's
	// dropped marker) and mirror into the worker's local hub, so a locally
	// served /trace shows this worker's fabric activity too.
	spans := obs.NewTracer(MaxTraceEventsPerUnit)
	span := func(ev obs.Event) {
		ev.Core = u.Index
		ev.Cat = "fabric"
		spans.Emit(ev)
		w.cfg.Hub.Tracer().Emit(ev)
	}
	span(obs.Event{Cycle: sinceEpoch(), Type: obs.EvInstant, Name: "lease",
		Args: [obs.MaxEventArgs]obs.Arg{{Key: "unit", Val: int64(u.Index)}}})

	unitHub := obs.NewHub(1024)
	// Runtime health rides the unit registry as live gauges labelled with
	// this worker's name; Export samples them at completion, so the fleet
	// /metrics shows per-host heap/GC/goroutine gauges.
	obs.RegisterRuntimeMetrics(unitHub.Registry(), w.cfg.Name)
	rc := w.spec.RunConfig(unitHub)
	rec := forensics.NewRecorder("", MaxBundlesPerUnit)
	rc.Forensics = rec
	pts := w.points[u.Range.Start:u.Range.End]
	runStart := sinceEpoch()
	var outs []*ppa.CrashVerdict
	var viols int64
	_, err := ppa.RunTortureParallel(unitCtx, rc, pts, w.cfg.Parallel, func(o *ppa.CrashVerdict) {
		viol := int64(0)
		if o.Violation != "" {
			viol = 1
			viols++
		}
		span(obs.Event{Cycle: sinceEpoch(), Type: obs.EvInstant, Name: "point",
			Args: [obs.MaxEventArgs]obs.Arg{
				{Key: "idx", Val: int64(u.Range.Start + len(outs))},
				{Key: "cycle", Val: int64(o.Point.Cycle)},
				{Key: "violation", Val: viol},
			}})
		outs = append(outs, o)
	})
	cancel()
	<-hbDone
	if err != nil {
		if leaseLost || ctx.Err() == nil && unitCtx.Err() != nil {
			w.logf("unit %d abandoned: lease lost", u.Index)
			return false, nil
		}
		return false, err
	}
	span(obs.Event{Cycle: runStart, Dur: spanDur(runStart), Type: obs.EvComplete, Name: "run",
		Args: [obs.MaxEventArgs]obs.Arg{
			{Key: "points", Val: int64(len(outs))},
			{Key: "violations", Val: viols},
		}})

	mergeStart := sinceEpoch()
	var bundles [][]byte
	for _, b := range rec.Bundles() {
		bundles = append(bundles, b.Encode())
	}
	metrics := unitHub.Registry().Export()
	span(obs.Event{Cycle: mergeStart, Dur: spanDur(mergeStart), Type: obs.EvComplete, Name: "merge",
		Args: [obs.MaxEventArgs]obs.Arg{{Key: "bundles", Val: int64(len(bundles))}}})

	req := &CompleteRequest{
		Lease:        lease.Lease,
		UnitID:       u.ID,
		Worker:       w.cfg.Name,
		Outcomes:     outs,
		Metrics:      metrics,
		Trace:        obs.ExportEvents(spans.Events()),
		TraceDropped: spans.Dropped(),
		Bundles:      bundles,
	}
	resp, status, err := w.post(ctx, "/v1/complete", mustEncode(EncodeCompleteRequest(req)))
	if err != nil {
		return false, err
	}
	w.cfg.Hub.Merge(unitHub)
	if status == http.StatusOK {
		var cr CompleteResponse
		if err := decodeMessage("complete", resp, &cr); err != nil {
			return false, err
		}
		w.sweepDone = cr.Done
		if cr.Duplicate {
			w.logf("unit %d was already complete", u.Index)
			return false, nil
		}
		w.logf("unit %d complete (%d points)", u.Index, len(outs))
		return true, nil
	}
	return false, &ProtocolError{Op: "complete", Detail: fmt.Sprintf("coordinator answered %d: %s", status, strings.TrimSpace(string(resp)))}
}

// fetchSpec contacts the coordinator, retrying inside DialTimeout.
func (w *worker) fetchSpec(ctx context.Context) (*SpecResponse, error) {
	deadline := time.Now().Add(w.cfg.DialTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reqCtx, cancel := context.WithDeadline(ctx, deadline)
		req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, w.base+"/v1/spec", nil)
		if err != nil {
			cancel()
			return nil, &UnreachableError{Endpoint: w.base, Err: err}
		}
		resp, err := w.cfg.Client.Do(req)
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes+1))
			resp.Body.Close()
			cancel()
			if rerr != nil {
				lastErr = rerr
			} else if resp.StatusCode != http.StatusOK {
				return nil, &ProtocolError{Op: "spec", Detail: fmt.Sprintf("coordinator answered %d: %s",
					resp.StatusCode, strings.TrimSpace(string(body)))}
			} else {
				sr, derr := DecodeSpecResponse(body)
				if derr != nil {
					return nil, derr
				}
				if sr.Version != ProtocolVersion {
					return nil, &ProtocolError{Op: "spec", Detail: fmt.Sprintf(
						"coordinator speaks protocol %d, this worker speaks %d", sr.Version, ProtocolVersion)}
				}
				return sr, nil
			}
		} else {
			cancel()
			lastErr = err
		}
		if time.Now().After(deadline) {
			return nil, &UnreachableError{Endpoint: w.base, Err: lastErr}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// lease asks for a unit.
func (w *worker) lease(ctx context.Context) (*LeaseResponse, error) {
	body := mustEncode(EncodeLeaseRequest(&LeaseRequest{
		Version: ProtocolVersion, Worker: w.cfg.Name, SpecHash: w.specHash,
	}))
	resp, status, err := w.post(ctx, "/v1/lease", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, &ProtocolError{Op: "lease", Detail: fmt.Sprintf("coordinator answered %d: %s",
			status, strings.TrimSpace(string(resp)))}
	}
	return DecodeLeaseResponse(resp)
}

// heartbeat extends the lease; ok=false means the lease is gone.
func (w *worker) heartbeat(ctx context.Context, lease, unitID string) (bool, error) {
	body := mustEncode(EncodeHeartbeatRequest(&HeartbeatRequest{Lease: lease, UnitID: unitID}))
	resp, status, err := w.post(ctx, "/v1/heartbeat", body)
	if err != nil || status != http.StatusOK {
		// Transient failure: keep simulating, the next beat may get through.
		return true, err
	}
	var hr HeartbeatResponse
	if err := decodeMessage("heartbeat", resp, &hr); err != nil {
		return true, err
	}
	return hr.OK, nil
}

// post sends one protocol request with a small retry budget, returning
// the response body and status. Transport-level failure across the whole
// budget yields *UnreachableError.
func (w *worker) post(ctx context.Context, path string, body []byte) ([]byte, int, error) {
	var lastErr error
	for attempt := 0; attempt < requestAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, 0, &UnreachableError{Endpoint: w.base, Err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			select {
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			case <-time.After(time.Duration(attempt+1) * 200 * time.Millisecond):
			}
			continue
		}
		blob, rerr := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes+1))
		resp.Body.Close()
		if rerr != nil {
			lastErr = rerr
			continue
		}
		return blob, resp.StatusCode, nil
	}
	return nil, 0, &UnreachableError{Endpoint: w.base, Err: lastErr}
}

// mustEncode unwraps an encode that cannot fail on protocol structs.
func mustEncode(blob []byte, err error) []byte {
	if err != nil {
		panic(fmt.Sprintf("fabric: encode: %v", err))
	}
	return blob
}
