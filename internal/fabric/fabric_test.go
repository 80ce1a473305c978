package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ppa"
	"ppa/internal/obs"
)

// testSpec is the shared small-but-real sweep for the integration tests:
// every fault kind appears at least twice, units don't divide the point
// count evenly (the last unit is short), and the oracle is on so the
// distributed path carries its verdicts too.
func testSpec() Spec {
	return Spec{
		App: "mcf", Scheme: "ppa", Insts: 400, Points: 14, Seed: 11,
		MinCycle: 200, MaxCycle: 1200, Oracle: true, UnitSize: 4,
	}
}

// sequentialReport runs the spec the single-process way.
func sequentialReport(t *testing.T, spec Spec) *ppa.TortureReport {
	t.Helper()
	points, err := spec.PointList()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ppa.RunTorture(spec.RunConfig(nil), points, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestDistributedSweepMatchesSequential is the fabric's headline
// contract: a coordinator plus two concurrent workers — real HTTP, real
// simulation, units completing out of order — produces a report
// byte-identical to the sequential single-process sweep, and the
// coordinator's hub ends up with the fleet-wide point counters.
func TestDistributedSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed torture sweep is slow")
	}
	spec := testSpec()
	seq := sequentialReport(t, spec)

	hub := obs.NewHub(0)
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, workerErrs[i] = RunWorker(context.Background(), WorkerConfig{
				Coordinator: srv.URL,
				Name:        []string{"w1", "w2"}[i],
				Parallel:    2,
			})
		}(i)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dist, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := mustJSON(t, dist), mustJSON(t, seq); got != want {
		t.Fatalf("distributed sweep diverged from sequential:\ndist: %s\nseq:  %s", got, want)
	}

	// Fleet metrics: the merged worker registries must account for every
	// point exactly once.
	points, _ := spec.PointList()
	if got := hub.Registry().Counter("torture.points").Value(); got != uint64(len(points)) {
		t.Fatalf("fleet torture.points = %d, want %d", got, len(points))
	}
	if got := hub.Registry().Counter("torture.violations").Value(); got != uint64(len(seq.Violations)) {
		t.Fatalf("fleet torture.violations = %d, want %d", got, len(seq.Violations))
	}

	st := coord.Status()
	if st.Done != coord.Units() || st.PointsDone != len(points) {
		t.Fatalf("status inconsistent after completion: %+v", st)
	}
}

// TestCoordinatorResumesFromManifest pins the resume contract: kill a
// coordinator after some units completed, restart it over the same
// manifest, and the finished units are never re-dispatched while the
// final report stays byte-identical to the sequential sweep.
func TestCoordinatorResumesFromManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed torture sweep is slow")
	}
	spec := testSpec()
	seq := sequentialReport(t, spec)
	manifest := filepath.Join(t.TempDir(), "sweep.manifest")

	// First life: complete exactly 2 units, then "die" (close everything
	// without reporting).
	coordA, err := NewCoordinator(CoordinatorConfig{Spec: spec, ManifestPath: manifest})
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(coordA.Handler())
	n, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srvA.URL, Name: "w-first-life", Parallel: 2, MaxUnits: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("first-life worker completed %d units, want 2", n)
	}
	srvA.Close()
	if err := coordA.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same manifest, fresh coordinator.
	hub := obs.NewHub(0)
	coordB, err := NewCoordinator(CoordinatorConfig{Spec: spec, ManifestPath: manifest, Hub: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer coordB.Close()
	if got := coordB.Resumed(); got != 2 {
		t.Fatalf("resumed %d units from manifest, want 2", got)
	}
	if st := coordB.Status(); st.Pending != coordB.Units()-2 {
		t.Fatalf("after resume: %d pending, want %d", st.Pending, coordB.Units()-2)
	}

	srvB := httptest.NewServer(coordB.Handler())
	defer srvB.Close()
	n, err = RunWorker(context.Background(), WorkerConfig{
		Coordinator: srvB.URL, Name: "w-second-life", Parallel: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := coordB.Units() - 2; n != want {
		t.Fatalf("second-life worker completed %d units, want %d (completed units must not be re-dispatched)", n, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dist, err := coordB.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, dist), mustJSON(t, seq); got != want {
		t.Fatalf("resumed sweep diverged from sequential:\ndist: %s\nseq:  %s", got, want)
	}

	// The resumed units' counter ticks came from manifest replay, the
	// fresh units' from merged worker registries; together they must
	// still account for every point exactly once.
	points, _ := spec.PointList()
	if got := hub.Registry().Counter("torture.points").Value(); got != uint64(len(points)) {
		t.Fatalf("fleet torture.points after resume = %d, want %d", got, len(points))
	}
}

// TestWorkerUnreachableCoordinator pins the typed fast-fail: a worker
// pointed at a dead address returns *UnreachableError within its dial
// budget instead of hanging.
func TestWorkerUnreachableCoordinator(t *testing.T) {
	start := time.Now()
	_, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: "http://127.0.0.1:1",
		DialTimeout: 500 * time.Millisecond,
	})
	var unreach *UnreachableError
	if !errors.As(err, &unreach) {
		t.Fatalf("err = %v (%T), want *UnreachableError", err, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker took %v to give up — that is a hang, not a fast fail", elapsed)
	}
}

// TestWorkerRejectsInconsistentSpec pins the worker-side content check: a
// coordinator whose advertised spec hash does not match the spec it
// serves is refused with the typed mismatch error.
func TestWorkerRejectsInconsistentSpec(t *testing.T) {
	spec := testSpec()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		blob, _ := EncodeSpecResponse(&SpecResponse{
			Version: ProtocolVersion, Spec: spec, SpecHash: "not-the-real-hash", Units: 4,
		})
		w.Write(blob)
	}))
	defer srv.Close()
	_, err := RunWorker(context.Background(), WorkerConfig{Coordinator: srv.URL, DialTimeout: time.Second})
	var mismatch *SpecMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("err = %v (%T), want *SpecMismatchError", err, err)
	}
}

// TestLeaseExpiryAndRelease drives the lease lifecycle against a fake
// clock: an un-heartbeaten lease expires and the unit is re-granted; a
// heartbeat extends it; the first completion wins and the loser is told
// it was a duplicate.
func TestLeaseExpiryAndRelease(t *testing.T) {
	spec := Spec{App: "mcf", Scheme: "ppa", Insts: 500, Points: 8, Seed: 3, MinCycle: 200, MaxCycle: 1500, UnitSize: 4}
	now := time.Unix(1_000_000, 0)
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec:  spec,
		Lease: 30 * time.Second,
		Now:   func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}

	// w1 takes unit 0.
	g1 := coord.lease(&LeaseRequest{Worker: "w1", SpecHash: spec.Hash()})
	if g1.Unit == nil || g1.Unit.Index != 0 {
		t.Fatalf("first grant = %+v", g1)
	}
	// A heartbeat at t+20s extends the lease to t+50s, so at t+45s the
	// unit is still held.
	now = now.Add(20 * time.Second)
	if hb := coord.heartbeat(&HeartbeatRequest{Lease: g1.Lease, UnitID: g1.Unit.ID}); !hb.OK {
		t.Fatal("live heartbeat refused")
	}
	now = now.Add(25 * time.Second)
	g2 := coord.lease(&LeaseRequest{Worker: "w2", SpecHash: spec.Hash()})
	if g2.Unit == nil || g2.Unit.Index != 1 {
		t.Fatalf("heartbeat did not hold the lease: w2 got %+v", g2.Unit)
	}

	// No more heartbeats from w1: its lease expires and unit 0 is
	// re-granted to w3.
	now = now.Add(31 * time.Second)
	if hb := coord.heartbeat(&HeartbeatRequest{Lease: g1.Lease, UnitID: g1.Unit.ID}); hb.OK {
		t.Fatal("expired lease heartbeat accepted")
	}
	g3 := coord.lease(&LeaseRequest{Worker: "w3", SpecHash: spec.Hash()})
	if g3.Unit == nil || g3.Unit.Index != 0 {
		t.Fatalf("expired unit not re-granted: w3 got %+v", g3.Unit)
	}

	// The original worker finishes anyway (deterministic results): first
	// completion wins, the re-leased twin is a duplicate.
	outs := fakeOutcomes(*g1.Unit, spec, false)
	resp, err := coord.complete(&CompleteRequest{Lease: g1.Lease, UnitID: g1.Unit.ID, Worker: "w1", Outcomes: outs})
	if err != nil || !resp.Accepted {
		t.Fatalf("late completion of an incomplete unit refused: %+v, %v", resp, err)
	}
	resp, err = coord.complete(&CompleteRequest{Lease: g3.Lease, UnitID: g3.Unit.ID, Worker: "w3", Outcomes: outs})
	if err != nil || !resp.Duplicate {
		t.Fatalf("second completion not flagged duplicate: %+v, %v", resp, err)
	}
}

// TestCompleteValidation pins the coordinator's input checks: unknown
// units and wrong-cardinality outcome lists are typed protocol errors.
func TestCompleteValidation(t *testing.T) {
	spec := Spec{App: "mcf", Scheme: "ppa", Insts: 500, Points: 8, Seed: 3, MinCycle: 200, MaxCycle: 1500, UnitSize: 4}
	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	g := coord.lease(&LeaseRequest{Worker: "w1", SpecHash: spec.Hash()})
	if g.Unit == nil {
		t.Fatal("no grant")
	}

	var perr *ProtocolError
	if _, err := coord.complete(&CompleteRequest{UnitID: "no-such-unit"}); !errors.As(err, &perr) {
		t.Fatalf("unknown unit: err = %v", err)
	}
	short := fakeOutcomes(*g.Unit, spec, false)[:2]
	if _, err := coord.complete(&CompleteRequest{Lease: g.Lease, UnitID: g.Unit.ID, Outcomes: short}); !errors.As(err, &perr) {
		t.Fatalf("short outcome list: err = %v", err)
	}
	if _, err := coord.complete(&CompleteRequest{Lease: g.Lease, UnitID: g.Unit.ID,
		Outcomes: []*ppa.CrashVerdict{nil, nil, nil, nil}}); !errors.As(err, &perr) {
		t.Fatalf("nil outcomes: err = %v", err)
	}
}

// TestValidateWorkers pins the flag-validation helper both CLIs use.
func TestValidateWorkers(t *testing.T) {
	if err := ValidateWorkers("workers", 0, 0); err != nil {
		t.Fatalf("0 workers with min 0 rejected: %v", err)
	}
	var ferr *FlagError
	if err := ValidateWorkers("workers", -1, 0); !errors.As(err, &ferr) {
		t.Fatalf("-1 workers accepted: %v", err)
	}
	if err := ValidateWorkers("workers", 0, 1); !errors.As(err, &ferr) {
		t.Fatalf("0 workers with min 1 accepted: %v", err)
	}
}

// TestVersion1Refused: version 2 carries each point's whole crash verdict,
// so neither a ledger written in version 1 nor a worker speaking it may
// join a sweep. A v1 manifest header is refused on open, and a v1 lease
// request is rejected before it can lease a unit.
func TestVersion1Refused(t *testing.T) {
	spec := Spec{App: "mcf", Scheme: "ppa", Insts: 500, Points: 8, Seed: 3, MinCycle: 200, MaxCycle: 1500, UnitSize: 4}
	path := filepath.Join(t.TempDir(), "v1.manifest")
	hdr := `{"kind":"ppa-fabric-manifest","version":1,"spec_hash":"` + spec.Hash() + `","units":2}` + "\n"
	if err := os.WriteFile(path, []byte(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := OpenManifest(path, spec.Hash(), 2); err == nil {
		m.Close()
		t.Fatal("a v1 manifest opened")
	} else if !strings.Contains(err.Error(), "not a v2 fabric manifest") {
		t.Fatalf("v1 manifest refused with %v", err)
	}

	coord, err := NewCoordinator(CoordinatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	body, err := EncodeLeaseRequest(&LeaseRequest{Version: 1, Worker: "old", SpecHash: spec.Hash()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "protocol version 1, coordinator speaks 2") {
		t.Fatalf("v1 lease request answered %d: %s", resp.StatusCode, msg)
	}
	if st := coord.Status(); st.Leased != 0 {
		t.Fatalf("a v1 worker leased %d units", st.Leased)
	}
}
