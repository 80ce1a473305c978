package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ppa"
	"ppa/internal/obs"
)

// The job protocol's wire format: JSON messages over HTTP.
//
//	GET  /v1/spec       -> SpecResponse        (sweep description + hash)
//	POST /v1/lease      LeaseRequest  -> LeaseResponse
//	POST /v1/heartbeat  HeartbeatRequest -> HeartbeatResponse (410 = lease lost)
//	POST /v1/complete   CompleteRequest -> CompleteResponse
//	GET  /v1/status     -> StatusResponse      (progress; also human-curl-able)
//
// Decoding is strict — unknown fields and trailing garbage are rejected,
// and bodies are capped — because a coordinator is a long-lived network
// service fed by whatever connects to it. Every message type has an
// Encode/Decode pair; the golden tests pin the byte format and
// FuzzJobDecode hammers the decoders with arbitrary input.

// ProtocolVersion identifies the wire format. A coordinator rejects
// workers speaking another version instead of mis-parsing them. Version 2
// carries each point's whole ppa.CrashVerdict.
const ProtocolVersion = 2

// MaxBodyBytes caps a decoded message body. A unit's outcomes plus a
// registry export are comfortably under 1 MiB; the cap only exists so a
// hostile or confused peer cannot balloon the coordinator's heap.
const MaxBodyBytes = 32 << 20

// Per-unit caps on the observability payloads riding /v1/complete. Workers
// stay far below them; the coordinator enforces them so a hostile worker
// cannot bloat the fleet trace or the forensics directory.
const (
	// MaxTraceEventsPerUnit bounds the span fragment a completion carries.
	MaxTraceEventsPerUnit = 4096
	// MaxBundlesPerUnit bounds forensic bundles per completion.
	MaxBundlesPerUnit = 4
	// MaxBundleBytes bounds one encoded forensic bundle.
	MaxBundleBytes = 4 << 20
)

// SpecResponse answers GET /v1/spec.
type SpecResponse struct {
	Version  int    `json:"version"`
	Spec     Spec   `json:"spec"`
	SpecHash string `json:"spec_hash"`
	Units    int    `json:"units"`
}

// LeaseRequest asks for a work unit.
type LeaseRequest struct {
	Version int `json:"version"`
	// Worker is a human-readable worker name for logs and status.
	Worker string `json:"worker"`
	// SpecHash must match the coordinator's sweep; it proves the worker
	// fetched (and will faithfully reproduce) the same point list.
	SpecHash string `json:"spec_hash"`
}

// LeaseResponse grants a unit, asks the worker to retry later, or reports
// the sweep finished.
type LeaseResponse struct {
	// Done means every unit is complete; the worker should exit.
	Done bool `json:"done,omitempty"`
	// Unit is the granted work unit (nil when Done or when nothing is
	// currently available).
	Unit *Unit `json:"unit,omitempty"`
	// Lease is the opaque lease token for heartbeat/complete.
	Lease string `json:"lease,omitempty"`
	// LeaseMS is how long the lease lasts without a heartbeat.
	LeaseMS int64 `json:"lease_ms,omitempty"`
	// RetryMS, when no unit was granted and the sweep is not done, is the
	// suggested poll delay (units are all leased out right now).
	RetryMS int64 `json:"retry_ms,omitempty"`
	// TraceEpochMicros is the coordinator's trace epoch (Unix microseconds,
	// fixed at coordinator start): the trace context every granted unit's
	// spans are stamped against, so fragments from different hosts land on
	// one fleet timeline.
	TraceEpochMicros int64 `json:"trace_epoch_us,omitempty"`
}

// HeartbeatRequest extends a lease while a unit is still simulating.
type HeartbeatRequest struct {
	Lease  string `json:"lease"`
	UnitID string `json:"unit_id"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// OK is false when the lease is no longer recognized (the unit was
	// re-leased or already completed); the worker should abandon the unit.
	OK bool `json:"ok"`
}

// CompleteRequest posts a finished unit: the verdict of every point in
// the unit's range, in range order, plus the worker's observability
// registry for the unit in wire form.
type CompleteRequest struct {
	Lease    string              `json:"lease"`
	UnitID   string              `json:"unit_id"`
	Worker   string              `json:"worker"`
	Outcomes []*ppa.CrashVerdict `json:"outcomes"`
	Metrics  []obs.WireMetric    `json:"metrics,omitempty"`
	// Trace is the unit's span fragment (lease→run→merge spans plus
	// per-point instants), stamped in microseconds since the lease's
	// TraceEpochMicros. The coordinator merges fragments into the fleet
	// Chrome trace served at /trace.
	Trace []obs.WireEvent `json:"trace,omitempty"`
	// TraceDropped counts events the worker's per-unit ring overwrote
	// before export (summed into the fleet trace's dropped marker).
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// Bundles carries encoded forensic bundles (internal/forensics) for
	// violations captured while running the unit.
	Bundles [][]byte `json:"bundles,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Accepted means the coordinator recorded these outcomes.
	Accepted bool `json:"accepted"`
	// Duplicate means the unit was already complete (a re-leased twin
	// finished first); the work was redundant but nothing is wrong.
	Duplicate bool `json:"duplicate,omitempty"`
	// Done means this completion finished the sweep (or it was already
	// finished): the worker can exit without another lease round trip,
	// which matters because the coordinator may exit the moment the last
	// unit lands.
	Done bool `json:"done,omitempty"`
}

// StatusResponse answers GET /v1/status.
type StatusResponse struct {
	SpecHash   string `json:"spec_hash"`
	Units      int    `json:"units"`
	Done       int    `json:"done"`
	Leased     int    `json:"leased"`
	Pending    int    `json:"pending"`
	Points     int    `json:"points"`
	PointsDone int    `json:"points_done"`
	Violations int    `json:"violations"`
	// Resumed counts units satisfied from the manifest at startup.
	Resumed int `json:"resumed,omitempty"`
}

// encodeMessage renders any protocol message in its canonical wire form:
// compact JSON with a trailing newline. The golden tests pin these bytes.
func encodeMessage(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeMessage strictly parses one protocol message: size-capped, unknown
// fields rejected, trailing data rejected.
func decodeMessage(op string, data []byte, v any) error {
	if len(data) > MaxBodyBytes {
		return &ProtocolError{Op: op, Detail: fmt.Sprintf("body of %d bytes exceeds cap", len(data))}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &ProtocolError{Op: op, Detail: err.Error()}
	}
	// Only whitespace may follow the first value.
	if dec.More() {
		return &ProtocolError{Op: op, Detail: "trailing data after message"}
	}
	return nil
}

// The exported Encode/Decode pairs — one per message that crosses the
// wire. Decoders are what FuzzJobDecode targets.

// EncodeLeaseRequest renders a lease request.
func EncodeLeaseRequest(m *LeaseRequest) ([]byte, error) { return encodeMessage(m) }

// DecodeLeaseRequest parses a lease request.
func DecodeLeaseRequest(data []byte) (*LeaseRequest, error) {
	var m LeaseRequest
	if err := decodeMessage("lease", data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// EncodeLeaseResponse renders a lease response.
func EncodeLeaseResponse(m *LeaseResponse) ([]byte, error) { return encodeMessage(m) }

// DecodeLeaseResponse parses a lease response.
func DecodeLeaseResponse(data []byte) (*LeaseResponse, error) {
	var m LeaseResponse
	if err := decodeMessage("lease", data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// EncodeHeartbeatRequest renders a heartbeat.
func EncodeHeartbeatRequest(m *HeartbeatRequest) ([]byte, error) { return encodeMessage(m) }

// DecodeHeartbeatRequest parses a heartbeat.
func DecodeHeartbeatRequest(data []byte) (*HeartbeatRequest, error) {
	var m HeartbeatRequest
	if err := decodeMessage("heartbeat", data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// EncodeCompleteRequest renders a completion.
func EncodeCompleteRequest(m *CompleteRequest) ([]byte, error) { return encodeMessage(m) }

// DecodeCompleteRequest parses a completion.
func DecodeCompleteRequest(data []byte) (*CompleteRequest, error) {
	var m CompleteRequest
	if err := decodeMessage("complete", data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// EncodeSpecResponse renders a spec response.
func EncodeSpecResponse(m *SpecResponse) ([]byte, error) { return encodeMessage(m) }

// DecodeSpecResponse parses a spec response.
func DecodeSpecResponse(data []byte) (*SpecResponse, error) {
	var m SpecResponse
	if err := decodeMessage("spec", data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
