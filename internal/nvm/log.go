package nvm

// This file hosts the device's persist-log storage area: a designated
// durable region, separate from the memory image, that the log-based
// persistence schemes (undo-logging transactions, redo-logging transactions,
// hardware-transactional persistence) write their per-core transaction logs
// into. Like the JIT-checkpoint area, the log area sits inside the
// persistence domain: a record is durable the moment AppendLog returns, and
// the area survives PowerFail untouched.

// LogRecord is one durable entry in a core's persist log. Data records
// carry an address/value pair — a pre-image for undo logging, a new value
// for redo logging. Marker records close a region: they carry the core's
// absolute committed-instruction count at the boundary and delimit the
// log's replayable (redo) or rollback (undo) span.
type LogRecord struct {
	// Addr is the word-aligned address (data records).
	Addr uint64
	// Val is the logged word value (data records): the pre-store value for
	// undo logs, the stored value for redo logs.
	Val uint64
	// Committed is the core's absolute committed-instruction count at the
	// region boundary (marker records only).
	Committed int
	// Marker distinguishes a region-commit marker from a data record.
	Marker bool
}

// EnsureLogArea sizes the per-core log area for the given core count,
// preserving existing contents. The persist machinery calls it once at
// system construction; AppendLog on an unsized core is a programming error.
func (d *Device) EnsureLogArea(cores int) {
	for len(d.plog) < cores {
		d.plog = append(d.plog, nil)
	}
}

// AppendLog appends one record to a core's log. The record is durable
// immediately (the log area is inside the persistence domain) and every
// attached log observer fires — the oracle's log-stream checker hangs off
// this, mirroring the accept-observer pattern of the image write path.
func (d *Device) AppendLog(core int, rec LogRecord) {
	d.plog[core] = append(d.plog[core], rec)
	for _, fn := range d.logObs {
		fn(core, rec)
	}
}

// AddLogObserver appends a log-append observer. Observers fire in
// attachment order, after the record is durable.
func (d *Device) AddLogObserver(fn func(core int, rec LogRecord)) {
	d.logObs = append(d.logObs, fn)
}

// SetLogObserver replaces the log-observer list with the given callback,
// or empties it for a nil one. A machine resumed on a surviving device
// empties it so the previous power-on period's observers stop observing
// the log.
func (d *Device) SetLogObserver(fn func(core int, rec LogRecord)) {
	d.logObs = d.logObs[:0]
	if fn != nil {
		d.logObs = append(d.logObs, fn)
	}
}

// LogObservers returns how many log-append observers are attached.
func (d *Device) LogObservers() int { return len(d.logObs) }

// LogRecords returns a core's log contents in append order. The slice
// aliases the durable area; callers must treat it as read-only. Cores
// beyond the sized area return nil (an empty log).
func (d *Device) LogRecords(core int) []LogRecord {
	if core >= len(d.plog) {
		return nil
	}
	return d.plog[core]
}

// TruncateLog keeps only the first n records of a core's log, discarding
// the suffix — recovery's disposal of rolled-back or uncommitted records.
// It fires no observers.
func (d *Device) TruncateLog(core, n int) {
	if core >= len(d.plog) || n < 0 || n >= len(d.plog[core]) {
		return
	}
	d.plog[core] = d.plog[core][:n]
}
