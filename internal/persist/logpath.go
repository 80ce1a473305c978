package persist

// LogPath is every scheme's dedicated persist backend: per-core bounded
// buffers feeding one shared drain path to NVM, plus the log discipline's
// commit protocol (what a store logs, what a region boundary does when it
// arms, whether it waits for the drain, what it does at close) and crash
// recovery over the device's durable log area (nvm.LogRecord).
//
// Four modes share the structure:
//
//   - LogModeBattery (Capri): a battery-backed redo buffer. The store's new
//     value goes straight into the image at TryAccept and the entry queues
//     on the shared path; there is no log record and no marker. Capri's
//     fixed-region barrier waits for the core's entries to drain (plus its
//     bookkeeping bubble); its sync boundaries do not wait.
//
//   - LogModeUndo (UndoLog): write-ahead pre-images. A record is durable at
//     TryAccept; the shared path models the log-write bandwidth the region
//     boundary waits out. In-place data goes through the async persist
//     path; the marker is appended at close, once the region is durable;
//     recovery rolls the image back to the last marker by reverse-applying
//     the pre-images logged after it.
//
//   - LogModeRedo (RedoTxn): write-ahead new values. A record is durable at
//     TryAccept, but its image application is authorized only by the
//     region's commit marker, appended when the boundary arms, and then
//     drains lazily in the background (Marathe-style cheap commit, lazy
//     replay). The boundary does not wait; a crash discards the in-flight
//     applications and recovery replays the log up to the last marker.
//
//   - LogModeStaged (HTPM): records buffer in a volatile hardware
//     transaction log and flush to the durable log, followed by the marker,
//     when the boundary arms (Giles-style back-end log flush on transaction
//     commit), ahead of the data burst; the boundary waits for the flush to
//     drain. Unflushed records die with the power failure — their
//     transaction never committed.

import (
	"ppa/internal/isa"
	"ppa/internal/mutation"
	"ppa/internal/nvm"
)

// LogMode selects the log discipline (see the file comment).
type LogMode int

const (
	LogModeUndo LogMode = iota
	LogModeRedo
	LogModeStaged
	LogModeBattery
)

// LogPath is the shared persist machinery for all cores.
type LogPath struct {
	perCoreCap int // records per core
	drainCyc   int // shared-path cycles per 8-byte record
	mode       LogMode
	dev        *nvm.Device

	queue    []uint8           // FIFO of core ids on the shared path
	pending  []int             // per-core records (battery: entries) on the shared path
	unauth   []int             // per-core records logged but not yet marker-authorized (redo)
	applied  []int             // per-core log positions already applied to the image (redo)
	buf      [][]nvm.LogRecord // per-core volatile transaction buffers (staged)
	busyTill uint64

	Accepts  uint64
	Rejects  uint64
	MaxDepth int
}

// NewLogPath builds the shared log machinery for n cores: bufBytes of
// outstanding-record capacity per core, one shared path draining an 8-byte
// record every drainCycles. It sizes the device's durable log area and
// treats any pre-existing log contents (a resumed system) as already
// applied.
func NewLogPath(cores, bufBytes, drainCycles int, mode LogMode, dev *nvm.Device) *LogPath {
	if cores < 1 {
		cores = 1
	}
	cap := bufBytes / isa.WordSize
	if cap < 1 {
		cap = 1
	}
	if drainCycles < 1 {
		drainCycles = 1
	}
	l := &LogPath{
		perCoreCap: cap,
		drainCyc:   drainCycles,
		mode:       mode,
		dev:        dev,
		pending:    make([]int, cores),
		unauth:     make([]int, cores),
		applied:    make([]int, cores),
	}
	if mode == LogModeStaged {
		l.buf = make([][]nvm.LogRecord, cores)
	}
	l.Reset()
	return l
}

// Reset returns the path to the state NewLogPath builds over its device:
// nothing queued, buffered or awaiting authorization, zero statistics, and
// every record already in the device's log area (none, once the device is
// reset) counted as applied. It keeps the per-core counters and buffers.
func (l *LogPath) Reset() {
	l.dev.EnsureLogArea(len(l.pending))
	clear(l.pending)
	clear(l.unauth)
	for i := range l.applied {
		l.applied[i] = len(l.dev.LogRecords(i))
	}
	for i := range l.buf {
		l.buf[i] = l.buf[i][:0]
	}
	*l = LogPath{
		perCoreCap: l.perCoreCap,
		drainCyc:   l.drainCyc,
		mode:       l.mode,
		dev:        l.dev,
		queue:      l.queue[:0],
		pending:    l.pending,
		unauth:     l.unauth,
		applied:    l.applied,
		buf:        l.buf,
	}
}

// outstanding is a core's records not yet retired from the path: buffered,
// awaiting authorization, or draining.
func (l *LogPath) outstanding(core int) int {
	if l.mode == LogModeStaged {
		return len(l.buf[core]) + l.pending[core]
	}
	return l.unauth[core] + l.pending[core]
}

// TryAccept offers one committed store's log record; false means the
// core's buffer is full and commit must stall. In the write-ahead modes
// the record is durable on return; in battery mode the value is.
func (l *LogPath) TryAccept(core int, addr, val uint64) bool {
	if l.outstanding(core) >= l.perCoreCap {
		l.Rejects++
		return false
	}
	rec := nvm.LogRecord{Addr: addr, Val: val}
	switch l.mode {
	case LogModeBattery:
		l.dev.Image().WriteWord(isa.WordAlign(addr), val)
		l.enqueue(core)
	case LogModeStaged:
		l.buf[core] = append(l.buf[core], rec)
	case LogModeRedo:
		l.dev.AppendLog(core, rec)
		l.unauth[core]++
	default: // LogModeUndo
		l.dev.AppendLog(core, rec)
		l.enqueue(core)
	}
	l.Accepts++
	return true
}

// LogsPreImage reports whether a store's record carries the word's
// pre-image (undo) rather than its new value (every other mode).
func (l *LogPath) LogsPreImage() bool { return l.mode == LogModeUndo }

// ArmBoundary is the discipline's transaction commit when a core's region
// boundary arms with committed instructions retired: HTPM first flushes
// its staged buffer to the durable log, then the redo disciplines append
// the region-commit marker, which for RedoTxn authorizes the region's
// records for lazy background image application. Undo and battery do
// nothing here.
func (l *LogPath) ArmBoundary(core, committed int) {
	if l.mode == LogModeStaged {
		l.FlushBuffered(core)
	}
	if l.mode == LogModeRedo || l.mode == LogModeStaged {
		l.AppendMarker(core, committed)
	}
}

// BoundaryWaits reports whether a core's armed boundary must keep waiting
// for its records to drain the shared path. The undo and staged
// disciplines wait out the log-write bandwidth; RedoTxn deliberately does
// not (its commit is cheap, the replay drains in the background), and
// neither do Capri's sync boundaries (its fixed-region barrier waits on
// PendingOf itself).
func (l *LogPath) BoundaryWaits(core int) bool {
	return (l.mode == LogModeUndo || l.mode == LogModeStaged) && l.pending[core] > 0
}

// CloseBoundary is the discipline's part of a completed region close:
// undo logging appends its region-commit marker only now, after the
// region's in-place stores and pre-image log writes are all durable — the
// marker asserts the pre-images ahead of it are dead.
func (l *LogPath) CloseBoundary(core, committed int) {
	if l.mode == LogModeUndo {
		l.AppendMarker(core, committed)
	}
}

// FlushBuffered moves a core's staged transaction buffer to the durable
// log and onto the shared drain path (HTPM's commit-time back-end flush).
func (l *LogPath) FlushBuffered(core int) {
	for _, rec := range l.buf[core] {
		l.dev.AppendLog(core, rec)
		l.enqueue(core)
	}
	l.buf[core] = l.buf[core][:0]
}

// AppendMarker durably appends a core's region-commit marker carrying its
// absolute committed-instruction count, and (redo) authorizes the region's
// records for background image application.
func (l *LogPath) AppendMarker(core, committed int) {
	l.dev.AppendLog(core, nvm.LogRecord{Committed: committed, Marker: true})
	if l.mode == LogModeRedo {
		for l.unauth[core] > 0 {
			l.unauth[core]--
			l.enqueue(core)
		}
	}
}

func (l *LogPath) enqueue(core int) {
	l.pending[core]++
	l.queue = append(l.queue, uint8(core))
	if len(l.queue) > l.MaxDepth {
		l.MaxDepth = len(l.queue)
	}
}

// PendingOf returns a core's undrained shared-path record count — the
// boundary wait target for the undo and staged disciplines and for
// Capri's fixed-region barrier.
func (l *LogPath) PendingOf(core int) int { return l.pending[core] }

// Tick drains the shared path at its bandwidth. In redo mode each drained
// slot applies the core's next authorized log record to the durable image
// (the lazy commit-time replay).
func (l *LogPath) Tick(cycle uint64) {
	if len(l.queue) == 0 || l.busyTill > cycle {
		return
	}
	core := int(l.queue[0])
	l.queue = l.queue[1:]
	l.pending[core]--
	if l.mode == LogModeRedo {
		l.applyOne(core)
	}
	l.busyTill = cycle + uint64(l.drainCyc)
}

// applyOne advances a core's applied pointer past markers and writes one
// data record into the image.
func (l *LogPath) applyOne(core int) {
	recs := l.dev.LogRecords(core)
	for l.applied[core] < len(recs) {
		rec := recs[l.applied[core]]
		l.applied[core]++
		if rec.Marker {
			continue
		}
		if mutation.Is(mutation.LogReplaySkipsLast) &&
			l.applied[core] < len(recs) && recs[l.applied[core]].Marker {
			// Seeded bug LogReplaySkipsLast: the replay cursor treats the
			// commit marker as the region terminator and drops the data
			// record just before it — the same off-by-one here in the lazy
			// applier and below in RecoverLog, so the region's newest store
			// never reaches the image.
			return
		}
		l.dev.Image().WriteWord(rec.Addr, rec.Val)
		return
	}
}

// PowerFail models the outage: the shared path's in-flight applications
// and the staged volatile buffers are lost; the durable log area survives
// for recovery, and battery-backed entries were already reflected in the
// image at accept.
func (l *LogPath) PowerFail() {
	l.queue = nil
	for i := range l.pending {
		l.pending[i] = 0
		l.unauth[i] = 0
	}
	for i := range l.buf {
		l.buf[i] = nil
	}
	l.busyTill = 0
}

// RecoverLog reconstructs the durable image from the per-core persist logs
// after a power failure and returns each core's recovery point in absolute
// committed instructions (its last region-commit marker; zero — or the
// resume epoch's base — when no region ever committed).
//
// Undo: records after the last marker are reverse-applied (newest first),
// rolling the image back to the marker state; they are then discarded.
// Redo: records before the last marker replay forward into the image —
// idempotent against whatever the background applier already wrote — and
// the uncommitted suffix after the marker is discarded.
func RecoverLog(cfg Config, dev *nvm.Device, cores int) ([]int, error) {
	points := make([]int, cores)
	img := dev.Image()
	for core := 0; core < cores; core++ {
		recs := dev.LogRecords(core)
		last := -1
		for i := range recs {
			if recs[i].Marker {
				last = i
			}
		}
		if last >= 0 {
			points[core] = recs[last].Committed
		}
		if cfg.UndoLogStores {
			rollFrom := last
			if mutation.Is(mutation.UndoAppliedAfterCommit) && last >= 1 && !recs[last-1].Marker {
				// Seeded bug UndoAppliedAfterCommit: the rollback scan runs
				// one record past the commit marker, reverting the newest
				// store the marker had already committed (recs[last-1]).
				rollFrom = last - 2
			}
			for i := len(recs) - 1; i > rollFrom; i-- {
				if recs[i].Marker {
					continue
				}
				img.WriteWord(recs[i].Addr, recs[i].Val)
			}
		} else {
			skipTail := mutation.Is(mutation.LogReplaySkipsLast)
			for i := 0; i < last; i++ {
				if recs[i].Marker {
					continue
				}
				if skipTail && recs[i+1].Marker {
					// Seeded bug LogReplaySkipsLast: the replay cursor
					// treats each commit marker as the region terminator
					// and stops one record short of it, dropping every
					// region's newest logged store (the lazy applier above
					// shares the same cursor logic, so the store never
					// reaches the image on either path).
					continue
				}
				img.WriteWord(recs[i].Addr, recs[i].Val)
			}
		}
		// Truncate: drop the rolled-back / uncommitted suffix and keep the
		// replayed prefix plus the marker as the resume anchor.
		dev.TruncateLog(core, last+1)
	}
	return points, nil
}
