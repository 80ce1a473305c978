package multicore

// Window snapshots: everything one detailed sampling window needs to
// replay deterministically in isolation — per-core trace positions and
// stops, architectural registers, the golden memory contents, and the
// warm-up line sets — framed with the checkpoint codec's sections
// ([len u32 | payload | crc32c u32]) so torn or corrupted blobs are
// refused with the same typed errors as torn checkpoints.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ppa/internal/checkpoint"
	"ppa/internal/isa"
	"ppa/internal/nvm"
	"ppa/internal/workload"
)

// windowMagic and windowVersion identify the window-snapshot wire format.
const (
	windowMagic   = 0x50505753 // "PPWS"
	windowVersion = 1
)

// WindowSnapshot captures the start state of one detailed window.
type WindowSnapshot struct {
	// Positions and Stops give each core's window [start, end) in dynamic
	// instruction indices.
	Positions []int
	Stops     []int
	// Regs is each core's architectural register state at its position.
	Regs []isa.ArchState
	// Mems is each core's golden memory contents at its position. Their
	// union reconstructs the NVM image for the replay (exact for the
	// address-disjoint DRF workloads the schemes assume).
	Mems []map[uint64]uint64
	// Warm is each core's warm-up line set, oldest-touch first.
	Warm [][]uint64
}

// SnapshotWindow captures the state the next detailed window would start
// from. Capture between windows (after NewSampled or any completed
// RunWindow); the snapshot shares no storage with the live system.
func (s *SampledSystem) SnapshotWindow() *WindowSnapshot {
	n := len(s.pos)
	ws := &WindowSnapshot{
		Positions: append([]int(nil), s.pos...),
		Stops:     make([]int, n),
		Regs:      make([]isa.ArchState, n),
		Mems:      make([]map[uint64]uint64, n),
		Warm:      make([][]uint64, n),
	}
	for i := 0; i < n; i++ {
		ws.Stops[i] = minInt(s.pos[i]+s.sc.Window, s.w.Threads[i].Len())
		g := s.engine.Golden(i)
		ws.Regs[i] = g.Regs
		ws.Mems[i] = g.Mem.Snapshot()
		ws.Warm[i] = s.warm[i].Lines()
	}
	return ws
}

// Encode serializes the snapshot. The encoding is canonical (memory words
// sorted by address), so equal snapshots encode byte-identically.
func (ws *WindowSnapshot) Encode() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, windowMagic)

	hdr := []byte{windowVersion}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(ws.Positions)))
	b = checkpoint.AppendSection(b, hdr)

	for i := range ws.Positions {
		var meta []byte
		meta = binary.LittleEndian.AppendUint64(meta, uint64(ws.Positions[i]))
		meta = binary.LittleEndian.AppendUint64(meta, uint64(ws.Stops[i]))
		b = checkpoint.AppendSection(b, meta)

		var regs []byte
		for _, v := range ws.Regs[i].Int {
			regs = binary.LittleEndian.AppendUint64(regs, v)
		}
		for _, v := range ws.Regs[i].FP {
			regs = binary.LittleEndian.AppendUint64(regs, v)
		}
		b = checkpoint.AppendSection(b, regs)

		addrs := make([]uint64, 0, len(ws.Mems[i]))
		for a := range ws.Mems[i] {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(x, y int) bool { return addrs[x] < addrs[y] })
		mem := binary.LittleEndian.AppendUint32(nil, uint32(len(addrs)))
		for _, a := range addrs {
			mem = binary.LittleEndian.AppendUint64(mem, a)
			mem = binary.LittleEndian.AppendUint64(mem, ws.Mems[i][a])
		}
		b = checkpoint.AppendSection(b, mem)

		warm := binary.LittleEndian.AppendUint32(nil, uint32(len(ws.Warm[i])))
		for _, line := range ws.Warm[i] {
			warm = binary.LittleEndian.AppendUint64(warm, line)
		}
		b = checkpoint.AppendSection(b, warm)
	}
	return b
}

// DecodeWindowSnapshot parses an encoded window snapshot, validating the
// magic, version, per-section checksums, and structure.
func DecodeWindowSnapshot(b []byte) (*WindowSnapshot, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d bytes, window header needs 4", checkpoint.ErrTruncated, len(b))
	}
	if m := binary.LittleEndian.Uint32(b[:4]); m != windowMagic {
		return nil, fmt.Errorf("%w: %#x", checkpoint.ErrBadMagic, m)
	}
	rest := b[4:]
	hdr, rest, err := checkpoint.NextSection(rest)
	if err != nil {
		return nil, err
	}
	if len(hdr) != 5 {
		return nil, fmt.Errorf("%w: window header of %d bytes", checkpoint.ErrCorrupt, len(hdr))
	}
	if v := hdr[0]; v != windowVersion {
		return nil, fmt.Errorf("%w: window snapshot version %d", checkpoint.ErrBadVersion, v)
	}
	cores := int(binary.LittleEndian.Uint32(hdr[1:5]))
	if cores <= 0 || cores > 1<<16 {
		return nil, fmt.Errorf("%w: %d cores", checkpoint.ErrCorrupt, cores)
	}
	ws := &WindowSnapshot{
		Positions: make([]int, cores),
		Stops:     make([]int, cores),
		Regs:      make([]isa.ArchState, cores),
		Mems:      make([]map[uint64]uint64, cores),
		Warm:      make([][]uint64, cores),
	}
	const regWords = isa.NumIntRegs + isa.NumFPRegs
	for i := 0; i < cores; i++ {
		var meta, regs, mem, warm []byte
		if meta, rest, err = checkpoint.NextSection(rest); err != nil {
			return nil, fmt.Errorf("core %d meta: %w", i, err)
		}
		if len(meta) != 16 {
			return nil, fmt.Errorf("%w: core %d meta of %d bytes", checkpoint.ErrCorrupt, i, len(meta))
		}
		ws.Positions[i] = int(binary.LittleEndian.Uint64(meta[0:8]))
		ws.Stops[i] = int(binary.LittleEndian.Uint64(meta[8:16]))
		if ws.Positions[i] < 0 || ws.Stops[i] < ws.Positions[i] {
			return nil, fmt.Errorf("%w: core %d window [%d,%d)", checkpoint.ErrCorrupt, i, ws.Positions[i], ws.Stops[i])
		}

		if regs, rest, err = checkpoint.NextSection(rest); err != nil {
			return nil, fmt.Errorf("core %d regs: %w", i, err)
		}
		if len(regs) != regWords*8 {
			return nil, fmt.Errorf("%w: core %d regs of %d bytes", checkpoint.ErrCorrupt, i, len(regs))
		}
		for r := 0; r < isa.NumIntRegs; r++ {
			ws.Regs[i].Int[r] = binary.LittleEndian.Uint64(regs[r*8:])
		}
		for r := 0; r < isa.NumFPRegs; r++ {
			ws.Regs[i].FP[r] = binary.LittleEndian.Uint64(regs[(isa.NumIntRegs+r)*8:])
		}

		if mem, rest, err = checkpoint.NextSection(rest); err != nil {
			return nil, fmt.Errorf("core %d mem: %w", i, err)
		}
		if len(mem) < 4 {
			return nil, fmt.Errorf("%w: core %d mem section of %d bytes", checkpoint.ErrCorrupt, i, len(mem))
		}
		words := int(binary.LittleEndian.Uint32(mem[:4]))
		if len(mem) != 4+words*16 {
			return nil, fmt.Errorf("%w: core %d mem claims %d words in %d bytes", checkpoint.ErrCorrupt, i, words, len(mem))
		}
		ws.Mems[i] = make(map[uint64]uint64, words)
		for wd := 0; wd < words; wd++ {
			a := binary.LittleEndian.Uint64(mem[4+wd*16:])
			v := binary.LittleEndian.Uint64(mem[12+wd*16:])
			ws.Mems[i][a] = v
		}

		if warm, rest, err = checkpoint.NextSection(rest); err != nil {
			return nil, fmt.Errorf("core %d warm: %w", i, err)
		}
		if len(warm) < 4 {
			return nil, fmt.Errorf("%w: core %d warm section of %d bytes", checkpoint.ErrCorrupt, i, len(warm))
		}
		lines := int(binary.LittleEndian.Uint32(warm[:4]))
		if len(warm) != 4+lines*8 {
			return nil, fmt.Errorf("%w: core %d warm claims %d lines in %d bytes", checkpoint.ErrCorrupt, i, lines, len(warm))
		}
		ws.Warm[i] = make([]uint64, lines)
		for l := 0; l < lines; l++ {
			ws.Warm[i][l] = binary.LittleEndian.Uint64(warm[4+l*8:])
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after window snapshot", checkpoint.ErrCorrupt, len(rest))
	}
	return ws, nil
}

// RestoreWindow rebuilds one detailed window from a snapshot — fresh NVM
// device seeded with the snapshot memory, fresh hierarchy warm-installed
// with the snapshot line sets, cores front-seeded at their positions and
// capped at their stops — runs it to quiescence, drains the persist paths,
// and returns the window's collected results. Two restores of the same
// snapshot are fully independent and produce identical results.
func RestoreWindow(cfg Config, w *workload.Workload, ws *WindowSnapshot) (*Result, error) {
	if len(ws.Positions) != len(w.Threads) {
		return nil, fmt.Errorf("multicore: snapshot has %d cores, workload %d", len(ws.Positions), len(w.Threads))
	}
	dev := nvm.NewDevice(cfg.NVM)
	img := dev.Image()
	fronts := make([]*isa.GoldenResult, len(w.Threads))
	for i := range w.Threads {
		if ws.Stops[i] > w.Threads[i].Len() {
			return nil, fmt.Errorf("multicore: snapshot stop %d past core %d trace end %d",
				ws.Stops[i], i, w.Threads[i].Len())
		}
		mem := isa.NewMapMemory()
		for a, v := range ws.Mems[i] {
			mem.WriteWord(a, v)
			img.WriteWord(a, v)
		}
		fronts[i] = &isa.GoldenResult{Mem: mem, Regs: ws.Regs[i], Executed: ws.Positions[i]}
	}
	cfg.fronts = fronts
	cfg.stops = append([]int(nil), ws.Stops...)
	cfg.engine = nil // replay runs with its own (or no) lockstep oracle
	sys, err := newSystem(cfg, w, dev, append([]int(nil), ws.Positions...))
	if err != nil {
		return nil, err
	}
	for i := range w.Threads {
		sys.hier.WarmInstall(i, ws.Warm[i])
	}
	windowInsts := 0
	for i := range ws.Positions {
		windowInsts += ws.Stops[i] - ws.Positions[i]
	}
	bound := CycleBudget(windowInsts)
	if err := sys.Run(bound); err != nil {
		return nil, err
	}
	windowCycles := sys.Cycle()
	if err := sys.drainAll(bound); err != nil {
		return nil, err
	}
	res := sys.Collect()
	res.Cycles = windowCycles // report detailed-window cycles, not drain tail
	return res, nil
}
