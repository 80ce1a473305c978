// Package checkpoint implements PPA's just-in-time checkpointing
// (Section 4.5): on the Power_Fail signal, a small FSM-driven controller
// dumps five structures to a designated NVM area — the CSQ, the LCPC, the
// CRT, MaskReg, and the physical registers referenced by the CSQ or CRT.
// The package provides the checkpoint image, a byte encoding (what the
// controller streams over the non-temporal path at 8 bytes per cycle), and
// CostModel, the one timing/energy model of that dump (Section 7.13). The
// controller itself is not simulated cycle by cycle: a crash encodes every
// image at once, and a torn dump is that stream cut short.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"ppa/internal/isa"
	"ppa/internal/mutation"
	"ppa/internal/pipeline"
	"ppa/internal/rename"
)

// RegValue is one checkpointed physical register.
type RegValue struct {
	Phys rename.PhysRef
	Val  uint64
}

// Image is the content of one core's JIT checkpoint.
type Image struct {
	CoreID int
	LCPC   uint64
	// Committed is simulation metadata (derivable from LCPC in hardware):
	// the count of committed instructions, used by verification.
	Committed int

	CSQ     []pipeline.CSQEntry
	CRT     []rename.TableSnapshot
	MaskInt []bool
	MaskFP  []bool
	Regs    []RegValue
}

// Core is what a JIT checkpoint reads from a core: the CSQ, the LCPC, the
// commit count and the renamer, which is nil on a core that renames
// nothing (Section 6's in-order core).
type Core interface {
	CSQ() []pipeline.CSQEntry
	LCPC() uint64
	Committed() int
	Renamer() *rename.Renamer
}

// CaptureFrom makes im a snapshot of a core's architectural recovery
// state, with CoreID zero, reusing im's storage. It holds exactly the five
// structures of Figure 7: only registers marked by CRT or CSQ entries are
// saved — free and uncommitted registers are not (Section 4.5). Without a
// renamer the image is the value-bearing CSQ, the LCPC and the commit
// count.
func (im *Image) CaptureFrom(core Core) {
	*im = Image{
		LCPC:      core.LCPC(),
		Committed: core.Committed(),
		CSQ:       append(im.CSQ[:0], core.CSQ()...),
		CRT:       im.CRT[:0],
		MaskInt:   im.MaskInt[:0],
		MaskFP:    im.MaskFP[:0],
		Regs:      im.Regs[:0],
	}
	ren := core.Renamer()
	if ren == nil {
		return
	}
	im.CRT = ren.CRTSnapshot(im.CRT)
	im.MaskInt = ren.MaskSnapshot(im.MaskInt, isa.ClassInt)
	im.MaskFP = ren.MaskSnapshot(im.MaskFP, isa.ClassFP)

	// Collect the referenced physical registers: CSQ sources first, then
	// CRT mappings, de-duplicated by one bit per register of each class
	// (MaskReg has one entry per physical register).
	regs := len(im.CSQ)
	for _, t := range im.CRT {
		regs += len(t.CRT)
	}
	im.Regs = slices.Grow(im.Regs, regs)
	intWords := (len(im.MaskInt) + 63) / 64
	words := intWords + (len(im.MaskFP)+63)/64
	seen := make([]uint64, words)
	addReg := func(p rename.PhysRef) {
		var bit int
		switch p.Class {
		case isa.ClassInt:
			bit = int(p.Idx)
		case isa.ClassFP:
			bit = intWords*64 + int(p.Idx)
		default:
			return
		}
		if seen[bit/64]&(1<<(bit%64)) != 0 {
			return
		}
		seen[bit/64] |= 1 << (bit % 64)
		im.Regs = append(im.Regs, RegValue{Phys: p, Val: ren.Read(p)})
	}
	if !mutation.Is(mutation.CheckpointDropCSQRegs) {
		// Seeded bug CheckpointDropCSQRegs: the checkpoint keeps only the
		// CRT-referenced registers, so CSQ entries whose source was already
		// displaced from the CRT reference a register the image never saved.
		for _, e := range im.CSQ {
			if !e.ValueBearing {
				addReg(e.Phys)
			}
		}
	}
	for _, t := range im.CRT {
		for _, idx := range t.CRT {
			addReg(rename.PhysRef{Class: t.Class, Idx: idx})
		}
	}
}

// magic identifies an encoded checkpoint blob.
const magic = uint32(0x50504143) // "PPAC"

// FormatVersion is the checkpoint wire-format version. Version 2 added the
// length-framed header and per-section CRC32 checksums so that recovery can
// detect torn (truncated mid-dump) and corrupted (NVM fault) images instead
// of trusting raw bytes.
const FormatVersion = 2

// headerBytes is the fixed image header: magic, version, total image
// length, and a CRC32 over those three fields.
const headerBytes = 16

// Typed decode errors. Decode wraps them with positional detail; match with
// errors.Is.
var (
	// ErrBadMagic reports a blob that does not start with the checkpoint
	// magic — the designated area holds something else (or nothing).
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion reports an unsupported wire-format version.
	ErrBadVersion = errors.New("checkpoint: unsupported format version")
	// ErrTruncated reports a torn image: the blob ends before the length
	// the header (or a section frame) promises — the capacitor ran out
	// mid-dump, or the tail of the stream never reached the media.
	ErrTruncated = errors.New("checkpoint: truncated image")
	// ErrChecksum reports a section whose stored CRC32 does not match its
	// payload — a bit flip or torn word inside the checkpoint region.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrCorrupt reports a blob that frames correctly but carries
	// structurally implausible fields.
	ErrCorrupt = errors.New("checkpoint: corrupt image")
)

// section identifies one checksummed unit of the encoding. The five
// architectural structures of Figure 7 map onto them: LCPC (with the core
// id and commit count) into meta, and each remaining structure into its own
// section, in controller dump order.
type section int

const (
	secMeta section = iota
	secCSQ
	secCRT
	secMask
	secRegs
	numSections
)

func (s section) String() string {
	switch s {
	case secMeta:
		return "meta"
	case secCSQ:
		return "CSQ"
	case secCRT:
		return "CRT"
	case secMask:
		return "MaskReg"
	case secRegs:
		return "PRF"
	default:
		return "?"
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendSection frames one section payload as [len u32 | payload | crc u32],
// with the CRC covering the length field and the payload.
func appendSection(b, payload []byte) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

func encodeMaskInto(b []byte, mask []bool) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(mask)))
	var cur byte
	var nbits int
	for _, m := range mask {
		cur <<= 1
		if m {
			cur |= 1
		}
		nbits++
		if nbits == 8 {
			b = append(b, cur)
			cur, nbits = 0, 0
		}
	}
	if nbits > 0 {
		b = append(b, cur<<(8-nbits))
	}
	return b
}

// payloadSizes returns the byte size of each section's payload, in dump
// order: what appendPayload writes for it. Framed, a section takes 8 bytes
// more.
func (im *Image) payloadSizes() [numSections]int {
	var out [numSections]int
	out[secMeta] = 4 + 8 + 8
	out[secCSQ] = 4 + len(im.CSQ)*(4+4+8+8+8)
	out[secCRT] = 4
	for _, t := range im.CRT {
		out[secCRT] += 4 + 4 + 4*len(t.CRT)
	}
	out[secMask] = 4 + (len(im.MaskInt)+7)/8 + 4 + (len(im.MaskFP)+7)/8
	out[secRegs] = 4 + len(im.Regs)*(4+4+8)
	return out
}

// appendPayload appends section s's payload to b.
func (im *Image) appendPayload(b []byte, s section) []byte {
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	switch s {
	case secMeta:
		b = u32(b, uint32(im.CoreID))
		b = u64(b, im.LCPC)
		b = u64(b, uint64(im.Committed))
	case secCSQ:
		b = u32(b, uint32(len(im.CSQ)))
		for _, e := range im.CSQ {
			flags := uint32(e.Phys.Class)
			if e.ValueBearing {
				flags |= 1 << 8
			}
			b = u32(b, flags)
			b = u32(b, uint32(e.Phys.Idx))
			b = u64(b, e.Addr)
			b = u64(b, e.Val)
			b = u64(b, uint64(e.Seq))
		}
	case secCRT:
		b = u32(b, uint32(len(im.CRT)))
		for _, t := range im.CRT {
			b = u32(b, uint32(t.Class))
			b = u32(b, uint32(len(t.CRT)))
			for _, idx := range t.CRT {
				b = u32(b, uint32(idx))
			}
		}
	case secMask:
		b = encodeMaskInto(b, im.MaskInt)
		b = encodeMaskInto(b, im.MaskFP)
	case secRegs:
		b = u32(b, uint32(len(im.Regs)))
		for _, r := range im.Regs {
			b = u32(b, uint32(r.Phys.Class))
			b = u32(b, uint32(r.Phys.Idx))
			b = u64(b, r.Val)
		}
	}
	return b
}

// Encode serializes the image to the byte stream the controller writes:
// a fixed header (magic, version, total length, header CRC) followed by the
// five sections, each framed with its length and a CRC32C of length+payload.
// It writes them into one buffer of the encoded length.
func (im *Image) Encode() []byte {
	return im.appendEncoding(make([]byte, 0, im.EncodedLen()))
}

// EncodeAll serializes images back to back, in order: the whole
// checkpoint area DecodeAll parses. It encodes into dst's storage when it
// holds their encoded length, and otherwise into a new buffer of exactly
// that length.
func EncodeAll(dst []byte, images []*Image) []byte {
	total := 0
	for _, im := range images {
		total += im.EncodedLen()
	}
	if cap(dst) < total {
		dst = make([]byte, 0, total)
	}
	b := dst[:0]
	for _, im := range images {
		b = im.appendEncoding(b)
	}
	return b
}

// appendEncoding appends the image's encoding to b.
func (im *Image) appendEncoding(b []byte) []byte {
	sizes, total := im.payloadSizes(), im.EncodedLen()
	head := len(b)
	b = binary.LittleEndian.AppendUint32(b, magic)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(total))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[head:head+12], crcTable))
	for s, n := range sizes {
		start := len(b)
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		b = im.appendPayload(b, section(s))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
	}
	return b
}

// EncodedLen returns len(Encode()), computed without encoding.
func (im *Image) EncodedLen() int {
	total := headerBytes
	for _, n := range im.payloadSizes() {
		total += 8 + n
	}
	return total
}

// StructuresCovered returns how many leading dump units of the image — the
// header, then its sections in stream order — are fully durable when a
// brownout cuts its stream after n bytes. This is the per-structure
// granularity of a torn dump: a brownout after the CSQ section leaves the
// CSQ recoverable even though the register file never made it.
func (im *Image) StructuresCovered(n int) int {
	if n < headerBytes {
		return 0
	}
	n -= headerBytes
	covered := 1
	for _, p := range im.payloadSizes() {
		if n < 8+p {
			break
		}
		n -= 8 + p
		covered++
	}
	return covered
}

// AppendSection exposes the checkpoint wire framing — [len u32 | payload |
// crc32c u32], CRC covering length and payload — for sibling formats (the
// forensics bundles) so every persistent blob in the tree shares one
// integrity convention.
func AppendSection(b, payload []byte) []byte { return appendSection(b, payload) }

// NextSection parses one AppendSection frame from the front of b,
// returning the payload and the remaining bytes. Errors wrap ErrTruncated
// or ErrChecksum like the checkpoint decoder's own sections.
func NextSection(b []byte) (payload, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: %d bytes, section length needs 4", ErrTruncated, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	end := 4 + n
	if len(b) < end+4 {
		return nil, nil, fmt.Errorf("%w: section of %d bytes in %d remaining", ErrTruncated, n, len(b))
	}
	want := binary.LittleEndian.Uint32(b[end : end+4])
	if got := crc32.Checksum(b[:end], crcTable); got != want {
		return nil, nil, fmt.Errorf("%w: section crc %#x, stored %#x", ErrChecksum, got, want)
	}
	return b[4:end], b[end+4:], nil
}

// Decode parses one encoded checkpoint blob, validating the header, the
// per-section checksums, and structural plausibility. Trailing bytes after
// the image are an error; use DecodeAll for multi-image blobs.
func Decode(b []byte) (*Image, error) {
	im := new(Image)
	n, err := im.decode(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after image", ErrCorrupt, len(b)-n)
	}
	return im, nil
}

// DecodeAll parses a concatenation of encoded images (the whole checkpoint
// area), in stream order. It decodes into into's images, in order,
// reusing their storage, and allocates those it lacks (a nil into
// allocates them all): what it returns shares storage with into.
func DecodeAll(into []*Image, b []byte) ([]*Image, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty checkpoint area", ErrTruncated)
	}
	n := 0
	for off := 0; off < len(b); n++ {
		if n == len(into) {
			into = append(into, new(Image))
		}
		size, err := into[n].decode(b[off:])
		if err != nil {
			return nil, fmt.Errorf("image %d at offset %d: %w", n, off, err)
		}
		off += size
	}
	return into[:n], nil
}

// decode parses a single image from the front of b into im, reusing its
// storage, and returns its encoded length.
func (im *Image) decode(b []byte) (int, error) {
	if len(b) < headerBytes {
		return 0, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(b), headerBytes)
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != magic {
		return 0, fmt.Errorf("%w: %#x", ErrBadMagic, m)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != FormatVersion {
		return 0, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, FormatVersion)
	}
	total := int(binary.LittleEndian.Uint32(b[8:12]))
	if got, want := crc32.Checksum(b[:12], crcTable), binary.LittleEndian.Uint32(b[12:16]); got != want {
		return 0, fmt.Errorf("%w: header crc %#x, want %#x", ErrChecksum, got, want)
	}
	if total < headerBytes+int(numSections)*8 {
		return 0, fmt.Errorf("%w: implausible image length %d", ErrCorrupt, total)
	}
	if total > len(b) {
		return 0, fmt.Errorf("%w: %d of %d bytes present", ErrTruncated, len(b), total)
	}

	*im = Image{CSQ: im.CSQ[:0], CRT: im.CRT[:0], MaskInt: im.MaskInt[:0], MaskFP: im.MaskFP[:0], Regs: im.Regs[:0]}
	off := headerBytes
	for s := section(0); s < numSections; s++ {
		if total-off < 8 {
			return 0, fmt.Errorf("%w: %s section frame missing", ErrTruncated, s)
		}
		plen := int(binary.LittleEndian.Uint32(b[off : off+4]))
		if plen < 0 || plen > total-off-8 {
			return 0, fmt.Errorf("%w: %s section of %d bytes exceeds image", ErrTruncated, s, plen)
		}
		payload := b[off+4 : off+4+plen]
		stored := binary.LittleEndian.Uint32(b[off+4+plen : off+8+plen])
		if got := crc32.Checksum(b[off:off+4+plen], crcTable); got != stored {
			return 0, fmt.Errorf("%w: %s section crc %#x, want %#x", ErrChecksum, s, got, stored)
		}
		if err := im.decodeSection(s, payload); err != nil {
			return 0, err
		}
		off += 8 + plen
	}
	if off != total {
		return 0, fmt.Errorf("%w: %d bytes after last section", ErrCorrupt, total-off)
	}
	if err := im.Validate(); err != nil {
		return 0, err
	}
	return total, nil
}

// decodeSection parses one section payload into the image. The payload has
// already passed its checksum, so any parse failure is structural (a forged
// or software-built blob), reported as ErrCorrupt/ErrTruncated.
func (im *Image) decodeSection(s section, payload []byte) error {
	r := reader{b: payload}
	switch s {
	case secMeta:
		im.CoreID = int(r.u32())
		im.LCPC = r.u64()
		im.Committed = int(r.u64())

	case secCSQ:
		nCSQ := int(r.u32())
		if nCSQ < 0 || nCSQ > 1<<20 {
			return fmt.Errorf("%w: implausible CSQ length %d", ErrCorrupt, nCSQ)
		}
		im.CSQ = slices.Grow(im.CSQ, nCSQ)
		for i := 0; i < nCSQ && r.err == nil; i++ {
			flags := r.u32()
			idx := r.u32()
			e := pipeline.CSQEntry{
				Phys:         rename.PhysRef{Class: isa.RegClass(flags & 0xFF), Idx: uint16(idx)},
				Addr:         r.u64(),
				Val:          r.u64(),
				Seq:          int(r.u64()),
				ValueBearing: flags&(1<<8) != 0,
			}
			if e.ValueBearing {
				e.Phys = rename.PhysRef{}
			}
			im.CSQ = append(im.CSQ, e)
		}

	case secCRT:
		nCRT := int(r.u32())
		if nCRT < 0 || nCRT > 1<<8 {
			return fmt.Errorf("%w: implausible CRT table count %d", ErrCorrupt, nCRT)
		}
		for i := 0; i < nCRT && r.err == nil; i++ {
			t := rename.TableSnapshot{Class: isa.RegClass(r.u32())}
			n := int(r.u32())
			if n < 0 || n > 1<<16 {
				return fmt.Errorf("%w: implausible CRT length %d", ErrCorrupt, n)
			}
			var crt []uint16 // the storage of the table this one replaces
			if i < cap(im.CRT) {
				crt = im.CRT[:i+1][i].CRT
			}
			t.CRT = slices.Grow(crt[:0], n)[:n]
			for j := 0; j < n; j++ {
				t.CRT[j] = uint16(r.u32())
			}
			im.CRT = append(im.CRT, t)
		}

	case secMask:
		decodeMask := func(mask []bool) ([]bool, error) {
			n := int(r.u32())
			if n < 0 || n > 1<<20 {
				return nil, fmt.Errorf("%w: implausible mask length %d", ErrCorrupt, n)
			}
			mask = slices.Grow(mask[:0], n)[:n]
			for i := 0; i < n; i += 8 {
				byteVal := r.u8()
				for j := 0; j < 8 && i+j < n; j++ {
					mask[i+j] = byteVal&(1<<(7-j)) != 0
				}
			}
			return mask, nil
		}
		var err error
		if im.MaskInt, err = decodeMask(im.MaskInt); err != nil {
			return err
		}
		if im.MaskFP, err = decodeMask(im.MaskFP); err != nil {
			return err
		}

	case secRegs:
		nRegs := int(r.u32())
		if nRegs < 0 || nRegs > 1<<20 {
			return fmt.Errorf("%w: implausible register count %d", ErrCorrupt, nRegs)
		}
		for i := 0; i < nRegs && r.err == nil; i++ {
			class := isa.RegClass(r.u32())
			idx := uint16(r.u32())
			im.Regs = append(im.Regs, RegValue{
				Phys: rename.PhysRef{Class: class, Idx: idx},
				Val:  r.u64(),
			})
		}
	}
	if r.err != nil {
		return fmt.Errorf("%s section: %w", s, r.err)
	}
	if r.off != len(payload) {
		return fmt.Errorf("%w: %d unread bytes in %s section", ErrCorrupt, len(payload)-r.off, s)
	}
	return nil
}

// Validate checks the structural invariants recovery relies on: word-aligned
// CSQ addresses, plausible register classes, and a non-negative commit
// count. Decode calls it on every parsed image; recovery also calls it on
// images handed over in memory, so a fault-injected image fails with a typed
// error instead of corrupting replay.
func (im *Image) Validate() error {
	if im.Committed < 0 {
		return fmt.Errorf("%w: negative committed count %d", ErrCorrupt, im.Committed)
	}
	if im.CoreID < 0 {
		return fmt.Errorf("%w: negative core id %d", ErrCorrupt, im.CoreID)
	}
	for i, e := range im.CSQ {
		if isa.WordAlign(e.Addr) != e.Addr {
			return fmt.Errorf("%w: CSQ entry %d has unaligned address %#x", ErrCorrupt, i, e.Addr)
		}
		if !e.ValueBearing && e.Phys.Class != isa.ClassInt && e.Phys.Class != isa.ClassFP {
			return fmt.Errorf("%w: CSQ entry %d has register class %d", ErrCorrupt, i, e.Phys.Class)
		}
	}
	for i, t := range im.CRT {
		if t.Class != isa.ClassInt && t.Class != isa.ClassFP {
			return fmt.Errorf("%w: CRT table %d has class %d", ErrCorrupt, i, t.Class)
		}
	}
	for i, r := range im.Regs {
		if r.Phys.Class != isa.ClassInt && r.Phys.Class != isa.ClassFP {
			return fmt.Errorf("%w: register %d has class %d", ErrCorrupt, i, r.Phys.Class)
		}
	}
	return nil
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err == nil && r.off+n > len(r.b) {
		r.err = fmt.Errorf("%w: payload ends at offset %d", ErrTruncated, r.off)
	}
	if r.err != nil {
		return make([]byte, n)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte    { return r.take(1)[0] }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// RegValue returns the checkpointed value of physical register p, from its
// first entry in Regs (Capture saves each register once), and whether the
// image holds it.
func (im *Image) RegValue(p rename.PhysRef) (uint64, bool) {
	for _, r := range im.Regs {
		if r.Phys == p {
			return r.Val, true
		}
	}
	return 0, false
}
