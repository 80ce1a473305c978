package isa

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Binary trace format: a fixed 32-byte record per dynamic instruction,
// little-endian, preceded by a magic/version header and the program name.
// The format lets traces be stored, diffed, and consumed by external tools
// without regenerating them.

const (
	traceMagic   = uint32(0x50504154) // "PPAT"
	traceVersion = uint32(1)
	recordBytes  = 32
)

// EncodeProgram writes a program to w in the binary trace format.
func EncodeProgram(w io.Writer, p *Program) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.Name)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(p.Insts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(p.Name); err != nil {
		return err
	}
	var rec [recordBytes]byte
	for i := range p.Insts {
		in := &p.Insts[i]
		binary.LittleEndian.PutUint64(rec[0:], in.PC)
		rec[8] = byte(in.Op)
		rec[9] = byte(in.Dst.Class)
		rec[10] = in.Dst.Index
		rec[11] = byte(in.Src1.Class)
		rec[12] = in.Src1.Index
		rec[13] = byte(in.Src2.Class)
		rec[14] = in.Src2.Index
		rec[15] = 0
		binary.LittleEndian.PutUint64(rec[16:], in.Addr)
		binary.LittleEndian.PutUint64(rec[24:], uint64(in.Imm))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
