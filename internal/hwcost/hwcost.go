// Package hwcost reproduces the paper's hardware cost accounting: the
// CACTI-style area/latency/energy estimates for PPA's three added
// structures at a 22 nm node (Table 4), and the JIT-flush energy and
// backup-capacitor sizing comparison against Capri and LightPC
// (Table 5 and Section 7.13).
//
// CACTI itself is a large cache-modeling tool; these structures are small
// SRAM/flip-flop arrays for which the published numbers are well fit by a
// per-bit area with an array-addressing overhead and logarithmic
// latency/energy terms. The model's constants are anchored so Table 4's
// published cells are reproduced to within a few percent.
package hwcost

import (
	"math"

	"ppa/internal/checkpoint"
)

// Node22nm holds the fitted constants for the 22 nm process the paper uses.
var Node22nm = Process{
	AreaPerBitUM2:    0.1906,
	ArrayAreaFactor:  1.123,
	LatBaseNS:        0.040,
	LatPerLog2BitNS:  0.0030,
	EnergyBasePJ:     0.00040,
	EnergySlopePJ:    0.0000133,
	CoreAreaMM2:      11.85, // Intel Xeon server core, excluding shared L2
	SRAMMoveNJPerB:   checkpoint.EnergyPerByteNJ,
	SupercapUJPerMM3: 360.0,   // 1e-4 Wh/cm^3
	LiThinUJPerMM3:   36000.0, // 1e-2 Wh/cm^3
}

// Process describes a technology node's fitted constants.
type Process struct {
	// AreaPerBitUM2 is storage area per bit for a flat register (um^2).
	AreaPerBitUM2 float64
	// ArrayAreaFactor is the additional decode/wiring overhead of an
	// addressed array (the CSQ) relative to a flat register.
	ArrayAreaFactor float64
	// LatBaseNS + LatPerLog2BitNS*log2(bits) is the access latency.
	LatBaseNS       float64
	LatPerLog2BitNS float64
	// EnergyBasePJ - EnergySlopePJ*log2(bits) is the per-access dynamic
	// energy (larger structures here read a fixed-width port, so the
	// per-access energy falls slightly with structure size).
	EnergyBasePJ  float64
	EnergySlopePJ float64
	// CoreAreaMM2 normalizes areal overhead.
	CoreAreaMM2 float64
	// SRAMMoveNJPerB is the measured energy to read a byte from SRAM and
	// move it from core to NVM (Section 7.13, from BBB's methodology).
	SRAMMoveNJPerB float64
	// Energy densities for backup sizing.
	SupercapUJPerMM3 float64
	LiThinUJPerMM3   float64
}

// Structure is one hardware structure to cost.
type Structure struct {
	Name    string
	Bits    int
	IsArray bool // addressed array (CSQ) vs flat register
}

// Cost is the Table 4 triple for one structure.
type Cost struct {
	Name            string
	Bits            int
	AreaUM2         float64
	AccessLatencyNS float64
	DynAccessPJ     float64
}

// CostOf computes the Table 4 estimate for a structure.
func (p Process) CostOf(s Structure) Cost {
	area := float64(s.Bits) * p.AreaPerBitUM2
	if s.IsArray {
		area *= p.ArrayAreaFactor
	}
	lg := math.Log2(float64(s.Bits))
	return Cost{
		Name:            s.Name,
		Bits:            s.Bits,
		AreaUM2:         area,
		AccessLatencyNS: p.LatBaseNS + p.LatPerLog2BitNS*lg,
		DynAccessPJ:     p.EnergyBasePJ - p.EnergySlopePJ*lg,
	}
}

// PPAStructures returns PPA's three additions for a machine with the given
// physical-register count and CSQ geometry (Section 7.12: 64-bit LCPC, a
// MaskReg bit per physical register, and CSQ entries of a 9-bit register
// index plus a 48-bit physical address, stored in a 64-bit slot).
func PPAStructures(prfSize, csqEntries int) []Structure {
	maskBits := prfSize
	// The paper rounds the 348-register MaskReg up to 384 bits (48 bytes)
	// for the 8-byte checkpoint granularity.
	maskBits = ((maskBits + 63) / 64) * 64
	return []Structure{
		{Name: "64-bit LCPC", Bits: 64},
		{Name: "384-bit MaskReg", Bits: maskBits},
		{Name: "40-entry CSQ", Bits: csqEntries * 64, IsArray: true},
	}
}

// Table4 computes the published hardware-cost table for the default
// machine (348 physical registers, 40 CSQ entries).
func Table4() []Cost {
	var out []Cost
	for _, s := range PPAStructures(348, 40) {
		out = append(out, Node22nm.CostOf(s))
	}
	return out
}

// ArealOverhead returns PPA's total added area as a fraction of the server
// core area (the paper's 0.005% headline).
func ArealOverhead(costs []Cost) float64 {
	var um2 float64
	for _, c := range costs {
		um2 += c.AreaUM2
	}
	return um2 / (Node22nm.CoreAreaMM2 * 1e6)
}

// FlushEnergy is one row of Table 5.
type FlushEnergy struct {
	Scheme      string
	Class       string // WSP or PSP
	Bytes       int
	EnergyUJ    float64
	SupercapMM3 float64
	LiThinMM3   float64
	// RatioSupercap/RatioLiThin are volume ratios to the core area
	// footprint (the paper divides volume mm^3 by core area mm^2).
	RatioSupercap float64
	RatioLiThin   float64
}

// flushRow builds a Table 5 row for a scheme that must move n bytes from
// SRAM to NVM on power failure.
func (p Process) flushRow(scheme, class string, bytes int) FlushEnergy {
	uj := float64(bytes) * p.SRAMMoveNJPerB / 1e3
	sc := uj / p.SupercapUJPerMM3
	li := uj / p.LiThinUJPerMM3
	return FlushEnergy{
		Scheme: scheme, Class: class, Bytes: bytes, EnergyUJ: uj,
		SupercapMM3: sc, LiThinMM3: li,
		RatioSupercap: sc / p.CoreAreaMM2,
		RatioLiThin:   li / p.CoreAreaMM2,
	}
}

// Table5 computes the JIT-flush energy comparison:
//   - PPA: worst-case 1838-byte checkpoint (Section 7.13).
//   - Capri: 54 KB battery-backed redo buffer per core.
//   - LightPC: architectural registers (4224 B) + 64 KB L1D + 16 MB L2.
func Table5(ppaCheckpointBytes int) []FlushEnergy {
	if ppaCheckpointBytes <= 0 {
		ppaCheckpointBytes = 1838
	}
	return []FlushEnergy{
		Node22nm.flushRow("PPA", "WSP", ppaCheckpointBytes),
		Node22nm.flushRow("Capri", "WSP", 54<<10),
		Node22nm.flushRow("LightPC", "PSP", 4224+(64<<10)+(16<<20)),
	}
}
