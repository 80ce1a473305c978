package checkpoint

// The Section 7.13 accounting constants.
const (
	// EnergyPerByteNJ is the measured energy to read one byte from SRAM
	// and move it from core to NVM, per BBB's methodology. It is the one
	// definition of this figure: hwcost's Table 5 rows read it too.
	EnergyPerByteNJ = 11.839 // nJ/byte
	// BytesPerCycle is the controller's streaming rate over the
	// non-temporal path (8 bytes per cycle, Section 4.5).
	BytesPerCycle = 8
	// ControllerFlipFlops and ControllerGates are the RTL synthesis
	// results quoted in Section 7.13.
	ControllerFlipFlops = 144
	ControllerGates     = 88
	// WorstCaseRegBytes is the worst-case physical register width the
	// paper assumes when sizing the checkpoint (128-bit registers).
	WorstCaseRegBytes = 16
)

// CostModel computes the hardware-accounted checkpoint size, time, and
// energy for a given image, reproducing the Section 7.13 arithmetic.
type CostModel struct {
	// ClockGHz is the core clock (Table 2: 2 GHz).
	ClockGHz float64
	// WriteBandwidthGBs is the PMEM write bandwidth (2.3 GB/s).
	WriteBandwidthGBs float64
}

// DefaultCostModel returns the paper's parameters.
func DefaultCostModel() CostModel { return CostModel{ClockGHz: 2.0, WriteBandwidthGBs: 2.3} }

// WorstCaseBytes returns the paper's worst-case checkpoint size for a
// machine with the given structure geometry: a full CSQ, all CRT-mapped
// registers distinct from CSQ registers, and 128-bit register payloads.
// With Table 2 geometry (40-entry CSQ, 16+32 architectural registers,
// 180+168 physical registers) this is the 1838-byte figure of Section 7.13.
func (m CostModel) WorstCaseBytes(csqEntries, intArch, fpArch, intPhys, fpPhys int) int {
	lcpc := 8
	csq := csqEntries * 8
	crt := (intArch + fpArch) * 9 / 8 // 9-bit indexes, packed
	maskBits := intPhys + fpPhys
	mask := (maskBits + 7) / 8
	regs := (csqEntries + intArch + fpArch) * WorstCaseRegBytes
	return lcpc + csq + crt + mask + regs
}

// ReadTimeNS returns the controller's time to stream n bytes out of the
// five structures at 8 bytes per cycle.
func (m CostModel) ReadTimeNS(bytes int) float64 {
	cycles := float64(bytes) / BytesPerCycle
	return cycles / m.ClockGHz
}

// FlushTimeUS returns the time to push n bytes into PMEM at the write
// bandwidth.
func (m CostModel) FlushTimeUS(bytes int) float64 {
	return float64(bytes) / (m.WriteBandwidthGBs * 1e3) // bytes / (GB/s) in us: B / (GB/s)=ns ; /1e3 = us
}

// EnergyUJ returns the checkpoint energy in microjoules at EnergyPerByteNJ.
func (m CostModel) EnergyUJ(bytes int) float64 {
	return float64(bytes) * EnergyPerByteNJ / 1e3
}
