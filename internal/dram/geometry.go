package dram

import "fmt"

// Geometry describes the organization of the DRAM system visible to the
// memory controller: the number of independent channels, banks per
// channel, rows per bank, and the effective row-buffer size.
//
// As in the paper, a "bank" here is the DIMM-level bank formed by the
// same bank of all eight chips accessed in lock step, so the effective
// row buffer is 8x the per-chip row buffer (2 KB per chip -> 16 KB of
// row, i.e. 256 cache lines, matching the paper's Section 2.5 example).
type Geometry struct {
	// Channels is the number of independent lock-step 64-bit channels.
	// Each channel has its own address/command and data buses and its
	// own banks. The paper scales channels with cores: 1, 1, 2, 4 for
	// 2, 4, 8, 16 cores.
	Channels int
	// BanksPerChannel is the number of banks in each channel (8 for
	// DDR2 in the baseline; Table 5 sweeps 4/8/16), at most
	// MaxBanksPerChannel.
	BanksPerChannel int
	// RowsPerBank is the number of DRAM rows per bank (2^14 in the
	// paper's Table 1 sizing).
	RowsPerBank int
	// RowBufferBytes is the effective row-buffer (page) size per bank
	// across the DIMM: per-chip row buffer times chips per DIMM
	// (2 KB x 8 = 16 KB baseline; Table 5 sweeps 1/2/4 KB per chip).
	RowBufferBytes int
	// LineBytes is the cache-line (and DRAM burst) size, 64 bytes.
	LineBytes int
	// XORBankMapping enables the permutation-based bank indexing of
	// Table 2 ([Frailong 85], [Zhang 00]): bank = bankBits XOR low
	// row bits. It spreads row-conflicting strided patterns across
	// banks and is the paper's baseline.
	XORBankMapping bool
}

// MaxBanksPerChannel bounds Geometry.BanksPerChannel: the memory
// controller keeps a channel's bank sets (occupied banks, ready bank
// winners, PAR-BS reservation locks) in 64-bit masks.
const MaxBanksPerChannel = 64

// DefaultGeometry returns the paper's baseline organization for the
// given number of channels.
func DefaultGeometry(channels int) Geometry {
	return Geometry{
		Channels:        channels,
		BanksPerChannel: 8,
		RowsPerBank:     1 << 14,
		RowBufferBytes:  16 * 1024, // 2 KB/chip x 8 chips
		LineBytes:       64,
		XORBankMapping:  true,
	}
}

// Validate reports an error if the geometry is not usable (non-positive
// or non-power-of-two fields where the address mapping requires them,
// or more than MaxBanksPerChannel banks).
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0:
		return fmt.Errorf("dram: Channels must be positive, got %d", g.Channels)
	case g.BanksPerChannel <= 0 || !isPow2(g.BanksPerChannel):
		return fmt.Errorf("dram: BanksPerChannel must be a positive power of two, got %d", g.BanksPerChannel)
	case g.BanksPerChannel > MaxBanksPerChannel:
		return fmt.Errorf("dram: BanksPerChannel must be at most %d, got %d", MaxBanksPerChannel, g.BanksPerChannel)
	case g.RowsPerBank <= 0 || !isPow2(g.RowsPerBank):
		return fmt.Errorf("dram: RowsPerBank must be a positive power of two, got %d", g.RowsPerBank)
	case g.LineBytes <= 0 || !isPow2(g.LineBytes):
		return fmt.Errorf("dram: LineBytes must be a positive power of two, got %d", g.LineBytes)
	case g.RowBufferBytes < g.LineBytes || !isPow2(g.RowBufferBytes):
		return fmt.Errorf("dram: RowBufferBytes must be a power of two >= LineBytes, got %d", g.RowBufferBytes)
	}
	return nil
}

// LinesPerRow returns the number of cache lines held by one open row.
func (g Geometry) LinesPerRow() int { return g.RowBufferBytes / g.LineBytes }

// TotalBanks returns the number of banks across all channels.
func (g Geometry) TotalBanks() int { return g.Channels * g.BanksPerChannel }

// Location identifies a DRAM coordinate: channel, bank within the
// channel, row within the bank, and column (cache-line slot) within the
// row.
type Location struct {
	Channel int
	Bank    int
	Row     int
	Column  int
}

// Map translates a physical cache-line address (a line index, i.e. the
// byte address divided by LineBytes) to a DRAM location.
//
// The layout interleaves consecutive lines first across channels, then
// across the columns of a row, then across banks, then rows — the
// standard open-page mapping that maximizes row-buffer locality for
// sequential streams. With XORBankMapping the bank index is XORed with
// the low bits of the row index.
func (g Geometry) Map(lineAddr uint64) Location {
	var loc Location
	loc.Channel = int(lineAddr % uint64(g.Channels))
	lineAddr /= uint64(g.Channels)

	linesPerRow := uint64(g.LinesPerRow())
	loc.Column = int(lineAddr % linesPerRow)
	lineAddr /= linesPerRow

	banks := uint64(g.BanksPerChannel)
	bank := lineAddr % banks
	lineAddr /= banks

	row := lineAddr % uint64(g.RowsPerBank)
	if g.XORBankMapping {
		bank ^= row % banks
	}
	loc.Bank = int(bank)
	loc.Row = int(row)
	return loc
}

// LineAddr is the inverse of Map for locations produced by Map; it is
// used by trace generators to synthesize addresses that land on chosen
// banks and rows.
func (g Geometry) LineAddr(loc Location) uint64 {
	bank := uint64(loc.Bank)
	if g.XORBankMapping {
		bank ^= uint64(loc.Row) % uint64(g.BanksPerChannel)
	}
	addr := uint64(loc.Row)
	addr = addr*uint64(g.BanksPerChannel) + bank
	addr = addr*uint64(g.LinesPerRow()) + uint64(loc.Column)
	addr = addr*uint64(g.Channels) + uint64(loc.Channel)
	return addr
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
