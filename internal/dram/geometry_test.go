package dram

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry(2)
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if g.Channels != 2 || g.BanksPerChannel != 8 {
		t.Errorf("channels/banks = %d/%d, want 2/8", g.Channels, g.BanksPerChannel)
	}
	// 2 KB per chip x 8 chips / 64 B lines = 256 lines per row (the
	// paper's Section 2.5 example).
	if got := g.LinesPerRow(); got != 256 {
		t.Errorf("LinesPerRow = %d, want 256", got)
	}
	if got := g.TotalBanks(); got != 16 {
		t.Errorf("TotalBanks = %d, want 16", got)
	}
}

func TestGeometryValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Geometry)
	}{
		{"zero channels", func(g *Geometry) { g.Channels = 0 }},
		{"non-pow2 banks", func(g *Geometry) { g.BanksPerChannel = 6 }},
		{"zero banks", func(g *Geometry) { g.BanksPerChannel = 0 }},
		{"128 banks", func(g *Geometry) { g.BanksPerChannel = 128 }},
		{"non-pow2 rows", func(g *Geometry) { g.RowsPerBank = 1000 }},
		{"zero lines", func(g *Geometry) { g.LineBytes = 0 }},
		{"row buffer < line", func(g *Geometry) { g.RowBufferBytes = 32 }},
		{"non-pow2 row buffer", func(g *Geometry) { g.RowBufferBytes = 3000 }},
	}
	for _, c := range cases {
		g := DefaultGeometry(1)
		c.mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

// TestGeometryAcceptsMaxBanks: 64 banks, the controller's mask width,
// is the largest accepted bank count.
func TestGeometryAcceptsMaxBanks(t *testing.T) {
	g := DefaultGeometry(1)
	g.BanksPerChannel = MaxBanksPerChannel
	if err := g.Validate(); err != nil {
		t.Errorf("%d banks rejected: %v", MaxBanksPerChannel, err)
	}
}

// TestMapLineAddrRoundTrip checks that LineAddr is the exact inverse of
// Map over the whole address space the generators use.
func TestMapLineAddrRoundTrip(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		g := DefaultGeometry(channels)
		f := func(addr uint64) bool {
			addr %= uint64(g.Channels * g.BanksPerChannel * g.RowsPerBank * g.LinesPerRow())
			loc := g.Map(addr)
			return g.LineAddr(loc) == addr
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("channels=%d: %v", channels, err)
		}
	}
}

// TestMapLocationRanges checks that Map always produces in-range
// coordinates.
func TestMapLocationRanges(t *testing.T) {
	g := DefaultGeometry(4)
	f := func(addr uint64) bool {
		loc := g.Map(addr)
		return loc.Channel >= 0 && loc.Channel < g.Channels &&
			loc.Bank >= 0 && loc.Bank < g.BanksPerChannel &&
			loc.Row >= 0 && loc.Row < g.RowsPerBank &&
			loc.Column >= 0 && loc.Column < g.LinesPerRow()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestChannelInterleaving(t *testing.T) {
	g := DefaultGeometry(4)
	for addr := uint64(0); addr < 16; addr++ {
		if got := g.Map(addr).Channel; got != int(addr%4) {
			t.Errorf("Map(%d).Channel = %d, want %d (line interleave)", addr, got, addr%4)
		}
	}
}

func TestSequentialLinesShareRow(t *testing.T) {
	g := DefaultGeometry(1)
	first := g.Map(0)
	for addr := uint64(1); addr < uint64(g.LinesPerRow()); addr++ {
		loc := g.Map(addr)
		if loc.Bank != first.Bank || loc.Row != first.Row {
			t.Fatalf("line %d left the row: %+v vs %+v", addr, loc, first)
		}
		if loc.Column != int(addr) {
			t.Fatalf("line %d column = %d", addr, loc.Column)
		}
	}
	// The next line must move to another bank (open-page mapping).
	next := g.Map(uint64(g.LinesPerRow()))
	if next.Bank == first.Bank && next.Row == first.Row {
		t.Error("row did not advance after LinesPerRow lines")
	}
}

// TestXORMappingSpreadsStrides checks the permutation-based mapping's
// purpose: row-stride accesses (which alias to one bank without XOR)
// spread across banks.
func TestXORMappingSpreadsStrides(t *testing.T) {
	g := DefaultGeometry(1)
	stride := uint64(g.LinesPerRow() * g.BanksPerChannel) // one full row set
	seen := map[int]bool{}
	for i := uint64(0); i < 8; i++ {
		seen[g.Map(i*stride).Bank] = true
	}
	if len(seen) < 4 {
		t.Errorf("XOR mapping spread row stride over %d banks, want >= 4", len(seen))
	}

	g.XORBankMapping = false
	seen = map[int]bool{}
	for i := uint64(0); i < 8; i++ {
		seen[g.Map(i*stride).Bank] = true
	}
	if len(seen) != 1 {
		t.Errorf("without XOR, row stride should alias to 1 bank, got %d", len(seen))
	}
}
