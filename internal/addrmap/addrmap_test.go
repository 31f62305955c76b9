package addrmap

import (
	"testing"
	"testing/quick"

	"github.com/nuba-gpu/nuba/internal/config"
)

func mapper(t *testing.T, am config.AddressMapping) *Mapper {
	t.Helper()
	cfg := config.Baseline()
	cfg.AddressMap = am
	return New(&cfg)
}

func TestFixedChannelPreservesDriverChoice(t *testing.T) {
	m := mapper(t, config.FixedChannel)
	for ch := 0; ch < 32; ch++ {
		for seq := uint64(0); seq < 16; seq++ {
			ppn := m.ComposeFrame(seq, ch)
			addr := m.FrameToAddr(ppn) + 512 // arbitrary offset
			if got := m.Channel(addr); got != ch {
				t.Fatalf("frame (seq=%d,ch=%d): Channel=%d", seq, ch, got)
			}
		}
	}
}

func TestComposeFrameUnique(t *testing.T) {
	m := mapper(t, config.FixedChannel)
	seen := make(map[uint64]bool)
	for ch := 0; ch < 32; ch++ {
		for seq := uint64(0); seq < 64; seq++ {
			ppn := m.ComposeFrame(seq, ch)
			if seen[ppn] {
				t.Fatalf("duplicate PPN %d", ppn)
			}
			seen[ppn] = true
		}
	}
}

func TestPAERandomizesChannels(t *testing.T) {
	m := mapper(t, config.PAE)
	counts := make([]int, 32)
	for ppn := uint64(0); ppn < 3200; ppn++ {
		counts[m.Channel(m.FrameToAddr(ppn))]++
	}
	for ch, n := range counts {
		if n < 50 || n > 200 {
			t.Fatalf("PAE channel %d badly skewed: %d/3200", ch, n)
		}
	}
	// And the driver's channel choice is NOT preserved.
	preserved := 0
	for seq := uint64(0); seq < 100; seq++ {
		ppn := m.ComposeFrame(seq, 5)
		if m.Channel(m.FrameToAddr(ppn)) == 5 {
			preserved++
		}
	}
	if preserved > 30 {
		t.Fatalf("PAE preserved the driver channel %d/100 times", preserved)
	}
}

func TestSliceBelongsToChannel(t *testing.T) {
	m := mapper(t, config.FixedChannel)
	f := func(raw uint64) bool {
		addr := raw % (1 << 40)
		return m.Slice(addr)/m.slicesPerChannel == m.Channel(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowLocalityWithinChunk(t *testing.T) {
	m := mapper(t, config.FixedChannel)
	// All lines within one RowBytes chunk share bank and row.
	base := uint64(0x12340000)
	b0, r0 := m.Bank(base), m.Row(base)
	for off := uint64(0); off < RowBytes; off += 128 {
		if m.Bank(base+off) != b0 || m.Row(base+off) != r0 {
			t.Fatalf("chunk broken at offset %d", off)
		}
	}
}

func TestBankDistribution(t *testing.T) {
	m := mapper(t, config.FixedChannel)
	counts := make([]int, 16)
	for i := uint64(0); i < 1600; i++ {
		counts[m.Bank(i*RowBytes)]++
	}
	for b, n := range counts {
		if n < 40 || n > 220 {
			t.Fatalf("bank %d skewed: %d/1600", b, n)
		}
	}
}

func TestPageHelpers(t *testing.T) {
	m := mapper(t, config.FixedChannel)
	if m.PageShift() != 12 {
		t.Fatalf("page shift %d", m.PageShift())
	}
	addr := uint64(0xABCD1234)
	if m.PPN(addr) != addr>>12 {
		t.Fatal("PPN mismatch")
	}
}

func TestSliceStableWithinRowChunk(t *testing.T) {
	// Lines of the same 1 KB chunk must map to the same slice so their
	// miss stream preserves row locality at the channel.
	m := mapper(t, config.FixedChannel)
	for chunk := uint64(0); chunk < 256; chunk++ {
		base := chunk * RowBytes
		s0 := m.Slice(base)
		for off := uint64(128); off < RowBytes; off += 128 {
			if m.Slice(base+off) != s0 {
				t.Fatalf("slice changed within chunk %d", chunk)
			}
		}
	}
}
