package mem

import (
	"testing"
	"testing/quick"

	"uhtm/internal/sim"
)

func TestKindOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want Kind
	}{
		{DRAMBase, DRAM},
		{DRAMBase + DRAMSize - 1, DRAM},
		{NVMBase, NVM},
		{NVMBase + NVMSize - 1, NVM},
	}
	for _, c := range cases {
		if got := KindOf(c.a); got != c.want {
			t.Errorf("KindOf(%#x) = %v, want %v", uint64(c.a), got, c.want)
		}
	}
}

func TestKindOfPanicsOutsideRegions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("KindOf outside regions did not panic")
		}
	}()
	KindOf(NVMBase + NVMSize)
}

func TestInLogArea(t *testing.T) {
	if !InLogArea(DRAMLogBase) || !InLogArea(NVMLogBase) {
		t.Error("log bases not in log area")
	}
	if InLogArea(DRAMBase) || InLogArea(NVMBase) {
		t.Error("region bases wrongly in log area")
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0x1234) != 0x1200 {
		t.Errorf("LineOf(0x1234) = %#x", uint64(LineOf(0x1234)))
	}
	if LineOffset(0x1234) != 0x34 {
		t.Errorf("LineOffset(0x1234) = %#x", LineOffset(0x1234))
	}
}

// TestLineIndexRoundTrip checks the branch-free line index against
// LineIndex at both ends of both regions, AddrOfLineIndex's inverse,
// and that addresses outside both regions give no valid index.
func TestLineIndexRoundTrip(t *testing.T) {
	for _, a := range []Addr{
		DRAMBase, DRAMBase + LineSize + 5, DRAMLogBase, DRAMBase + DRAMSize - 1,
		NVMBase, NVMBase + 3*LineSize + 63, NVMLogBase, NVMBase + NVMSize - 1,
	} {
		idx := LineIndex(a)
		if got := UncheckedLineIndex(a); got != idx {
			t.Errorf("UncheckedLineIndex(%#x) = %#x, want %#x", uint64(a), got, idx)
		}
		if got := AddrOfLineIndex(idx); got != LineOf(a) {
			t.Errorf("AddrOfLineIndex(%#x) = %#x, want %#x", idx, uint64(got), uint64(LineOf(a)))
		}
	}
	if got := LineIndex(NVMBase + NVMSize - 1); got != LineCount-1 {
		t.Errorf("last NVM line has index %#x, want %#x", got, LineCount-1)
	}
	for _, a := range []Addr{DRAMBase + DRAMSize, NVMBase - LineSize, NVMBase + NVMSize, 1 << 41, 3 << 40} {
		if idx := UncheckedLineIndex(a); idx < LineCount && AddrOfLineIndex(idx) == LineOf(a) {
			t.Errorf("UncheckedLineIndex(%#x) = %#x, a valid index of that line", uint64(a), idx)
		}
	}
}

func TestDefaultConfigIsTableIII(t *testing.T) {
	c := DefaultConfig()
	if c.Cores != 16 {
		t.Errorf("Cores = %d", c.Cores)
	}
	if c.L1Size != 32<<10 || c.L1Ways != 8 {
		t.Errorf("L1 = %d/%d-way", c.L1Size, c.L1Ways)
	}
	if c.LLCSize != 16<<20 || c.LLCWays != 16 {
		t.Errorf("LLC = %d/%d-way", c.LLCSize, c.LLCWays)
	}
	if c.L1Latency != 1500*sim.Picosecond {
		t.Errorf("L1 latency = %v", c.L1Latency)
	}
	if c.LLCLatency != 15*sim.Nanosecond {
		t.Errorf("LLC latency = %v", c.LLCLatency)
	}
	if c.DRAMLatency != 82*sim.Nanosecond {
		t.Errorf("DRAM latency = %v", c.DRAMLatency)
	}
	if c.NVMReadLatency != 175*sim.Nanosecond || c.NVMWriteLatency != 94*sim.Nanosecond {
		t.Errorf("NVM latency = %v/%v", c.NVMReadLatency, c.NVMWriteLatency)
	}
}

func TestReadWriteLine(t *testing.T) {
	s := NewStore(DefaultConfig())
	var l Line
	l[0], l[63] = 0xAB, 0xCD
	s.WriteLine(DRAMBase+128, &l)
	var got Line
	s.ReadLine(DRAMBase+128, &got)
	if got != l {
		t.Error("read-back mismatch")
	}
	if s.DRAMWrites != 1 || s.DRAMReads != 1 {
		t.Errorf("counters: %d writes, %d reads", s.DRAMWrites, s.DRAMReads)
	}
}

func TestWordAccess(t *testing.T) {
	s := NewStore(DefaultConfig())
	s.WriteU64(NVMBase+8, 0xDEADBEEFCAFE0123)
	if got := s.ReadU64(NVMBase + 8); got != 0xDEADBEEFCAFE0123 {
		t.Errorf("ReadU64 = %#x", got)
	}
	// Adjacent word untouched.
	if got := s.ReadU64(NVMBase); got != 0 {
		t.Errorf("adjacent word = %#x", got)
	}
}

func TestUnalignedWordPanics(t *testing.T) {
	s := NewStore(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("unaligned ReadU64 did not panic")
		}
	}()
	s.ReadU64(DRAMBase + 4)
}

func TestLatencies(t *testing.T) {
	s := NewStore(DefaultConfig())
	if s.ReadLatency(DRAMBase) != 82*sim.Nanosecond {
		t.Error("DRAM read latency")
	}
	if s.ReadLatency(NVMBase) != 175*sim.Nanosecond {
		t.Error("NVM read latency")
	}
	if s.WriteLatency(NVMBase) != 94*sim.Nanosecond {
		t.Error("NVM write latency")
	}
}

// TestCrashDropsVolatileState is the core durability semantics test:
// live-only NVM writes and all DRAM contents vanish at a crash; only
// persisted NVM lines survive.
func TestCrashDropsVolatileState(t *testing.T) {
	s := NewStore(DefaultConfig())
	var l Line
	l[0] = 1
	s.WriteLine(DRAMBase, &l)   // DRAM, volatile
	s.WriteLine(NVMBase, &l)    // NVM live-only (still in cache/WPQ)
	s.WriteLine(NVMBase+64, &l) // NVM that the hardware persisted:
	s.PersistLine(NVMBase+64, &l)

	s.Crash()

	if got := s.PeekLine(DRAMBase); got != (Line{}) {
		t.Error("DRAM survived crash")
	}
	if got := s.PeekLine(NVMBase); got != (Line{}) {
		t.Error("unpersisted NVM write survived crash")
	}
	if got := s.PeekLine(NVMBase + 64); got != l {
		t.Error("persisted NVM line lost at crash")
	}
}

func TestPersistLinePanicsOnDRAM(t *testing.T) {
	s := NewStore(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("PersistLine on DRAM did not panic")
		}
	}()
	var l Line
	s.PersistLine(DRAMBase, &l)
}

func TestAllocator(t *testing.T) {
	al := NewAllocator(NVM)
	a := al.Alloc(100, 64)
	b := al.Alloc(8, 8)
	if a%64 != 0 {
		t.Errorf("a = %#x not 64-aligned", uint64(a))
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%#x b=%#x", uint64(a), uint64(b))
	}
	if KindOf(a) != NVM || KindOf(b) != NVM {
		t.Error("allocations outside NVM")
	}
	if al.Used() == 0 {
		t.Error("Used() = 0 after allocations")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	al := NewAllocator(DRAM)
	defer func() {
		if recover() == nil {
			t.Error("exhausted allocator did not panic")
		}
	}()
	al.Alloc(int(DRAMSize), 64) // bigger than usable area (log reserved)
}

func TestAllocLinesAligned(t *testing.T) {
	al := NewAllocator(DRAM)
	al.Alloc(3, 1) // misalign the bump pointer
	a := al.AllocLines(2)
	if a%LineSize != 0 {
		t.Errorf("AllocLines returned unaligned %#x", uint64(a))
	}
}

// Property: WriteU64 then ReadU64 round-trips for arbitrary values and
// any aligned offset in a line, without disturbing neighbours.
func TestQuickWordRoundTrip(t *testing.T) {
	s := NewStore(DefaultConfig())
	f := func(v uint64, slot uint8) bool {
		off := Addr(slot%8) * 8
		a := NVMBase + 4096 + off
		s.WriteU64(a, v)
		return s.ReadU64(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the allocator never returns overlapping or misaligned
// blocks.
func TestQuickAllocatorNoOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		al := NewAllocator(DRAM)
		type blk struct{ a, end Addr }
		var blocks []blk
		for _, sz := range sizes {
			n := int(sz%4096) + 1
			a := al.Alloc(n, 8)
			if a%8 != 0 {
				return false
			}
			for _, b := range blocks {
				if a < b.end && b.a < a+Addr(n) {
					return false
				}
			}
			blocks = append(blocks, blk{a, a + Addr(n)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
