package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
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

// refStore is a deep-copy reference for Store: maps of line images, a
// line materializing when first touched, and a Crash that copies every
// durable line into a fresh live image. Store must be indistinguishable
// from it through every accessor and counter.
type refStore struct {
	live, durable         map[Addr]Line
	dramReads, dramWrites uint64
	nvmReads, nvmWrites   uint64
}

func newRefStore() *refStore {
	return &refStore{live: map[Addr]Line{}, durable: map[Addr]Line{}}
}

func (r *refStore) count(a Addr, write bool) {
	switch {
	case KindOf(a) == DRAM && write:
		r.dramWrites++
	case KindOf(a) == DRAM:
		r.dramReads++
	case write:
		r.nvmWrites++
	default:
		r.nvmReads++
	}
}

// patch writes b into the live image from a on, line by line, and
// returns the touched line addresses.
func (r *refStore) patch(a Addr, b []byte) []Addr {
	var lines []Addr
	for len(b) > 0 {
		la := LineOf(a)
		l := r.live[la]
		n := copy(l[LineOffset(a):], b)
		r.live[la] = l
		lines = append(lines, la)
		b, a = b[n:], a+Addr(n)
	}
	return lines
}

// peek reads n bytes of the live image from a on, materializing lines.
func (r *refStore) peek(a Addr, n int) []byte {
	out := make([]byte, n)
	for dst := out; len(dst) > 0; {
		la := LineOf(a)
		l := r.live[la]
		r.live[la] = l
		k := copy(dst, l[LineOffset(a):])
		dst, a = dst[k:], a+Addr(k)
	}
	return out
}

func (r *refStore) crash() {
	r.live = make(map[Addr]Line, len(r.durable))
	for a, l := range r.durable {
		r.live[a] = l
	}
}

// TestStoreMatchesDeepCopyReference drives Store and refStore through
// one seeded sequence of every accessor, with repeated crashes, over a
// few pages of DRAM, NVM and the NVM log area. After every step the
// live and durable snapshots, every durable line and the four access
// counters must agree: pages shared by a crash must behave exactly as
// the deep copies they replace.
func TestStoreMatchesDeepCopyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, ref := NewStore(DefaultConfig()), newRefStore()
	page := Addr(PageLines * LineSize)
	bases := []Addr{DRAMBase + 2*page, NVMBase, NVMBase + 7*page, NVMLogBase}
	nvmBases := bases[1:]
	// addr picks a line-aligned address in one of a few lines of the
	// given pages (few enough that lines are revisited often); the
	// second page of each region keeps some lines untouched.
	addr := func(from []Addr) Addr {
		return from[rng.Intn(len(from))] + Addr(rng.Intn(2))*page + Addr(rng.Intn(24))*LineSize
	}
	line := func() Line {
		var l Line
		rng.Read(l[:])
		return l
	}
	span := func() (Addr, []byte) {
		b := make([]byte, 1+rng.Intn(3*LineSize))
		rng.Read(b)
		return addr(nvmBases) + Addr(rng.Intn(LineSize)), b
	}
	crashes := 0
	for step := 0; step < 1200; step++ {
		var what string
		switch op := rng.Intn(15); op {
		case 0, 1:
			what = "WriteLine"
			a, l := addr(bases), line()
			s.WriteLine(a, &l)
			ref.live[a] = l
			ref.count(a, true)
		case 2, 3:
			what = "PersistLine"
			a, l := addr(nvmBases), line()
			s.PersistLine(a, &l)
			ref.durable[a] = l
		case 4, 5:
			what = "WriteThrough"
			a, b := span()
			s.WriteThrough(a, b)
			for _, la := range ref.patch(a, b) {
				ref.durable[la] = ref.live[la]
				ref.count(la, true)
			}
		case 6:
			what = "PokeLine"
			a, l := addr(bases), line()
			s.PokeLine(a, &l)
			ref.live[a] = l
		case 7:
			what = "WriteU64"
			a, v := addr(bases)+Addr(rng.Intn(8))*8, rng.Uint64()
			s.WriteU64(a, v)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			ref.patch(a, b[:])
		case 8:
			what = "WriteBytes"
			a, b := span()
			s.WriteBytes(a, b)
			ref.patch(a, b)
		case 9:
			what = "ReadLine"
			a := addr(bases)
			var got Line
			s.ReadLine(a, &got)
			if want := ref.peek(a, LineSize); !bytes.Equal(got[:], want) {
				t.Fatalf("step %d: ReadLine(%#x) = %x, want %x", step, uint64(a), got, want)
			}
			ref.count(a, false)
		case 10:
			what = "ReadU64/ReadBytes"
			a := addr(bases)
			if got, want := s.ReadU64(a+8), binary.LittleEndian.Uint64(ref.peek(a+8, 8)); got != want {
				t.Fatalf("step %d: ReadU64(%#x) = %#x, want %#x", step, uint64(a+8), got, want)
			}
			a, b := span()
			if got, want := s.ReadBytes(a, len(b)), ref.peek(a, len(b)); !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadBytes(%#x) differs", step, uint64(a))
			}
		case 11:
			what = "DurableU64/DurableInto"
			a := addr(nvmBases)
			l := ref.durable[a]
			if got, want := s.DurableU64(a+16), binary.LittleEndian.Uint64(l[16:]); got != want {
				t.Fatalf("step %d: DurableU64(%#x) = %#x, want %#x", step, uint64(a+16), got, want)
			}
			got := make([]byte, 2*LineSize-8) // to the end of the next line
			s.DurableInto(a+8, got)
			next := ref.durable[a+LineSize]
			if want := append(l[8:], next[:]...); !bytes.Equal(got, want) {
				t.Fatalf("step %d: DurableInto(%#x) differs", step, uint64(a+8))
			}
		case 12:
			what = "PersistLiveNVM"
			s.PersistLiveNVM()
			for a, l := range ref.live {
				if KindOf(a) == NVM && !InLogArea(a) {
					ref.durable[a] = l
				}
			}
		default:
			what = "Crash"
			s.Crash()
			ref.crash()
			crashes++
		}
		if got := s.SnapshotLive(); !reflect.DeepEqual(got, ref.live) {
			t.Fatalf("step %d (%s): live image differs: %d lines, want %d", step, what, len(got), len(ref.live))
		}
		if got := s.SnapshotDurable(); !reflect.DeepEqual(got, ref.durable) {
			t.Fatalf("step %d (%s): durable image differs: %d lines, want %d", step, what, len(got), len(ref.durable))
		}
		for _, b := range nvmBases {
			for a := b; a < b+2*page; a += 8 * LineSize {
				if got := s.DurableLine(a); got != ref.durable[a] {
					t.Fatalf("step %d (%s): DurableLine(%#x) differs", step, what, uint64(a))
				}
			}
		}
		if got, want := [4]uint64{s.DRAMReads, s.DRAMWrites, s.NVMReads, s.NVMWrites},
			[4]uint64{ref.dramReads, ref.dramWrites, ref.nvmReads, ref.nvmWrites}; got != want {
			t.Fatalf("step %d (%s): counters %v, want %v", step, what, got, want)
		}
	}
	if crashes < 50 {
		t.Fatalf("only %d crashes exercised", crashes)
	}
}

// TestCrashAllocatesNothing: a crash shares the durable pages instead
// of copying them, so it allocates the same (nothing) for an image of
// one page as for one of hundreds.
func TestCrashAllocatesNothing(t *testing.T) {
	for _, pages := range []int{1, 300} {
		s := NewStore(DefaultConfig())
		var l Line
		for p := 0; p < pages; p++ {
			l[0] = byte(p)
			s.PersistLine(NVMBase+Addr(p*PageLines*LineSize), &l)
		}
		if n := testing.AllocsPerRun(10, s.Crash); n != 0 {
			t.Errorf("Crash of a %d-page image allocates %v times, want 0", pages, n)
		}
		if got := s.PeekLine(NVMBase + Addr((pages-1)*PageLines*LineSize)); got != l {
			t.Errorf("%d-page image: last persisted line lost at the crash", pages)
		}
	}
}
