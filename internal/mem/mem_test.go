package mem

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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
	if got := s.PeekLine(DRAMBase + 128); got != l {
		t.Error("read-back mismatch")
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
// from it through every accessor.
type refStore struct {
	live, durable map[Addr]Line
}

func newRefStore() *refStore {
	return &refStore{live: map[Addr]Line{}, durable: map[Addr]Line{}}
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
// live and durable snapshots and every durable line must agree: pages
// shared by a crash must behave exactly as the deep copies they
// replace.
func TestStoreMatchesDeepCopyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if crashes := matchReference(t, rng, NewStore(DefaultConfig()), newRefStore(), nil); crashes < 50 {
		t.Fatalf("only %d crashes exercised", crashes)
	}
}

// refPage is the page size of the reference tests' address span.
const refPage = Addr(PageLines * LineSize)

// refBases are the first of the two pages per region that the
// reference tests touch: DRAM, two NVM data pages and the NVM log area.
var refBases = []Addr{DRAMBase + 2*refPage, NVMBase, NVMBase + 7*refPage, NVMLogBase}

// matchReference drives s and ref through 1200 seeded steps of every
// accessor and Crash, checking after each that the two agree, then
// calling each (when non-nil) with the step and its accessor. It
// returns how many crashes it injected.
func matchReference(t *testing.T, rng *rand.Rand, s *Store, ref *refStore, each func(step int, what string)) (crashes int) {
	t.Helper()
	page := refPage
	bases := refBases
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
	for step := 0; step < 1200; step++ {
		var what string
		switch op := rng.Intn(15); op {
		case 0, 1:
			what = "WriteLine"
			a, l := addr(bases), line()
			s.WriteLine(a, &l)
			ref.live[a] = l
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
			what = "PeekLine"
			a := addr(bases)
			got := s.PeekLine(a)
			if want := ref.peek(a, LineSize); !bytes.Equal(got[:], want) {
				t.Fatalf("step %d: PeekLine(%#x) = %x, want %x", step, uint64(a), got, want)
			}
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
				if got := s.durable.read(LineIndex(a)); got != ref.durable[a] {
					t.Fatalf("step %d (%s): durable line %#x differs", step, what, uint64(a))
				}
			}
		}
		if each != nil {
			each(step, what)
		}
	}
	return crashes
}

// lentSetup builds a frozen image over part of the reference span: a
// store fills every third line of the first page of each region with
// seeded bytes, reads (materializes) a few zero lines, and gives its
// live image up. It returns the image and its snapshot.
func lentSetup(t *testing.T, seed int64) (*Frozen, map[Addr]Line) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	setup := NewStore(DefaultConfig())
	for _, b := range refBases {
		for a := b; a < b+24*LineSize; a += 3 * LineSize {
			var l Line
			rng.Read(l[:])
			setup.PokeLine(a, &l)
			setup.PeekLine(a + LineSize)
		}
	}
	want := setup.SnapshotLive()
	f := setup.TakeLive()
	if n := len(setup.SnapshotLive()) + len(setup.SnapshotDurable()); n != 0 {
		t.Fatalf("TakeLive left %d lines in the store that built the image", n)
	}
	return f, want
}

// TestLentPagesMatchDeepCopyReference: a store that borrows a frozen
// image behaves, through every accessor and repeated crashes, exactly
// as a store that built the image in place (the reference starts from
// the image's lines). No step of it changes the frozen pages: a second
// borrower with writes of its own still reads the image plus exactly
// those writes, and a store that borrows afterwards reads the image as
// it was taken.
func TestLentPagesMatchDeepCopyReference(t *testing.T) {
	f, want := lentSetup(t, 2)
	s, other := NewStore(DefaultConfig()), NewStore(DefaultConfig())
	s.Borrow(f)
	other.Borrow(f)
	if got := s.SnapshotLive(); !reflect.DeepEqual(got, want) {
		t.Fatalf("borrower reads %d lines, want the image's %d", len(got), len(want))
	}

	// The second borrower writes one line of each lent page, through
	// the word, byte and write-through paths.
	otherWant := maps.Clone(want)
	for i, b := range refBases {
		a := b + 3*LineSize
		switch i % 3 {
		case 0:
			other.WriteU64(a, 0xA5A5)
		case 1:
			other.WriteBytes(a+8, []byte("borrowed"))
		default:
			other.WriteThrough(a, []byte{1, 2, 3})
		}
		otherWant[a] = other.PeekLine(a)
	}
	otherDurable := other.SnapshotDurable()

	ref := newRefStore()
	ref.live = maps.Clone(want)
	rng := rand.New(rand.NewSource(3))
	crashes := matchReference(t, rng, s, ref, func(step int, what string) {
		if got := other.SnapshotLive(); !reflect.DeepEqual(got, otherWant) {
			t.Fatalf("step %d (%s): the other borrower's live image changed", step, what)
		}
		if got := other.SnapshotDurable(); !reflect.DeepEqual(got, otherDurable) {
			t.Fatalf("step %d (%s): the other borrower's durable image changed", step, what)
		}
	})
	if crashes == 0 {
		t.Fatal("no crash exercised")
	}
	late := NewStore(DefaultConfig())
	late.Borrow(f)
	if got := late.SnapshotLive(); !reflect.DeepEqual(got, want) {
		t.Error("the frozen image changed under its borrowers")
	}
}

// TestLentPagesLeaveAtCrash: lent pages are live contents only, so a
// crash drops them like any unpersisted write; lines persisted over a
// lent page survive with the bytes persisted, not the image's.
func TestLentPagesLeaveAtCrash(t *testing.T) {
	f, want := lentSetup(t, 4)
	s := NewStore(DefaultConfig())
	s.Borrow(f)
	persisted := map[Addr]Line{}
	for i, a := range []Addr{NVMBase + 6*LineSize, NVMBase + 9*LineSize, NVMBase + 40*LineSize} {
		var l Line
		l[0] = byte(i + 1)
		s.PersistLine(a, &l)
		persisted[a] = l
		if got := s.PeekLine(a); got != want[a] {
			t.Fatalf("PersistLine changed the live image of a lent page at %#x", uint64(a))
		}
	}
	s.Crash()
	if got := s.SnapshotLive(); !reflect.DeepEqual(got, persisted) {
		t.Errorf("after the crash the live image holds %d lines, want only the %d persisted", len(got), len(persisted))
	}
}

// TestLentPagesConcurrentBorrowers: stores on several goroutines borrow
// one image and read and write all of its lines at once. Each reads the
// image plus its own writes; under the race detector this also proves
// that no access stores to a lent page.
func TestLentPagesConcurrentBorrowers(t *testing.T) {
	f, want := lentSetup(t, 5)
	var addrs []Addr
	for a := range want {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewStore(DefaultConfig())
			s.Borrow(f)
			for i, a := range addrs {
				if w := want[a]; s.ReadU64(a) != binary.LittleEndian.Uint64(w[:8]) {
					t.Errorf("borrower %d: line %#x does not read as lent", g, uint64(a))
					return
				}
				if i%4 == g {
					s.WriteU64(a, uint64(g))
				}
			}
			for i, a := range addrs {
				if w := want[a]; i%4 == g {
					binary.LittleEndian.PutUint64(w[:], uint64(g))
					if s.PeekLine(a) != w {
						t.Errorf("borrower %d: lost its write to %#x", g, uint64(a))
					}
				} else if s.PeekLine(a) != w {
					t.Errorf("borrower %d: line %#x changed under it", g, uint64(a))
				}
			}
		}()
	}
	wg.Wait()
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
