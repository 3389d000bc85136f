// Package mem models the physical memory of the simulated machine: a
// hybrid DRAM/NVM address space with the latency parameters of Table III
// of the paper, reserved log areas for the hardware logs, and — crucially
// for crash-recovery experiments — a separate *durable* NVM image that
// only advances when the simulated hardware actually persists data.
//
// The backing store holds real bytes. Transactional data structures in
// this reproduction live inside this address space (their pointers are
// mem.Addr values), so rollback and recovery are verified against real
// content rather than asserted.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"uhtm/internal/sim"
	"uhtm/internal/trace"
)

// LineSize is the cache-line granularity of the simulated machine.
const LineSize = 64

// Addr is a physical address in the simulated machine.
type Addr uint64

// LineOf returns the address of the cache line containing a.
func LineOf(a Addr) Addr { return a &^ (LineSize - 1) }

// LineOffset returns a's offset within its cache line.
func LineOffset(a Addr) int { return int(a & (LineSize - 1)) }

// Kind distinguishes the two memory technologies of the hybrid system.
type Kind int

const (
	// DRAM is volatile memory: fast, lost on power failure.
	DRAM Kind = iota
	// NVM is non-volatile memory: slower, durable.
	NVM
)

// String names the memory kind ("DRAM" or "NVM").
func (k Kind) String() string {
	if k == DRAM {
		return "DRAM"
	}
	return "NVM"
}

// Region boundaries of the simulated physical address map. DRAM occupies
// a low window and NVM a high one; the top of each region is reserved
// for the hardware log area (inaccessible to software, managed by the
// memory controllers — Section IV-B of the paper).
//
// The map is shaped so that a line's dense index needs no branches
// (UncheckedLineIndex): DRAM starts at address 0, both regions span
// 1<<regionShift bytes, and NVM starts at the single address bit
// nvmShift, above DRAM.
const (
	regionShift = 30 // log2 of each region's size
	nvmShift    = 40 // log2 of NVMBase

	DRAMBase Addr = 0x0000_0000_0000
	DRAMSize Addr = 1 << regionShift // 1 GiB of addressable DRAM
	NVMBase  Addr = 1 << nvmShift    // 0x100_0000_0000
	NVMSize  Addr = 1 << regionShift // 1 GiB of addressable NVM

	// LogAreaSize is reserved at the top of each region for the
	// hardware undo (DRAM) and redo (NVM) logs.
	LogAreaSize Addr = 64 << 20

	DRAMLogBase Addr = DRAMBase + DRAMSize - LogAreaSize
	NVMLogBase  Addr = NVMBase + NVMSize - LogAreaSize
)

// Config carries the simulation configuration of Table III plus the
// DRAM-cache geometry from the hardware-logging substrate [28].
type Config struct {
	Cores int // simulated cores (16 in the paper)

	L1Size int // bytes, per-core (32 KB)
	L1Ways int // associativity (8)

	LLCSize int // bytes, shared (16 MB)
	LLCWays int // associativity (16)

	L1Latency  sim.Time // 1.5 ns
	LLCLatency sim.Time // 15 ns

	DRAMLatency     sim.Time // read/write, 82 ns
	NVMReadLatency  sim.Time // 175 ns
	NVMWriteLatency sim.Time // 94 ns (accepted at the write-pending queue; ADR)

	// DRAMCacheSize/Ways size the DRAM cache between the LLC and NVM
	// that buffers early-evicted persistent lines (per [28]). The paper
	// does not publish its geometry; 32 MB/16-way keeps it larger than
	// the LLC, as [28] requires.
	DRAMCacheSize int
	DRAMCacheWays int
}

// DefaultConfig returns Table III of the paper.
func DefaultConfig() Config {
	return Config{
		Cores:           16,
		L1Size:          32 << 10,
		L1Ways:          8,
		LLCSize:         16 << 20,
		LLCWays:         16,
		L1Latency:       1500 * sim.Picosecond,
		LLCLatency:      15 * sim.Nanosecond,
		DRAMLatency:     82 * sim.Nanosecond,
		NVMReadLatency:  175 * sim.Nanosecond,
		NVMWriteLatency: 94 * sim.Nanosecond,
		DRAMCacheSize:   32 << 20,
		DRAMCacheWays:   16,
	}
}

// KindOf classifies an address as DRAM or NVM. It panics on addresses
// outside both regions — always a simulator bug.
func KindOf(a Addr) Kind {
	switch {
	case a >= DRAMBase && a < DRAMBase+DRAMSize:
		return DRAM
	case a >= NVMBase && a < NVMBase+NVMSize:
		return NVM
	}
	panic(fmt.Sprintf("mem: address %#x outside DRAM and NVM regions", uint64(a)))
}

// InLogArea reports whether a falls inside a reserved hardware log area.
func InLogArea(a Addr) bool {
	return (a >= DRAMLogBase && a < DRAMBase+DRAMSize) ||
		(a >= NVMLogBase && a < NVMBase+NVMSize)
}

// Line is the unit of storage: one cache line of real bytes.
type Line [LineSize]byte

// The flat line-index space: every addressable line of the hybrid
// memory maps to one dense index — DRAM lines first, NVM lines after —
// so per-line metadata anywhere in the simulator can live in flat
// arrays instead of map[Addr] hashes. Indices are grouped into pages of
// PageLines lines; pages materialize on first touch, keeping the
// resident footprint proportional to the lines actually used.
const (
	// PageShift sets the line-table page size: 1<<PageShift lines
	// (64 KiB of data) per page.
	PageShift = 10
	// PageLines is the number of lines per line-table page.
	PageLines = 1 << PageShift

	dramLineCount = uint64(DRAMSize / LineSize)
	nvmLineCount  = uint64(NVMSize / LineSize)

	lineShift      = 6                       // log2(LineSize)
	regionLineBits = regionShift - lineShift // log2(dramLineCount)

	// LineCount is the total number of addressable lines (DRAM + NVM).
	LineCount = dramLineCount + nvmLineCount
	// PageCount is the number of line-table pages covering LineCount.
	PageCount = int(LineCount / PageLines)
)

// LineIndex maps an address to its dense line index. It panics for
// addresses outside both regions — always a simulator bug.
func LineIndex(a Addr) uint64 {
	if a < DRAMBase+DRAMSize {
		return uint64(a >> 6)
	}
	if a >= NVMBase && a < NVMBase+NVMSize {
		return dramLineCount + uint64((a-NVMBase)>>6)
	}
	panic(fmt.Sprintf("mem: address %#x outside DRAM and NVM regions", uint64(a)))
}

// The branch-free index relies on the shape of the address map; each
// constant below overflows (a compile error) if that shape is broken.
const (
	_ = uint(LineSize - 1<<lineShift)
	_ = uint(1<<lineShift - LineSize)
	_ = 0 - DRAMBase // DRAM starts at address 0
	_ = uint(nvmShift - regionShift - 1)
)

// UncheckedLineIndex is LineIndex without branches or a range check,
// for hot paths that validate separately: the line's offset within its
// region, with NVMBase's address bit moved down just above it. It
// equals LineIndex(a) for every address in DRAM or NVM; for any other
// address it is not a valid line index, which AddrOfLineIndex exposes
// (it does not map the result back to a's line, or the result is at
// least LineCount).
func UncheckedLineIndex(a Addr) uint64 {
	return uint64(a>>lineShift)&(1<<regionLineBits-1) | uint64(a>>nvmShift)<<regionLineBits
}

// AddrOfLineIndex inverts LineIndex, returning the line address. It
// has no branches: the index's region bit becomes NVMBase's address
// bit.
func AddrOfLineIndex(idx uint64) Addr {
	return Addr(idx&(1<<regionLineBits-1))<<lineShift | Addr(idx>>regionLineBits)<<nvmShift
}

// linePage is one page of a memory image: the line contents plus a
// bitmap of which lines have materialized (been touched). The bitmap
// preserves the exact key set the old map-based image exposed through
// the snapshot functions. After a Crash the live and the durable image
// hold the same pages (Store.shared) until one of them changes one; a
// store that borrows a Frozen page set holds those pages the same way.
type linePage struct {
	lines [PageLines]Line
	mat   [PageLines / 64]uint64
}

// image is one memory image (live or durable) as a paged flat array.
type image struct {
	pages []*linePage
}

func newImage() image { return image{pages: make([]*linePage, PageCount)} }

// read returns the line at idx without materializing it.
func (im *image) read(idx uint64) Line {
	if p := im.pages[idx>>PageShift]; p != nil {
		return p.lines[idx&(PageLines-1)]
	}
	return Line{}
}

// forEach visits every materialized line in ascending address order.
func (im *image) forEach(fn func(idx uint64, l *Line)) {
	for pi, p := range im.pages {
		if p == nil {
			continue
		}
		for w, word := range p.mat {
			for word != 0 {
				off := uint64(w*64 + bits.TrailingZeros64(word))
				fn(uint64(pi)<<PageShift+off, &p.lines[off])
				word &= word - 1
			}
		}
	}
}

// count returns the number of materialized lines.
func (im *image) count() int {
	n := 0
	for _, p := range im.pages {
		if p == nil {
			continue
		}
		for _, word := range p.mat {
			n += bits.OnesCount64(word)
		}
	}
	return n
}

// Store is the simulated physical memory. The live image is what the
// cache hierarchy observes; the durable image is what NVM would hold
// after an instantaneous power failure (in-place NVM data that the
// hardware actually wrote back). DRAM contents exist only in the live
// image and vanish at a crash.
type Store struct {
	cfg     Config
	live    image
	durable image // NVM lines only

	// shared has bit pi set while page pi of the live image is not the
	// live image's alone to write: the durable image holds the same
	// linePage since a Crash (see Crash), or the page is lent (see
	// Borrow). Either way it is copied before its first write.
	shared [PageCount / 64]uint64

	// crashpoint, when set, is invoked with the injection-point name
	// immediately before each durability transition (see PointPersistLine
	// and RECOVERY.md). The crash framework arms it to kill the
	// simulation between any two durable line updates, modeling a power
	// failure that tears a multi-line structure (e.g. a log record)
	// mid-write.
	crashpoint func(point string)

	// tracer, when set, receives an EvNVMPersist event per durable line
	// update; traceNow supplies the engine world's virtual time.
	tracer   *trace.Recorder
	traceNow func() int64
}

// PointPersistLine is the injection point fired before every durable
// line update (one PersistLine call). Crashing on the k-th visit leaves
// exactly the first k-1 persisted lines durable.
const PointPersistLine = "mem.persist.line"

// SetCrashpoint installs (or, with nil, removes) the crash-injection
// hook. The hook runs synchronously on the simulated thread performing
// the persist and may abort the simulation (sim.Engine.HaltNow); it must
// not touch store state.
func (s *Store) SetCrashpoint(f func(point string)) { s.crashpoint = f }

// SetTracer installs (or, with nil, removes) the event recorder for
// durability events. now supplies virtual timestamps (the owning
// engine's current clock).
func (s *Store) SetTracer(r *trace.Recorder, now func() int64) {
	s.tracer, s.traceNow = r, now
}

// NewStore returns an empty store (all bytes zero) for the given config.
func NewStore(cfg Config) *Store {
	return &Store{
		cfg:     cfg,
		live:    newImage(),
		durable: newImage(),
	}
}

// isShared reports whether page pi of the live image is shared with
// the durable image or lent.
func (s *Store) isShared(pi uint64) bool { return s.shared[pi/64]&(1<<(pi%64)) != 0 }

// at returns a pointer to im's line at idx for reading, materializing
// it. Reading a line the page already holds copies nothing and stores
// nothing, even when the page is shared or lent, so callers must not
// write through the pointer (see mut): other stores may be reading a
// lent page at the same time. Materializing a new line of a shared
// page copies the page first: the bitmap is part of the page.
func (s *Store) at(im *image, idx uint64) *Line {
	pi, w, bit := idx>>PageShift, idx%PageLines/64, uint64(1)<<(idx%64)
	p := im.pages[pi]
	if p == nil || p.mat[w]&bit == 0 {
		if p == nil || s.isShared(pi) {
			p = s.own(im, pi)
		}
		p.mat[w] |= bit
	}
	return &p.lines[idx%PageLines]
}

// mut is at for writing: a page the other image still shares, or a
// lent page, is copied first.
func (s *Store) mut(im *image, idx uint64) *Line {
	pi := idx >> PageShift
	p := im.pages[pi]
	if p == nil || s.isShared(pi) {
		p = s.own(im, pi)
	}
	p.mat[idx%PageLines/64] |= 1 << (idx % 64)
	return &p.lines[idx%PageLines]
}

// own gives im a page pi of its own: a fresh one on first use, or a copy
// of the live image's shared or lent page. A durable write under a lent
// live page keeps the durable image's own page, which the live image
// never held. It is the slow path of at and mut, kept out of line so
// that they stay one call deep.
//
//go:noinline
func (s *Store) own(im *image, pi uint64) *linePage {
	old := im.pages[pi]
	if s.isShared(pi) && old == s.live.pages[pi] {
		p := new(linePage)
		*p = *old
		s.shared[pi/64] &^= 1 << (pi % 64)
		im.pages[pi] = p
		return p
	}
	if old != nil {
		return old
	}
	p := new(linePage)
	im.pages[pi] = p
	return p
}

// WriteLine stores src as the live contents of the line containing a.
// For NVM it does NOT advance the durable image: durability happens only
// via PersistLine or WriteThrough (log writes, DRAM-cache drains).
func (s *Store) WriteLine(a Addr, src *Line) {
	*s.mut(&s.live, LineIndex(a)) = *src
}

// PeekLine returns the live contents without charging an access; used by
// checkers and statistics, never by the simulated hardware.
func (s *Store) PeekLine(a Addr) Line { return *s.at(&s.live, LineIndex(a)) }

// PokeLine sets live contents without charging an access (checker use).
func (s *Store) PokeLine(a Addr, src *Line) { *s.mut(&s.live, LineIndex(a)) = *src }

// ReadU64 reads the 8-byte word at a from the live image (a must be
// 8-byte aligned). Checker/convenience access: no latency accounting.
func (s *Store) ReadU64(a Addr) uint64 {
	if a%8 != 0 {
		panic("mem: unaligned ReadU64")
	}
	off := LineOffset(a)
	return binary.LittleEndian.Uint64(s.at(&s.live, LineIndex(a))[off : off+8])
}

// DurableU64 reads the 8-byte word at a from the durable NVM image
// (a must be 8-byte aligned). Recovery evidence must come from here —
// the live image may hold post-crash state a real power failure would
// have discarded.
func (s *Store) DurableU64(a Addr) uint64 {
	if a%8 != 0 {
		panic("mem: unaligned DurableU64")
	}
	l := s.durable.read(LineIndex(a))
	off := LineOffset(a)
	return binary.LittleEndian.Uint64(l[off : off+8])
}

// WriteU64 writes the 8-byte word at a in the live image (checker use).
func (s *Store) WriteU64(a Addr, v uint64) {
	if a%8 != 0 {
		panic("mem: unaligned WriteU64")
	}
	off := LineOffset(a)
	binary.LittleEndian.PutUint64(s.mut(&s.live, LineIndex(a))[off:off+8], v)
}

// ReadBytes copies n bytes starting at a from the live image (checker
// and setup use — no latency accounting).
func (s *Store) ReadBytes(a Addr, n int) []byte {
	out := make([]byte, n)
	s.ReadInto(a, out)
	return out
}

// ReadInto fills dst from the live image starting at a, one line at a
// time: ReadBytes into a caller's buffer.
func (s *Store) ReadInto(a Addr, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, s.at(&s.live, LineIndex(a))[LineOffset(a):])
		dst = dst[n:]
		a += Addr(n)
	}
}

// DurableInto fills dst from the durable NVM image starting at a, one
// line at a time, without materializing anything: the recovery-side
// ReadInto.
func (s *Store) DurableInto(a Addr, dst []byte) {
	for len(dst) > 0 {
		idx := LineIndex(a)
		n := min(len(dst), LineSize-LineOffset(a))
		if p := s.durable.pages[idx>>PageShift]; p != nil {
			copy(dst, p.lines[idx%PageLines][LineOffset(a):])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// WriteBytes copies b into the live image starting at a, one line at a
// time (checker and setup use — no latency accounting).
func (s *Store) WriteBytes(a Addr, b []byte) {
	for len(b) > 0 {
		n := copy(s.mut(&s.live, LineIndex(a))[LineOffset(a):], b)
		b = b[n:]
		a += Addr(n)
	}
}

// persisting runs the bookkeeping of one durable update of the NVM line
// at la: the injection point, then the trace event. It panics for DRAM
// addresses.
func (s *Store) persisting(la Addr) {
	if KindOf(la) != NVM {
		panic("mem: persist on DRAM address")
	}
	if s.crashpoint != nil {
		s.crashpoint(PointPersistLine)
	}
	if s.tracer != nil {
		s.tracer.Emit(s.traceNow(), -1, trace.EvNVMPersist, 0, uint64(la), 0, 0)
	}
}

// PersistLine records the line containing a as durable in NVM with the
// given contents. It models an in-place NVM update that has drained past
// the ADR boundary. Panics for DRAM addresses.
func (s *Store) PersistLine(a Addr, src *Line) {
	s.persisting(LineOf(a))
	*s.mut(&s.durable, LineIndex(a)) = *src
}

// WriteThrough copies b into NVM starting at a, into the live and the
// durable image alike, one line at a time: per line, exactly WriteLine
// of the live line with b's bytes patched in, then PersistLine of the
// same bytes. It is the one call for writes that are durable as soon as
// they land — persistent log rings, redo replay, 2PC applies, and the
// single-line cells. A line whose page both images still hold (after a
// Crash) is written once, in place; a lent page is copied first, as by
// any write. The injection point fires before any byte of the line
// changes, so a crash there leaves both images as they were. Panics for
// DRAM addresses.
func (s *Store) WriteThrough(a Addr, b []byte) {
	for len(b) > 0 {
		la, off := LineOf(a), LineOffset(a)
		s.persisting(la)
		idx := LineIndex(la)
		pi := idx >> PageShift
		var n int
		if s.isShared(pi) && s.live.pages[pi] == s.durable.pages[pi] {
			p, pl := s.live.pages[pi], idx%PageLines
			p.mat[pl/64] |= 1 << (pl % 64)
			n = copy(p.lines[pl][off:], b)
		} else {
			l := s.mut(&s.live, idx)
			n = copy(l[off:], b)
			*s.mut(&s.durable, idx) = *l
		}
		b = b[n:]
		a += Addr(n)
	}
}

// PersistLiveNVM snapshots every live NVM line into the durable image —
// initialization durability, the state a formatted persistent heap has
// before any transactions run. Call it after non-transactional setup
// (prepopulation) and before crash-injection windows.
func (s *Store) PersistLiveNVM() {
	s.live.forEach(func(idx uint64, l *Line) {
		a := AddrOfLineIndex(idx)
		if KindOf(a) == NVM && !InLogArea(a) {
			*s.mut(&s.durable, idx) = *l
		}
	})
}

// Crash simulates an instantaneous power failure: the live image is
// discarded and replaced by the durable NVM image; DRAM reads as zero.
// The caller (recovery) then replays committed redo-log records.
//
// Crash copies no page: the live image takes the durable image's pages
// and both hold them (Store.shared) until one image copies a page to
// change it (own). Pages the discarded live image still shared go back
// to the durable image alone, and lent pages leave the store. The cost
// is one pass over the page table, whatever the size of the image, and
// nothing is allocated.
func (s *Store) Crash() {
	copy(s.live.pages, s.durable.pages)
	clear(s.shared[:])
	for pi, p := range s.durable.pages {
		if p != nil {
			s.shared[pi/64] |= 1 << (pi % 64)
		}
	}
}

// Frozen is a live image taken from the store that built it (TakeLive),
// to be lent to any number of stores at once (Borrow). Nothing writes
// its pages again: a borrowing store copies a lent page before it
// changes it, exactly as it copies a page its live and durable image
// share after a Crash, so every borrower sees the image as it was
// taken, plus its own writes.
type Frozen struct {
	pages []frozenPage // ascending page index
}

type frozenPage struct {
	pi uint64
	p  *linePage
}

// TakeLive freezes the store's live image and leaves the store empty,
// as NewStore returns it: the pages now belong to the returned Frozen.
// The durable image is dropped with them, so no image of this store
// holds a page that it could write.
func (s *Store) TakeLive() *Frozen {
	f := &Frozen{}
	for pi, p := range s.live.pages {
		if p != nil {
			f.pages = append(f.pages, frozenPage{uint64(pi), p})
		}
	}
	clear(s.live.pages)
	clear(s.durable.pages)
	clear(s.shared[:])
	return f
}

// Borrow lends f's pages to the store's live image, copy-on-write: it
// reads them in place, and copies one before the first write to it
// (own). The durable image is left alone. The store must hold none of
// f's pages yet in either image; Borrow panics otherwise, since that
// overlap is always a setup bug. It costs one pass over f's pages and
// allocates nothing.
func (s *Store) Borrow(f *Frozen) {
	for _, fp := range f.pages {
		if s.live.pages[fp.pi] != nil || s.durable.pages[fp.pi] != nil {
			panic(fmt.Sprintf("mem: borrowed page at %#x is already held", uint64(AddrOfLineIndex(fp.pi<<PageShift))))
		}
		s.live.pages[fp.pi] = fp.p
		s.shared[fp.pi/64] |= 1 << (fp.pi % 64)
	}
}

// SnapshotLive returns a deep copy of the live image, for checkers.
func (s *Store) SnapshotLive() map[Addr]Line {
	out := make(map[Addr]Line, s.live.count())
	s.live.forEach(func(idx uint64, l *Line) {
		out[AddrOfLineIndex(idx)] = *l
	})
	return out
}

// SnapshotDurable returns a deep copy of the durable NVM image, for
// checkers (the crash framework's committed-prefix oracle compares it
// against an independently computed expectation).
func (s *Store) SnapshotDurable() map[Addr]Line {
	out := make(map[Addr]Line, s.durable.count())
	s.durable.forEach(func(idx uint64, l *Line) {
		out[AddrOfLineIndex(idx)] = *l
	})
	return out
}

// Allocator is a bump allocator over one region of the address space.
// The hardware log areas are excluded from its range.
type Allocator struct {
	kind Kind
	next Addr
	end  Addr
}

// NewAllocator returns an allocator for the usable portion of a region.
func NewAllocator(kind Kind) *Allocator {
	if kind == DRAM {
		return &Allocator{kind: kind, next: DRAMBase, end: DRAMLogBase}
	}
	return &Allocator{kind: kind, next: NVMBase, end: NVMLogBase}
}

// NewArena returns an allocator over an explicit sub-range [base, end)
// of kind's usable region. Disjoint arenas model separate processes —
// no false sharing of cache lines across conflict domains.
func NewArena(kind Kind, base, end Addr) *Allocator {
	full := NewAllocator(kind)
	if base < full.next || end > full.end || base >= end {
		panic(fmt.Sprintf("mem: arena [%#x,%#x) outside usable %v region", uint64(base), uint64(end), kind))
	}
	return &Allocator{kind: kind, next: base, end: end}
}

// SplitRegion carves n equal, line-aligned, disjoint arenas out of
// kind's usable region, optionally leaving reserve bytes free at the
// top.
func SplitRegion(kind Kind, n int, reserve Addr) []*Allocator {
	full := NewAllocator(kind)
	usable := full.end - full.next - reserve
	per := (usable / Addr(n)) &^ (LineSize - 1)
	if per < LineSize {
		panic("mem: region too small for requested arenas")
	}
	out := make([]*Allocator, n)
	for i := range out {
		base := full.next + Addr(i)*per
		out[i] = NewArena(kind, base, base+per)
	}
	return out
}

// Alloc returns the address of a fresh n-byte object aligned to align
// (which must be a power of two). It panics when the region is
// exhausted — simulated workloads are sized to fit.
func (al *Allocator) Alloc(n int, align Addr) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic("mem: alignment must be a power of two")
	}
	a := (al.next + align - 1) &^ (align - 1)
	if a+Addr(n) > al.end {
		panic(fmt.Sprintf("mem: %v region exhausted", al.kind))
	}
	al.next = a + Addr(n)
	return a
}

// AllocLines allocates n whole cache lines, line-aligned.
func (al *Allocator) AllocLines(n int) Addr {
	return al.Alloc(n*LineSize, LineSize)
}
