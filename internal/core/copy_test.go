package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"uhtm/internal/mem"
)

// The per-byte reference loops the line-at-a-time store accessors must
// match: one line lookup per byte, words assembled
// little-endian.

func refReadU64(s *mem.Store, a mem.Addr) uint64 {
	l := s.PeekLine(a)
	off := mem.LineOffset(a)
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(l[off+i])
	}
	return v
}

func refWriteU64(s *mem.Store, a mem.Addr, v uint64) {
	l := s.PeekLine(a)
	off := mem.LineOffset(a)
	for i := 0; i < 8; i++ {
		l[off+i] = byte(v >> (8 * i))
	}
	s.PokeLine(a, &l)
}

func refReadBytes(s *mem.Store, a mem.Addr, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		l := s.PeekLine(a + mem.Addr(i))
		out[i] = l[mem.LineOffset(a+mem.Addr(i))]
	}
	return out
}

func refWriteBytes(s *mem.Store, a mem.Addr, b []byte) {
	for i := range b {
		addr := a + mem.Addr(i)
		l := s.PeekLine(addr)
		l[mem.LineOffset(addr)] = b[i]
		s.PokeLine(addr, &l)
	}
}

// TestLineAccessorsMatchPerByteLoops runs ReadU64, WriteU64, ReadBytes,
// ReadInto and WriteBytes at every offset across a line boundary
// and a page boundary, at the first and last line of DRAM and of NVM,
// against the per-byte reference loops on a twin machine. Both machines
// must hold the same bytes in the same materialized lines, and no access
// counter may move.
func TestLineAccessorsMatchPerByteLoops(t *testing.T) {
	_, m := newTestMachine(DefaultOptions())
	_, ref := newTestMachine(DefaultOptions())
	s, rs := m.store, ref.store
	counters := func() [2]uint64 { return [2]uint64{s.DRAMWrites, s.NVMWrites} }
	before := counters()
	rng := rand.New(rand.NewSource(1))
	const L = mem.LineSize
	pageBytes := mem.Addr(mem.PageLines * L)
	// Each spot is a boundary with the span [lo, hi) around it that
	// stays inside one region.
	spots := []struct{ lo, hi mem.Addr }{
		{mem.DRAMBase, mem.DRAMBase + 2*L},                               // DRAM line 0
		{mem.DRAMBase + 64*L - L, mem.DRAMBase + 64*L + L},               // line boundary
		{mem.DRAMBase + 3*pageBytes - L, mem.DRAMBase + 3*pageBytes + L}, // page boundary
		{mem.DRAMBase + mem.DRAMSize - 2*L, mem.DRAMBase + mem.DRAMSize}, // last DRAM line
		{mem.NVMBase, mem.NVMBase + 2*L},                                 // NVM line 0
		{mem.NVMBase + 5*pageBytes - L, mem.NVMBase + 5*pageBytes + L},   // NVM page boundary
		{mem.NVMBase + mem.NVMSize - 2*L, mem.NVMBase + mem.NVMSize},     // last NVM line
	}
	check := func(what string, a mem.Addr, n int) {
		t.Helper()
		if !reflect.DeepEqual(s.SnapshotLive(), rs.SnapshotLive()) {
			t.Fatalf("%s at %#x n=%d: live images (bytes or materialized lines) differ", what, uint64(a), n)
		}
	}
	for _, sp := range spots {
		for a := sp.lo; a < sp.hi; a++ {
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 2*L - 1, 2 * L} {
				if a+mem.Addr(n) > sp.hi {
					continue
				}
				if got, want := s.ReadBytes(a, n), refReadBytes(rs, a, n); !bytes.Equal(got, want) {
					t.Fatalf("ReadBytes(%#x, %d) = %x, want %x", uint64(a), n, got, want)
				}
				check("ReadBytes", a, n)
				got, want := make([]byte, n), make([]byte, n)
				s.ReadInto(a, got)
				for i := range want {
					want[i] = refReadBytes(rs, a+mem.Addr(i), 1)[0]
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("ReadInto(%#x, %d) = %x, want %x", uint64(a), n, got, want)
				}
				check("ReadInto", a, n)
				b := make([]byte, n)
				rng.Read(b)
				s.WriteBytes(a, b)
				refWriteBytes(rs, a, b)
				check("WriteBytes", a, n)
			}
			if a%8 == 0 {
				v := rng.Uint64()
				s.WriteU64(a, v)
				refWriteU64(rs, a, v)
				check("WriteU64", a, 8)
				if got, want := s.ReadU64(a), refReadU64(rs, a); got != want {
					t.Fatalf("ReadU64(%#x) = %#x, want %#x", uint64(a), got, want)
				}
				check("ReadU64", a, 8)
			}
		}
	}
	if after := counters(); after != before {
		t.Fatalf("access counters moved: DRAM/NVM reads/writes %v -> %v", before, after)
	}
}
