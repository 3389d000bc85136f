package server

import (
	"bytes"
	"slices"
	"testing"

	"uhtm/internal/mem"
)

// seededStore returns a store whose first lines lines from base hold a
// fixed byte pattern.
func seededStore(base mem.Addr, lines int) *mem.Store {
	st := mem.NewStore(mem.DefaultConfig())
	b := make([]byte, lines*mem.LineSize)
	for i := range b {
		b[i] = byte(7*i + 3)
	}
	st.WriteBytes(base, b)
	return st
}

// TestCaptureMemMatchesStore: around a line boundary, every captureMem
// read and write agrees with mem.Store's accessors applied to a copy of
// the store, reads see the pending writes, the wrapped store stays
// untouched, and writes() returns the dirtied line images in first-write
// order.
func TestCaptureMemMatchesStore(t *testing.T) {
	const lines = 4
	base := mem.NVMBase + 4*mem.LineSize
	boundary := base + 2*mem.LineSize
	st, ref := seededStore(base, lines), seededStore(base, lines)
	cm := newCaptureMem(st)

	// checkAll compares every read shape over the region.
	checkAll := func(step string) {
		t.Helper()
		for a := base; a < base+lines*mem.LineSize; a++ {
			for _, n := range []int{1, 7, 8, 9, mem.LineSize, mem.LineSize + 1} {
				if a+mem.Addr(n) > base+lines*mem.LineSize {
					continue
				}
				if got, want := cm.ReadBytes(a, n), ref.ReadBytes(a, n); !bytes.Equal(got, want) {
					t.Fatalf("%s: ReadBytes(%#x, %d) = %x, want %x", step, uint64(a), n, got, want)
				}
			}
			if a%8 == 0 {
				if got, want := cm.ReadU64(a), ref.ReadU64(a); got != want {
					t.Fatalf("%s: ReadU64(%#x) = %#x, want %#x", step, uint64(a), got, want)
				}
			}
		}
	}
	checkAll("before writes")

	// wantOrder lists each line in the order a write first touched it.
	var wantOrder []mem.Addr
	touch := func(a mem.Addr, n int) {
		for la := mem.LineOf(a); la < a+mem.Addr(n); la += mem.LineSize {
			if !slices.Contains(wantOrder, la) {
				wantOrder = append(wantOrder, la)
			}
		}
	}

	// Writes of lengths up to a line and a half, at every offset within
	// 16 bytes of the boundary.
	for off := 0; off <= 16; off++ {
		for _, a := range []mem.Addr{boundary + mem.Addr(off), boundary - mem.Addr(off)} {
			n := 1 + (off*5)%(mem.LineSize+mem.LineSize/2)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(off*31 + i)
			}
			cm.WriteBytes(a, b)
			ref.WriteBytes(a, b)
			touch(a, n)
		}
	}
	checkAll("after byte writes")
	for a := boundary - 16; a <= boundary+16; a += 8 {
		v := uint64(a)*0x9e3779b97f4a7c15 + 1
		cm.WriteU64(a, v)
		ref.WriteU64(a, v)
		touch(a, 8)
	}
	cm.WriteU64(base, 42) // the region's first line, last to be dirtied
	ref.WriteU64(base, 42)
	touch(base, 8)
	checkAll("after word writes")

	pristine := seededStore(base, lines)
	for a := base; a < base+lines*mem.LineSize; a += mem.LineSize {
		if st.PeekLine(a) != pristine.PeekLine(a) {
			t.Fatalf("line %#x of the wrapped store changed before apply", uint64(a))
		}
	}

	ws := cm.writes()
	if len(ws) != len(wantOrder) {
		t.Fatalf("writes() returned %d lines, want %d", len(ws), len(wantOrder))
	}
	for i, w := range ws {
		if w.Addr != wantOrder[i] {
			t.Errorf("writes()[%d].Addr = %#x, want %#x", i, uint64(w.Addr), uint64(wantOrder[i]))
		}
		if w.Img != ref.PeekLine(w.Addr) {
			t.Errorf("writes()[%d] image differs from the reference store's line", i)
		}
	}
}

// TestCaptureMemUnalignedU64Panics: like mem.Store, captureMem rejects
// word accesses that are not 8-byte aligned.
func TestCaptureMemUnalignedU64Panics(t *testing.T) {
	base := mem.NVMBase + 4*mem.LineSize
	cm := newCaptureMem(seededStore(base, 1))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for off := mem.Addr(1); off < 8; off++ {
		a := base + off
		mustPanic("ReadU64", func() { cm.ReadU64(a) })
		mustPanic("WriteU64", func() { cm.WriteU64(a, 1) })
	}
	if len(cm.writes()) != 0 {
		t.Error("a rejected WriteU64 dirtied a line")
	}
}
