package cache

import (
	"testing"
	"testing/quick"

	"uhtm/internal/mem"
)

// tiny returns a 4-set, 2-way cache (512 B) and a pointer to its
// eviction log.
func tiny() (*Cache, *[]Eviction) {
	var evs []Eviction
	c := New("tiny", 4*2*mem.LineSize, 2, func(e Eviction) { evs = append(evs, e) })
	return c, &evs
}

// addrInSet returns the i-th distinct line address mapping to set s of a
// 4-set cache.
func addrInSet(s, i int) mem.Addr {
	return mem.Addr((i*4 + s) * mem.LineSize)
}

func TestBadGeometryPanics(t *testing.T) {
	for _, c := range []struct{ size, ways int }{
		{100, 2}, {0, 1}, {3 * 64 * 2, 2},
		// The packed LRU stack holds at most 16 power-of-two ways.
		{4 * 64 * 17, 17}, {4 * 64 * 32, 32}, {4 * 64 * 3, 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(size=%d, ways=%d) did not panic", c.size, c.ways)
				}
			}()
			New("bad", c.size, c.ways, nil)
		}()
	}
}

func TestHitMiss(t *testing.T) {
	c, _ := tiny()
	a := addrInSet(1, 0)
	if c.Lookup(a) {
		t.Error("hit in empty cache")
	}
	c.Insert(a)
	if !c.Lookup(a) {
		t.Error("miss after insert")
	}
	// Sub-line address hits the same line.
	if !c.Lookup(a + 17) {
		t.Error("sub-line address missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c, evs := tiny()
	a0, a1, a2 := addrInSet(2, 0), addrInSet(2, 1), addrInSet(2, 2)
	c.Insert(a0)
	c.Insert(a1)
	c.Lookup(a0) // a0 now MRU; a1 is LRU
	c.Insert(a2) // evicts a1
	if len(*evs) != 1 || (*evs)[0].Addr != a1 {
		t.Fatalf("evictions = %v, want [a1=%#x]", *evs, uint64(a1))
	}
	if !c.Contains(a0) || !c.Contains(a2) || c.Contains(a1) {
		t.Error("wrong residency after eviction")
	}
}

func TestDirtyEviction(t *testing.T) {
	c, evs := tiny()
	a0, a1, a2 := addrInSet(0, 0), addrInSet(0, 1), addrInSet(0, 2)
	c.Insert(a0)
	if !c.MarkDirty(a0) {
		t.Fatal("MarkDirty missed present line")
	}
	c.Insert(a1)
	c.Insert(a2) // evicts dirty a0
	if len(*evs) != 1 || !(*evs)[0].Dirty || (*evs)[0].Addr != a0 {
		t.Fatalf("evictions = %v, want dirty a0", *evs)
	}
}

func TestInsertPresentRefreshesLRU(t *testing.T) {
	c, evs := tiny()
	a0, a1, a2 := addrInSet(3, 0), addrInSet(3, 1), addrInSet(3, 2)
	c.Insert(a0)
	c.Insert(a1)
	c.Insert(a0) // refresh, no eviction
	if len(*evs) != 0 {
		t.Fatal("re-insert evicted")
	}
	c.Insert(a2) // a1 is LRU now
	if (*evs)[0].Addr != a1 {
		t.Errorf("evicted %#x, want a1", uint64((*evs)[0].Addr))
	}
}

func TestInvalidate(t *testing.T) {
	c, evs := tiny()
	a := addrInSet(1, 3)
	c.Insert(a)
	c.MarkDirty(a)
	present, dirty := c.Invalidate(a)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(a) {
		t.Error("line present after invalidate")
	}
	if len(*evs) != 0 {
		t.Error("Invalidate invoked onEvict")
	}
	present, _ = c.Invalidate(a)
	if present {
		t.Error("double invalidate reported present")
	}
}

func TestMarkDirtyAbsent(t *testing.T) {
	c, _ := tiny()
	if c.MarkDirty(addrInSet(0, 0)) {
		t.Error("MarkDirty on absent line reported present")
	}
}

func TestForEachAndLen(t *testing.T) {
	c, _ := tiny()
	want := map[mem.Addr]bool{}
	for i := 0; i < 4; i++ {
		a := addrInSet(i, 0)
		c.Insert(a)
		want[a] = true
	}
	got := map[mem.Addr]bool{}
	c.ForEach(func(a mem.Addr, dirty bool) { got[a] = true })
	if len(got) != len(want) || c.Len() != len(want) {
		t.Errorf("ForEach saw %d lines, Len=%d, want %d", len(got), c.Len(), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Errorf("line %#x missing from ForEach", uint64(a))
		}
	}
}

func TestReset(t *testing.T) {
	c, _ := tiny()
	c.Insert(addrInSet(0, 0))
	c.Lookup(addrInSet(0, 0))
	c.Reset()
	if c.Len() != 0 || c.Hits != 0 || c.Misses != 0 {
		t.Error("Reset left state behind")
	}
}

// Property: a cache never holds more lines per set than its
// associativity, never holds duplicates, and evictions + residents ==
// distinct inserts.
func TestQuickInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		evicted := 0
		c := New("q", 8*4*mem.LineSize, 4, func(Eviction) { evicted++ })
		insertMisses := 0
		for _, op := range ops {
			a := mem.Addr(op) * mem.LineSize
			if !c.Contains(a) {
				insertMisses++
			}
			c.Insert(a)
		}
		// No duplicate residents.
		resident := map[mem.Addr]int{}
		c.ForEach(func(a mem.Addr, _ bool) { resident[a]++ })
		for _, n := range resident {
			if n != 1 {
				return false
			}
		}
		// Conservation: every insert-miss adds one resident, every
		// eviction removes one.
		return c.Len() <= 8*4 && insertMisses == c.Len()+evicted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
