package cache

import (
	"math/rand"
	"testing"

	"uhtm/internal/mem"
)

// stampLRU is the reference model the packed-stack cache must match
// bit for bit: ways as parallel flat arrays indexed set*ways+way, a
// per-way LRU timestamp, and one pass per operation. Its fill rule is
// the one the simulator's results were produced with: the lowest-index
// invalid way, else the way with the oldest stamp.
type stampLRU struct {
	tags    []uint64 // line | 1 when valid, 0 when invalid
	used    []uint64
	dirty   []bool
	numSets int
	ways    int
	tick    uint64
	evicted []Eviction
	hits    uint64
	misses  uint64
}

func newStampLRU(sets, ways int) *stampLRU {
	n := sets * ways
	return &stampLRU{tags: make([]uint64, n), used: make([]uint64, n), dirty: make([]bool, n), numSets: sets, ways: ways}
}

func (m *stampLRU) find(a mem.Addr) int {
	tag := uint64(mem.LineOf(a)) | 1
	b := (int(a/mem.LineSize) & (m.numSets - 1)) * m.ways
	for i := b; i < b+m.ways; i++ {
		if m.tags[i] == tag {
			return i
		}
	}
	return -1
}

func (m *stampLRU) stamp(i int) { m.tick++; m.used[i] = m.tick }

func (m *stampLRU) lookup(a mem.Addr) bool {
	if i := m.find(a); i >= 0 {
		m.stamp(i)
		m.hits++
		return true
	}
	m.misses++
	return false
}

func (m *stampLRU) touch(a mem.Addr) bool {
	if i := m.find(a); i >= 0 {
		m.stamp(i)
		return true
	}
	return false
}

func (m *stampLRU) insert(a mem.Addr) int {
	la := mem.LineOf(a)
	if i := m.find(la); i >= 0 {
		m.stamp(i)
		return i
	}
	b := (int(la/mem.LineSize) & (m.numSets - 1)) * m.ways
	victim := -1
	for i := b; i < b+m.ways; i++ {
		if m.tags[i] == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = b
		for i := b; i < b+m.ways; i++ {
			if m.used[i] < m.used[victim] {
				victim = i
			}
		}
		m.evicted = append(m.evicted, Eviction{Addr: mem.Addr(m.tags[victim] &^ 1), Dirty: m.dirty[victim]})
	}
	m.tags[victim] = uint64(la) | 1
	m.dirty[victim] = false
	m.stamp(victim)
	return victim
}

func (m *stampLRU) invalidate(a mem.Addr) (present, dirty bool) {
	if i := m.find(a); i >= 0 {
		present, dirty = true, m.dirty[i]
		m.tags[i], m.used[i], m.dirty[i] = 0, 0, false
	}
	return
}

func (m *stampLRU) reset() {
	clear(m.tags)
	clear(m.used)
	clear(m.dirty)
	m.tick, m.hits, m.misses = 0, 0, 0
}

// cacheOp is one step of the differential op mix.
type cacheOp struct {
	kind  byte // see diffRig.step
	line  int  // line index within the address window
	other int  // second line, for the Touch-miss → mutate → Insert steps
}

const numCacheOps = 10

// diffRig drives a Cache and its stampLRU model side by side.
type diffRig struct {
	t       testing.TB
	c       *Cache
	m       *stampLRU
	evs     []Eviction
	checked int // evictions already compared with the model
	lines   int // address window in lines
	block   int // lines per window block (see addr)
}

func newDiffRig(t testing.TB, sets, ways int) *diffRig {
	r := &diffRig{t: t, m: newStampLRU(sets, ways), block: sets * ways}
	r.lines = len(windowBlocks) * r.block
	r.c = New("diff", sets*ways*mem.LineSize, ways, func(e Eviction) {
		// The victim is still findable during the callback.
		if r.c.FindWay(e.Addr) < 0 {
			t.Fatalf("victim %#x not findable in onEvict", uint64(e.Addr))
		}
		r.evs = append(r.evs, e)
	})
	return r
}

// windowBlocks anchor the blocks of the address window at both ends of
// both regions: DRAM line 0, the last DRAM line, mem.NVMBase and the
// last NVM line all fall in it, so packed tags are checked where the
// region bits change. A block marked end finishes at its region's end.
var windowBlocks = []struct {
	base mem.Addr
	end  bool
}{{mem.DRAMBase, false}, {mem.DRAMBase + mem.DRAMSize, true}, {mem.NVMBase, false}, {mem.NVMBase + mem.NVMSize, true}}

// addr maps a window line to its address. Every block holds a whole
// number of cache capacities, so line and line + k*sets share a set.
func (r *diffRig) addr(line int) mem.Addr {
	line %= r.lines
	b := windowBlocks[line/r.block]
	a := b.base + mem.Addr(line%r.block)*mem.LineSize
	if b.end {
		a -= mem.Addr(r.block) * mem.LineSize
	}
	return a
}

// sameSet returns a line index in the same set as line.
func (r *diffRig) sameSet(line, k int) int { return line + k*r.m.numSets }

func (r *diffRig) step(n int, op cacheOp) {
	t, c, m := r.t, r.c, r.m
	a := r.addr(op.line)
	b := r.addr(r.sameSet(op.line, 1+op.other%(2*m.ways)))
	switch op.kind % numCacheOps {
	case 0, 1:
		if got, want := c.Insert(a), m.insert(a); got != want {
			t.Fatalf("op %d: Insert(%#x) filled way %d, model %d", n, uint64(a), got, want)
		}
	case 2:
		if got, want := c.Touch(a), m.touch(a); got != want {
			t.Fatalf("op %d: Touch(%#x) = %v, model %v", n, uint64(a), got, want)
		}
	case 3:
		if got, want := c.Lookup(a), m.lookup(a); got != want {
			t.Fatalf("op %d: Lookup(%#x) = %v, model %v", n, uint64(a), got, want)
		}
	case 4:
		gp, gd := c.Invalidate(a)
		wp, wd := m.invalidate(a)
		if gp != wp || gd != wd {
			t.Fatalf("op %d: Invalidate(%#x) = (%v,%v), model (%v,%v)", n, uint64(a), gp, gd, wp, wd)
		}
	case 5, 6:
		i := m.find(a)
		if got := c.MarkDirty(a); got != (i >= 0) {
			t.Fatalf("op %d: MarkDirty(%#x) = %v, model %v", n, uint64(a), got, i >= 0)
		}
		if i >= 0 {
			m.dirty[i] = true
		}
	case 7:
		// Touch miss, an invalidation in the same set, then the fill:
		// the fill must notice the freed way.
		if c.Touch(a) != m.touch(a) {
			t.Fatalf("op %d: Touch(%#x) disagrees", n, uint64(a))
		}
		c.Invalidate(b)
		m.invalidate(b)
		if got, want := c.Insert(a), m.insert(a); got != want {
			t.Fatalf("op %d: Insert(%#x) after Invalidate filled way %d, model %d", n, uint64(a), got, want)
		}
	case 8:
		// Touch miss, a fill of another line of the set, then the fill.
		if c.Touch(a) != m.touch(a) {
			t.Fatalf("op %d: Touch(%#x) disagrees", n, uint64(a))
		}
		c.Insert(b)
		m.insert(b)
		c.Insert(a)
		m.insert(a)
	case 9:
		if op.other%16 == 0 {
			c.Reset()
			m.reset()
		} else {
			// Touch miss, LRU-only refresh of another line, then fill.
			c.Touch(a)
			m.touch(a)
			c.Lookup(b)
			m.lookup(b)
			c.Insert(a)
			m.insert(a)
		}
	}
	r.check(n, a)
	r.check(n, b)
}

// check compares the eviction sequence, counters, and the cache's view
// of line a with the model's.
func (r *diffRig) check(n int, a mem.Addr) {
	t, c, m := r.t, r.c, r.m
	if len(r.evs) != len(m.evicted) {
		t.Fatalf("op %d: %d evictions, model %d", n, len(r.evs), len(m.evicted))
	}
	for ; r.checked < len(r.evs); r.checked++ {
		if i := r.checked; r.evs[i] != m.evicted[i] {
			t.Fatalf("op %d: eviction %d = %+v, model %+v", n, i, r.evs[i], m.evicted[i])
		}
	}
	if c.Hits != m.hits || c.Misses != m.misses {
		t.Fatalf("op %d: hits/misses %d/%d, model %d/%d", n, c.Hits, c.Misses, m.hits, m.misses)
	}
	i := m.find(a)
	if got := c.Contains(a); got != (i >= 0) {
		t.Fatalf("op %d: Contains(%#x) = %v, model %v", n, uint64(a), got, i >= 0)
	}
	if got := c.Dirty(a); got != (i >= 0 && m.dirty[i]) {
		t.Fatalf("op %d: Dirty(%#x) = %v, model %v", n, uint64(a), got, !got)
	}
	if w := c.FindWay(a); w != i {
		t.Fatalf("op %d: FindWay(%#x) = %d, model %d", n, uint64(a), w, i)
	} else if w >= 0 {
		if la, ok := c.WayLine(w); !ok || la != mem.LineOf(a) {
			t.Fatalf("op %d: WayLine(%d) = (%#x,%v), want (%#x,true)", n, w, uint64(la), ok, uint64(a))
		}
	}
}

// finish compares every way of the cache with the model.
func (r *diffRig) finish() {
	c, m := r.c, r.m
	for i := range m.tags {
		la, ok := c.WayLine(i)
		if ok != (m.tags[i] != 0) || (ok && uint64(la)|1 != m.tags[i]) {
			r.t.Fatalf("way %d holds (%#x,%v), model tag %#x", i, uint64(la), ok, m.tags[i])
		}
	}
	n := 0
	for _, tag := range m.tags {
		if tag != 0 {
			n++
		}
	}
	if c.Len() != n {
		r.t.Fatalf("Len = %d, model %d", c.Len(), n)
	}
}

// diffGeometries are the shapes the differential tests cover: every
// associativity the simulator configures, with several sets and with
// one (the server tests' caches have one set).
var diffGeometries = []struct{ sets, ways int }{
	{4, 2}, {4, 4}, {4, 8}, {4, 16},
	{1, 2}, {1, 4}, {1, 8}, {1, 16},
	{8, 2}, {8, 4}, {8, 8}, {8, 16},
}

// TestCacheMatchesStampLRUModel runs a seeded random op mix against the
// packed-stack cache and the timestamp model over each geometry and
// requires identical evictions, answers and way numbering. Addresses
// come from both ends of both memory regions.
func TestCacheMatchesStampLRUModel(t *testing.T) {
	for _, g := range diffGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(g.sets*g.ways)))
			r := newDiffRig(t, g.sets, g.ways)
			for n := 0; n < 20000; n++ {
				r.step(n, cacheOp{kind: byte(rng.Intn(numCacheOps)), line: rng.Intn(r.lines), other: rng.Intn(64)})
			}
			r.finish()
			if len(r.evs) == 0 {
				t.Fatalf("sets=%d ways=%d seed=%d: op mix produced no evictions", g.sets, g.ways, seed)
			}
		}
	}
}

// FuzzCacheMatchesModel decodes fuzz bytes into the same op mix: the
// first byte picks the geometry, then each three bytes are one op.
func FuzzCacheMatchesModel(f *testing.F) {
	// 2-way: fill set 0 with lines 0 and 4, then Touch-miss line 8,
	// invalidate line 0 and fill line 8, which must take the freed way.
	f.Add([]byte{0, 0, 0, 0, 0, 4, 0, 7, 8, 3})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 7, 1, 2})
	f.Add([]byte{1, 0, 0, 0, 0, 8, 0, 0, 0, 16, 0, 0, 24, 0, 7, 0, 3, 2, 8, 4})
	f.Add([]byte{2, 5, 3, 1, 7, 9, 0, 8, 64, 5, 4, 3, 9, 0, 16, 2, 11, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 16, 0, 0, 32, 0, 9, 0, 1, 8, 7, 3, 7, 2, 0, 4, 5, 6, 0, 9})
	// 1-set, 2-way: DRAM line 0, the last DRAM line, then NVM lines that
	// evict them.
	f.Add([]byte{4, 0, 0, 0, 0, 3, 0, 0, 4, 0, 0, 7, 0, 5, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := diffGeometries[int(data[0])%len(diffGeometries)]
		r := newDiffRig(t, g.sets, g.ways)
		for n, i := 0, 1; i+2 < len(data); n, i = n+1, i+3 {
			r.step(n, cacheOp{kind: data[i], line: int(data[i+1]), other: int(data[i+2])})
		}
		r.finish()
	})
}

// TestTagPackRoundTrip checks that a tag is the dense line index above
// the flags at both ends of both regions, and that Insert rejects
// addresses outside them rather than aliasing.
func TestTagPackRoundTrip(t *testing.T) {
	last := func(base, size mem.Addr) mem.Addr { return base + size - mem.LineSize }
	for _, a := range []mem.Addr{
		mem.DRAMBase, mem.DRAMBase + mem.LineSize + 5, mem.DRAMLogBase, last(mem.DRAMBase, mem.DRAMSize),
		mem.NVMBase, mem.NVMBase + 3*mem.LineSize + 63, mem.NVMLogBase, last(mem.NVMBase, mem.NVMSize),
	} {
		tag := tagOf(a)
		if uint64(tag>>tagShift) != mem.LineIndex(a) || tag&tagFlags != 0 {
			t.Errorf("tagOf(%#x) = %#x, want line index %#x above the flags", uint64(a), tag, mem.LineIndex(a))
		}
		if got := lineOf(tag | tagFlags); got != mem.LineOf(a) {
			t.Errorf("lineOf(tagOf(%#x)) = %#x", uint64(a), uint64(got))
		}
	}
	for _, a := range []mem.Addr{mem.DRAMBase + mem.DRAMSize, mem.NVMBase - mem.LineSize, mem.NVMBase + mem.NVMSize, 1 << 41} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%#x) outside both regions did not panic", uint64(a))
				}
			}()
			New("range", 4*mem.LineSize, 4, nil).Insert(a)
		}()
	}
}

// BenchmarkPollutionStream measures the LLC pollution stream's miss
// path: a Touch miss, then the Insert that fills the line and evicts,
// over a random 32 MB window on the default 16 MB, 16-way LLC.
func BenchmarkPollutionStream(b *testing.B) {
	g := mem.DefaultConfig()
	evicted := 0
	c := New("llc", g.LLCSize, g.LLCWays, func(Eviction) { evicted++ })
	const windowLines = 32 << 20 / mem.LineSize
	x := uint64(0x9E3779B97F4A7C15) // xorshift64 state: cheaper than math/rand per op
	next := func() mem.Addr {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return mem.NVMBase + mem.Addr(x%windowLines)*mem.LineSize
	}
	for i := 0; i < 2*g.LLCSize/mem.LineSize; i++ {
		c.Insert(next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := next(); !c.Touch(a) {
			c.Insert(a)
		}
	}
}
