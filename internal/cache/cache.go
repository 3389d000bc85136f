// Package cache models set-associative write-back caches (the per-core
// L1s and the shared LLC of Table III, and the geometry of the DRAM
// cache). Caches here track *presence*: which lines are on chip, which
// are dirty, and LRU order. Data itself lives in the mem.Store live
// image (the machine uses eager, in-place version management — Section
// IV-B), and transactional read/write ownership lives in the coherence
// directory; the HTM layer consults the directory when this package
// reports an eviction.
package cache

import (
	"fmt"
	"math/bits"
	"unsafe"

	"uhtm/internal/mem"
)

// Eviction describes a victim line leaving the cache.
type Eviction struct {
	Addr  mem.Addr // line address
	Dirty bool
}

// EvictFunc is called for each line displaced by an Insert.
type EvictFunc func(Eviction)

// maxWays is the largest supported associativity: a set's LRU stack
// packs one 4-bit way number per way into a uint64, and a set's tags
// fill at most one 64-byte host cache line.
const maxWays = 16

// hostLine is the host CPU's cache-line size in bytes. The tag array
// starts on a hostLine boundary, so no set's ways straddle two host
// lines.
const hostLine = 64

// Tag words. A tag is the line's dense index (mem.LineIndex, computed
// without branches by mem.UncheckedLineIndex) shifted above two flag
// bits: bit 0 marks the way valid (tag 0 means invalid, which also
// disambiguates DRAM line 0) and bit 1 is the write-back dirty bit.
// Insert rejects an address outside both memory regions, whose index
// would alias another line's.
const (
	tagValid = 1
	tagDirty = 2
	tagFlags = tagValid | tagDirty
	tagShift = 2
)

// Every line index fits a tag word (the conversion overflows, a compile
// error, otherwise).
const _ = uint32(mem.LineCount<<tagShift - 1)

// tagOf returns the flagless tag of the line containing a.
func tagOf(a mem.Addr) uint32 { return uint32(mem.UncheckedLineIndex(a)) << tagShift }

// lineOf inverts tagOf, ignoring flag bits.
func lineOf(t uint32) mem.Addr { return mem.AddrOfLineIndex(uint64(t >> tagShift)) }

// LRU stack constants: nibble k of a stack holds the way that is k-th
// most recently used. Stacks are stored XORed with stackIdent (nibble k
// = k), so a zero word is the identity order and zeroed arrays are a
// valid empty cache. Nibbles at or above the associativity keep their
// identity values forever, which are never way numbers.
const (
	stackIdent = 0xFEDCBA9876543210
	nibbleOnes = 0x1111111111111111
)

// Cache is one level of the hierarchy. The ways of set s are the tag
// words tags[s*ways : (s+1)*ways] — one aligned host cache line for a
// 16-way set — and its packed LRU stack is stacks[s]. A lookup or fill
// therefore touches one host line of tags and one stack word, and
// Prefetch can start loading both ahead of use. A way's flat index
// (set*ways + way, as FindWay and WayLine number them) is its tag's
// position.
type Cache struct {
	name     string
	tags     []uint32
	stacks   []uint64
	numSets  int
	ways     int
	wayShift uint // log2(ways)
	onEvict  EvictFunc

	// gen counts tag mutations (fills, invalidations, resets). A miss
	// in Touch, Lookup or Insert remembers its set and first free way
	// under the current gen, and an Insert of the same line while gen
	// is unchanged reuses them instead of rescanning the set.
	gen      uint64
	missLine mem.Addr
	missBase int
	missFree int
	missGen  uint64

	// presence, when shared in (SharePresence), counts this cache's
	// resident lines alongside those of the other caches sharing it.
	presence *Presence

	// Hits and Misses count Lookup results, for statistics.
	Hits, Misses uint64

	// onLookup, when set, observes every Lookup outcome (the tracing
	// layer's hit/miss event source). It must not mutate the cache.
	onLookup func(addr mem.Addr, hit bool)
}

// New builds a cache of the given total size in bytes and associativity.
// size must be a multiple of ways*LineSize, ways a power of two no
// larger than maxWays and the resulting set count a power of two.
// onEvict may be nil.
func New(name string, size, ways int, onEvict EvictFunc) *Cache {
	if size <= 0 || ways <= 0 || ways > maxWays || ways&(ways-1) != 0 || size%(ways*mem.LineSize) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d", name, size, ways))
	}
	numSets := size / (ways * mem.LineSize)
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, numSets))
	}
	return &Cache{
		name:     name,
		tags:     alignedTags(numSets * ways),
		stacks:   make([]uint64, numSets),
		numSets:  numSets,
		ways:     ways,
		wayShift: uint(bits.TrailingZeros(uint(ways))),
		onEvict:  onEvict,
		gen:      1,
	}
}

// alignedTags returns n zeroed tag words starting on a hostLine
// boundary. The Go heap does not move objects, so the alignment holds
// for the slice's lifetime.
func alignedTags(n int) []uint32 {
	const per = hostLine / 4
	buf := make([]uint32, n+per-1)
	skip := (per - int(uintptr(unsafe.Pointer(&buf[0]))%hostLine)/4) % per
	return buf[skip : skip+n : skip+n]
}

// Name returns the cache's label.
func (c *Cache) Name() string { return c.name }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

// setOf returns the set index of line address la.
func (c *Cache) setOf(la mem.Addr) int {
	return int(la/mem.LineSize) & (c.numSets - 1)
}

// find returns the flat index of a's set's first way and the way
// holding a's line, or -1.
func (c *Cache) find(a mem.Addr) (base, way int) {
	tag := tagOf(a) | tagValid
	base = c.setOf(a) << c.wayShift
	for i, t := range c.tags[base : base+c.ways] {
		if t&^tagDirty == tag {
			return base, i
		}
	}
	return base, -1
}

// noteMiss records a miss of line la in the set at base, with the set's
// first free way, for an Insert of the same line that follows.
func (c *Cache) noteMiss(la mem.Addr, base int) {
	free := -1
	for i, t := range c.tags[base : base+c.ways] {
		if t == 0 {
			free = i
			break
		}
	}
	c.missLine, c.missBase, c.missFree, c.missGen = la, base, free, c.gen
}

// promote makes way the most recently used of the set whose ways start
// at base. The stack's low nibble is stored as is (stackIdent's is 0),
// so re-using the MRU way — the common hit — costs a load and compare.
func (c *Cache) promote(base, way int) {
	if c.stacks[base>>c.wayShift]&0xF != uint64(way) {
		c.moveToFront(base, way)
	}
}

// moveToFront moves way to the front (low nibble) of the LRU stack of
// the set whose ways start at base. It is kept out of line so that
// promote, and with it the MRU check, inlines into every hit path.
//
//go:noinline
func (c *Cache) moveToFront(base, way int) {
	p := &c.stacks[base>>c.wayShift]
	s := *p ^ stackIdent
	// Branch-free search for the nibble holding way: XOR turns it into
	// the stack's only zero nibble, and the borrow trick flags the
	// lowest zero nibble exactly, in its top bit.
	d := s ^ uint64(way)*nibbleOnes
	z := (d - nibbleOnes) &^ d & (nibbleOnes << 3)
	ahead := (z&-z)>>3 - 1 // the nibbles before way's
	*p = (s&^(ahead<<4|0xF) | (s&ahead)<<4 | uint64(way)) ^ stackIdent
}

// lru returns the least recently used way of the set whose ways start
// at base.
func (c *Cache) lru(base int) int {
	return int((c.stacks[base>>c.wayShift]^stackIdent)>>(4*uint(c.ways-1))) & 0xF
}

// FindWay returns the flat way index (set*ways + way) holding a's line,
// or -1. It lets callers keep per-line metadata in arrays parallel to
// the cache's ways instead of in side maps. During an onEvict callback
// the victim is still findable — it is overwritten only after the
// callback returns.
func (c *Cache) FindWay(a mem.Addr) int {
	if base, w := c.find(a); w >= 0 {
		return base + w
	}
	return -1
}

// WayLine reports the line address held by flat way index i and whether
// that way is valid.
func (c *Cache) WayLine(i int) (mem.Addr, bool) {
	t := c.tags[i]
	return lineOf(t), t != 0
}

// Prefetch asks the host CPU to start loading the tags and LRU stack of
// the set of a's line, so that a Touch, Lookup or Insert of that line a
// few operations later does not wait on host memory. It changes no
// cache state: a pipelined stream (core.Ctx.PolluteLLC) prefetches the
// set of the line it will reach next while it works on the current one.
func (c *Cache) Prefetch(a mem.Addr) {
	s := c.setOf(a)
	prefetch(&c.tags[s<<c.wayShift], &c.stacks[s])
}

// SetLookupHook installs (or, with nil, removes) an observer for Lookup
// outcomes.
func (c *Cache) SetLookupHook(f func(addr mem.Addr, hit bool)) { c.onLookup = f }

// Lookup reports whether the line containing a is present, refreshing
// its LRU position on a hit and updating hit/miss counters.
func (c *Cache) Lookup(a mem.Addr) bool {
	base, w := c.find(a)
	if w >= 0 {
		c.promote(base, w)
		c.Hits++
		if c.onLookup != nil {
			c.onLookup(mem.LineOf(a), true)
		}
		return true
	}
	c.noteMiss(mem.LineOf(a), base)
	c.Misses++
	if c.onLookup != nil {
		c.onLookup(mem.LineOf(a), false)
	}
	return false
}

// Contains reports presence without touching LRU state or counters.
func (c *Cache) Contains(a mem.Addr) bool {
	_, w := c.find(a)
	return w >= 0
}

// Touch refreshes the LRU position of a present line — exactly what
// Insert does on a hit — and reports whether the line was present. On a
// miss it changes nothing, and an Insert of the same line that follows
// with no fill or invalidation in between reuses the miss's set scan.
// Both read only the set's host line of tags and its stack word, which
// a Prefetch of the line issued a few operations earlier has usually
// brought in. The LLC pollution stream uses the three to resolve
// presence, act before filling, then fill, in one way scan per miss.
func (c *Cache) Touch(a mem.Addr) bool {
	base, w := c.find(a)
	if w < 0 {
		c.noteMiss(mem.LineOf(a), base)
		return false
	}
	c.promote(base, w)
	return true
}

// Insert brings the line containing a into the cache (most recently
// used), evicting the LRU way of its set if full. Inserting a present
// line just refreshes LRU. The victim, if any, is reported to onEvict.
// The free way is the lowest-index invalid way of the set. Insert
// returns the flat way index now holding the line (see FindWay). It
// panics on an address outside the DRAM and NVM regions, whose tag
// would alias another line's.
func (c *Cache) Insert(a mem.Addr) int {
	la := mem.LineOf(a)
	base, w := c.missBase, c.missFree
	if c.missGen != c.gen || c.missLine != la {
		if base, w = c.find(la); w >= 0 {
			c.promote(base, w)
			return base + w
		}
		c.noteMiss(la, base)
		w = c.missFree
	}
	idx := mem.UncheckedLineIndex(la)
	if idx >= mem.LineCount || mem.AddrOfLineIndex(idx) != la {
		panic(fmt.Sprintf("cache %s: address %#x outside DRAM and NVM regions", c.name, uint64(a)))
	}
	if w < 0 {
		w = c.lru(base)
		victim := c.tags[base+w]
		if c.onEvict != nil {
			c.onEvict(Eviction{Addr: lineOf(victim), Dirty: victim&tagDirty != 0})
		}
		if c.presence != nil {
			c.presence.dec(lineOf(victim))
		}
	}
	if c.presence != nil {
		c.presence.inc(la)
	}
	c.tags[base+w] = uint32(idx)<<tagShift | tagValid
	c.promote(base, w)
	c.gen++
	return base + w
}

// MarkDirty sets the dirty bit of a present line; it reports whether the
// line was present.
func (c *Cache) MarkDirty(a mem.Addr) bool {
	if base, w := c.find(a); w >= 0 {
		c.tags[base+w] |= tagDirty
		return true
	}
	return false
}

// Invalidate drops the line containing a without invoking onEvict (the
// caller decides what to do with its contents). It reports whether the
// line was present and whether it was dirty.
func (c *Cache) Invalidate(a mem.Addr) (present, dirty bool) {
	if base, w := c.find(a); w >= 0 {
		present, dirty = true, c.tags[base+w]&tagDirty != 0
		c.tags[base+w] = 0
		c.gen++
		if c.presence != nil {
			c.presence.dec(mem.LineOf(a))
		}
	}
	return
}

// ForEach visits every valid line (set order, way order). The callback
// must not mutate the cache.
func (c *Cache) ForEach(fn func(addr mem.Addr, dirty bool)) {
	for _, t := range c.tags {
		if t != 0 {
			fn(lineOf(t), t&tagDirty != 0)
		}
	}
}

// Len returns the number of valid lines.
func (c *Cache) Len() int {
	n := 0
	c.ForEach(func(mem.Addr, bool) { n++ })
	return n
}

// Reset empties the cache and clears counters. A shared presence filter
// loses exactly this cache's lines; the other caches' counts stay.
func (c *Cache) Reset() {
	if c.presence != nil {
		c.ForEach(func(a mem.Addr, _ bool) { c.presence.dec(a) })
	}
	clear(c.tags)
	clear(c.stacks)
	c.gen++
	c.Hits, c.Misses = 0, 0
}

// Presence is a counting filter over the line addresses resident in a
// group of caches (the machine's L1s): a zero counter proves that no
// cache of the group holds the line, so a snoop broadcast to the group
// can be skipped. It has no false negatives; hash collisions only cost
// a redundant broadcast.
type Presence struct {
	counts []uint16
}

// NewPresence returns a filter for a group holding at most lines lines
// in total, sized at 8× that (rounded up to a power of two).
func NewPresence(lines int) *Presence {
	n := 1
	for n < 8*lines {
		n <<= 1
	}
	return &Presence{counts: make([]uint16, n)}
}

// bucket maps a line address to its counter.
func (p *Presence) bucket(la mem.Addr) int {
	return int(uint64(la)/mem.LineSize) & (len(p.counts) - 1)
}

func (p *Presence) inc(la mem.Addr) { p.counts[p.bucket(la)]++ }
func (p *Presence) dec(la mem.Addr) { p.counts[p.bucket(la)]-- }

// MaybeContains reports whether the line containing a could be resident
// in any cache of the group: false is definitive, true means "snoop to
// know".
func (p *Presence) MaybeContains(a mem.Addr) bool {
	return p.counts[p.bucket(a)] != 0
}

// SharePresence makes c count its resident lines in p. It must be
// called on an empty cache — typically right after New — because the
// counters track fills from then on.
func (c *Cache) SharePresence(p *Presence) {
	if c.Len() != 0 {
		panic(fmt.Sprintf("cache %s: SharePresence on a non-empty cache", c.name))
	}
	c.presence = p
}
