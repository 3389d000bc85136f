// Package dramcache models the DRAM cache that the hardware-logging
// substrate [28] places between the LLC and NVM. LLC-evicted
// transactional NVM lines ("early-evicted blocks") land here instead of
// stalling on slow NVM, so reads of them hit at DRAM latency, and abort
// invalidation happens here via the invalidate bit (Section IV-C "NVM").
//
// The structure is a presence/metadata model: data bytes live in the
// mem.Store live image, and the *durable* in-place NVM update is driven
// by the machine's commit-image bookkeeping (committed line images are
// persisted before redo-log reclamation), never by this cache. That
// keeps eager in-place writes by later transactions from leaking
// uncommitted bytes to durable NVM through a drain.
package dramcache

import (
	"cmp"
	"slices"

	"uhtm/internal/cache"
	"uhtm/internal/mem"
	"uhtm/internal/trace"
)

// Cache is the DRAM cache. Per-line metadata (owning transaction and
// commit state) lives in arrays parallel to the tag cache's ways, and
// the per-transaction index is an append-only slice of the ways the
// transaction filled, validated lazily against the current way owner —
// a stale entry (line evicted, or the way refilled for a newer owner)
// is simply skipped when the list is consumed. Every way a transaction
// owns was filled by it, so the list covers them all without a tag
// search per line.
type Cache struct {
	tags      *cache.Cache
	txOf      []uint64 // owning transaction per way; meaningful while the way is valid
	committed []bool
	byTx      map[uint64][]int
	freeLists [][]int // recycled byTx slices
	scratch   []int   // DrainAll victim collection

	// Drains counts committed lines displaced (their lazy in-place
	// update is due); Drops counts uncommitted lines discarded (the redo
	// log is their durability backstop).
	Drains uint64
	Drops  uint64

	// tracer, when set, receives fill/drain/drop events; traceNow
	// supplies the engine world's virtual time.
	tracer   *trace.Recorder
	traceNow func() int64
}

// New builds a DRAM cache of the given geometry.
func New(size, ways int) *Cache {
	c := &Cache{byTx: make(map[uint64][]int)}
	c.tags = cache.New("dram$", size, ways, c.onEvict)
	n := c.tags.Sets() * c.tags.Ways()
	c.txOf = make([]uint64, n)
	c.committed = make([]bool, n)
	return c
}

// SetTracer installs (or, with nil, removes) the event recorder. now
// supplies virtual timestamps. While tracing, map-order-sensitive bulk
// operations iterate in sorted address order so event sequences are
// deterministic (the cache state itself is order-independent).
func (c *Cache) SetTracer(r *trace.Recorder, now func() int64) {
	c.tracer, c.traceNow = r, now
}

func (c *Cache) emit(k trace.Kind, tx uint64, la mem.Addr) {
	if c.tracer != nil {
		c.tracer.Emit(c.traceNow(), -1, k, tx, uint64(la), 0, 0)
	}
}

func (c *Cache) onEvict(e cache.Eviction) {
	// The victim way is still findable during the callback.
	i := c.tags.FindWay(e.Addr)
	if i < 0 {
		return
	}
	if c.committed[i] {
		c.Drains++
		c.emit(trace.EvDCDrain, c.txOf[i], e.Addr)
	} else {
		c.Drops++
		c.emit(trace.EvDCDrop, c.txOf[i], e.Addr)
	}
}

func (c *Cache) index(tx uint64, way int) {
	if tx == 0 {
		return
	}
	s, ok := c.byTx[tx]
	if !ok && len(c.freeLists) > 0 {
		s = c.freeLists[len(c.freeLists)-1]
		c.freeLists = c.freeLists[:len(c.freeLists)-1]
	}
	c.byTx[tx] = append(s, way)
}

// owned returns the line held by way i and whether it is valid and
// owned by tx.
func (c *Cache) owned(i int, tx uint64) (mem.Addr, bool) {
	la, ok := c.tags.WayLine(i)
	return la, ok && c.txOf[i] == tx
}

// sortByLine orders ways by the line they hold, so traced bulk
// operations emit events in address order.
func (c *Cache) sortByLine(ways []int) {
	slices.SortFunc(ways, func(i, j int) int {
		a, _ := c.tags.WayLine(i)
		b, _ := c.tags.WayLine(j)
		return cmp.Compare(a, b)
	})
}

// release returns tx's way list to the free pool. A transaction's list
// is consumed exactly once (commit or abort), so it can be recycled
// immediately afterwards.
func (c *Cache) release(tx uint64) {
	if s, ok := c.byTx[tx]; ok {
		delete(c.byTx, tx)
		c.freeLists = append(c.freeLists, s[:0])
	}
}

// Insert records the line containing a as buffered, owned by transaction
// tx (0 for non-transactional data, which is immediately committed).
func (c *Cache) Insert(a mem.Addr, tx uint64) {
	la := mem.LineOf(a)
	c.emit(trace.EvDCFill, tx, la)
	i := c.tags.Insert(la) // refresh on re-insert, may evict a victim otherwise
	// Re-inserted lines (the line bounced LLC→DRAM$ again) adopt the
	// newest owner; the old owner's index entry goes stale and is
	// skipped on consumption.
	c.txOf[i] = tx
	c.committed[i] = tx == 0
	c.index(tx, i)
}

// Lookup reports whether a's line is buffered, refreshing LRU.
func (c *Cache) Lookup(a mem.Addr) bool { return c.tags.Lookup(a) }

// Contains reports presence without LRU effects.
func (c *Cache) Contains(a mem.Addr) bool { return c.tags.Contains(a) }

// CommitTx marks every buffered line of tx committed. It returns the
// number of lines marked.
func (c *Cache) CommitTx(tx uint64) int {
	n := 0
	for _, i := range c.byTx[tx] {
		if _, ok := c.owned(i, tx); ok && !c.committed[i] {
			c.committed[i] = true
			n++
		}
	}
	c.release(tx)
	return n
}

// InvalidateTx sets the invalidate bit on every buffered line of tx —
// the abort path — and drops them. It returns the number invalidated.
func (c *Cache) InvalidateTx(tx uint64) int {
	ways := c.byTx[tx]
	if c.tracer != nil {
		c.sortByLine(ways)
	}
	n := 0
	for _, i := range ways {
		if la, ok := c.owned(i, tx); ok {
			c.tags.Invalidate(la)
			c.emit(trace.EvDCDrop, tx, la)
			n++
		}
	}
	c.release(tx)
	return n
}

// DrainAll displaces every committed buffered line (their in-place
// updates are handled by the machine's commit-image bookkeeping).
// Uncommitted lines stay.
func (c *Cache) DrainAll() {
	vs := c.scratch[:0]
	for i, done := range c.committed {
		if !done {
			continue // most ways: skip decoding the tag
		}
		if _, ok := c.tags.WayLine(i); ok {
			vs = append(vs, i)
		}
	}
	if c.tracer != nil {
		c.sortByLine(vs)
	}
	for _, i := range vs {
		la, _ := c.tags.WayLine(i)
		c.Drains++
		c.emit(trace.EvDCDrain, c.txOf[i], la)
		c.tags.Invalidate(la)
	}
	c.scratch = vs[:0]
}

// Len returns the number of buffered lines.
func (c *Cache) Len() int { return c.tags.Len() }
