// Package kv implements the three key-value store workloads of the
// paper's evaluation (Table IV):
//
//   - HybridIndex — HiKV-style [63]: a DRAM B-Tree index for scans plus
//     an NVM HashMap for point operations, updated atomically in one
//     durable transaction. The canonical "DRAM and NVM data in one
//     transaction" workload.
//   - Dual — cross-referencing-log style [23]: identical HashMaps in
//     DRAM (foreground) and NVM (background) linked by an
//     out-of-transaction log ring.
//   - Echo — WHISPER's Echo [5]: a master thread owning a persistent
//     hash table, client threads batching updates through rings, plus
//     the long-running read-only get batches of Section VI-B.
package kv

import (
	"slices"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/txds"
)

// KV is one key-value pair in flight.
type KV struct {
	Key uint64
	Val []byte
}

// OpRing is a fixed-slot ring buffer in simulated DRAM used for
// out-of-transaction communication between threads (the
// cross-referencing log of Dual, the client→master queues of Echo).
// Layout: [head u64][tail u64][slots: [key u64][len u64][bytes maxVal]].
type OpRing struct {
	base    mem.Addr
	slots   int
	slotCap int
}

const ringHdr = 16

// NewOpRing allocates a ring with the given slot count and max value
// size.
func NewOpRing(m txds.Mem, al *mem.Allocator, slots, maxVal int) *OpRing {
	r := &OpRing{slotCap: maxVal, slots: slots}
	r.base = al.Alloc(ringHdr+slots*(16+maxVal), mem.LineSize)
	m.WriteU64(r.base, 0)
	m.WriteU64(r.base+8, 0)
	return r
}

func (r *OpRing) slotAddr(i uint64) mem.Addr {
	return r.base + ringHdr + mem.Addr(int(i%uint64(r.slots))*(16+r.slotCap))
}

// TryPush enqueues one pair; it reports false when the ring is full.
func (r *OpRing) TryPush(m txds.Mem, p KV) bool {
	head := m.ReadU64(r.base)
	tail := m.ReadU64(r.base + 8)
	if head-tail >= uint64(r.slots) {
		return false
	}
	if len(p.Val) > r.slotCap {
		panic("kv: value exceeds ring slot capacity")
	}
	s := r.slotAddr(head)
	m.WriteU64(s, p.Key)
	m.WriteU64(s+8, uint64(len(p.Val)))
	if len(p.Val) > 0 {
		m.WriteBytes(s+16, p.Val)
	}
	m.WriteU64(r.base, head+1)
	return true
}

// TryPop dequeues one pair; ok is false when the ring is empty.
func (r *OpRing) TryPop(m txds.Mem) (p KV, ok bool) {
	head := m.ReadU64(r.base)
	tail := m.ReadU64(r.base + 8)
	if head == tail {
		return KV{}, false
	}
	s := r.slotAddr(tail)
	p.Key = m.ReadU64(s)
	n := m.ReadU64(s + 8)
	if n > 0 {
		p.Val = m.ReadBytes(s+16, int(n))
	}
	m.WriteU64(r.base+8, tail+1)
	return p, true
}

// Len returns the number of queued pairs.
func (r *OpRing) Len(m txds.Mem) int {
	return int(m.ReadU64(r.base) - m.ReadU64(r.base+8))
}

// publish pushes every pair of batch onto r outside any transaction and
// returns how many did not fit.
func publish(c *core.Ctx, r *OpRing, batch []KV) (dropped int) {
	nt := c.NT()
	for _, p := range batch {
		if !r.TryPush(nt, p) {
			dropped++
		}
	}
	return dropped
}

// drain pops up to max pairs from r outside any transaction and puts
// them into table in one durable transaction; it returns the number
// applied.
func drain(c *core.Ctx, r *OpRing, table *txds.HashMap, max int) int {
	nt := c.NT()
	var pending []KV
	for len(pending) < max {
		p, ok := r.TryPop(nt)
		if !ok {
			break
		}
		pending = append(pending, p)
	}
	if len(pending) == 0 {
		return 0
	}
	c.Run(func(tx *core.Tx) {
		for _, p := range pending {
			table.Put(tx, p.Key, p.Val)
		}
	})
	return len(pending)
}

// HybridPart is one partition of the HiKV-style store: a DRAM B-Tree
// index for scans and an NVM HashMap for point operations.
type HybridPart struct {
	Index *txds.BTree   // DRAM
	Table *txds.HashMap // NVM
}

// NewHybridPart builds one empty partition: the index on dal, the
// table (buckets buckets) on nal.
func NewHybridPart(setup txds.Mem, dal, nal *mem.Allocator, buckets int) HybridPart {
	return HybridPart{
		Index: txds.NewBTree(setup, dal),
		Table: txds.NewHashMap(setup, nal, buckets),
	}
}

// Put inserts or updates k in the NVM table and records its presence
// in the DRAM index for scans.
func (p HybridPart) Put(m txds.Mem, k uint64, v []byte) {
	p.Table.Put(m, k, v)
	p.Index.Put(m, k, nil)
}

// RebuildIndex replaces the partition's DRAM index with a fresh one on
// dal holding every key of the NVM table — the recovery bootstrap once
// a power failure has erased DRAM. Recovery-relevant data lives in
// NVM; the volatile index is reconstructable from it. The table's keys
// are sorted and bulk-loaded (txds.LoadBTree): one pass that writes
// each node once and leaves no node full, so a served PUT of a
// recovered key updates the index without splitting it.
func (p *HybridPart) RebuildIndex(setup txds.Mem, dal *mem.Allocator) {
	keys := p.Table.Keys(setup)
	slices.Sort(keys)
	p.Index = txds.LoadBTree(setup, dal, keys)
}

// Scan walks up to n keys in ascending order from `from` via the DRAM
// index, reading each value from the NVM table. Keys the index still
// holds but the table no longer does (deleted since) are skipped.
func (p HybridPart) Scan(m txds.Mem, from uint64, n int) (keys []uint64, vals [][]byte) {
	p.Index.Scan(m, from, func(k uint64, _ mem.Addr) bool {
		if v, ok := p.Table.Get(m, k); ok {
			keys = append(keys, k)
			vals = append(vals, v)
		}
		return len(keys) < n
	})
	return keys, vals
}

// HybridIndex is the HiKV-style store. Following HiKV's design, the
// store is partitioned (one partition per serving thread), so true
// conflicts between serving threads are rare and the interesting HTM
// effects — overflows and signature false positives — dominate, as in
// the paper's Figure 9a discussion.
type HybridIndex struct {
	Parts []HybridPart
}

// NewHybridIndex builds the store with parts partitions.
func NewHybridIndex(setup txds.Mem, dal, nal *mem.Allocator, buckets, parts int) *HybridIndex {
	h := &HybridIndex{}
	for i := 0; i < parts; i++ {
		h.Parts = append(h.Parts, NewHybridPart(setup, dal, nal, buckets))
	}
	return h
}

// PutBatch inserts/updates all pairs into partition part in one
// transaction, touching both the DRAM index and the NVM table — the
// transaction that must abort or commit them consistently (Fig. 1 of
// the paper).
func (h *HybridIndex) PutBatch(c *core.Ctx, part int, batch []KV) {
	p := h.Parts[part]
	c.Run(func(tx *core.Tx) {
		for _, kvp := range batch {
			p.Put(tx, kvp.Key, kvp.Val)
		}
	})
}

// Scan walks up to n keys starting at from via partition part's DRAM
// index, fetching values from the NVM table, in one read-only
// transaction.
func (h *HybridIndex) Scan(c *core.Ctx, part int, from uint64, n int) (keys []uint64) {
	c.Run(func(tx *core.Tx) {
		keys, _ = h.Parts[part].Scan(tx, from, n)
	})
	return keys
}

// DualPart is one shard of the cross-referencing-log store: a DRAM
// foreground map, an NVM background map, and the log ring that links
// them.
type DualPart struct {
	Front *txds.HashMap // DRAM
	Back  *txds.HashMap // NVM
	XLog  *OpRing       // DRAM, non-transactional
}

// Dual is the cross-referencing-log store [23], sharded so each
// foreground thread serves its own partition and each background thread
// drains the matching log — the out-of-transaction communication that
// gives Dual its low aggregated transactional footprint (Section VI-C).
type Dual struct {
	Parts []DualPart
}

// NewDual builds the store with parts shards; logSlots and maxVal size
// each cross-referencing log.
func NewDual(setup txds.Mem, dal, nal *mem.Allocator, buckets, parts, logSlots, maxVal int) *Dual {
	d := &Dual{}
	for i := 0; i < parts; i++ {
		d.Parts = append(d.Parts, DualPart{
			Front: txds.NewHashMap(setup, dal, buckets),
			Back:  txds.NewHashMap(setup, nal, buckets),
			XLog:  NewOpRing(setup, dal, logSlots, maxVal),
		})
	}
	return d
}

// FrontPut applies a batch to shard part's foreground DRAM map in one
// transaction and then publishes the pairs on the cross-referencing log
// outside any transaction. It reports how many log entries could not be
// queued (backend too slow).
func (d *Dual) FrontPut(c *core.Ctx, part int, batch []KV) (dropped int) {
	sh := d.Parts[part]
	c.Run(func(tx *core.Tx) {
		for _, p := range batch {
			sh.Front.Put(tx, p.Key, p.Val)
		}
	})
	return publish(c, sh.XLog, batch)
}

// BackendStep drains up to max log entries from shard part and applies
// them to its NVM background map in one durable transaction. It returns
// the number applied.
func (d *Dual) BackendStep(c *core.Ctx, part, max int) int {
	return drain(c, d.Parts[part].XLog, d.Parts[part].Back, max)
}

// Echo is the WHISPER Echo store: clients enqueue batched updates on
// per-client rings; the master applies one client batch per durable
// transaction against the persistent NVM hash table.
type Echo struct {
	Table *txds.HashMap // NVM
	Rings []*OpRing     // one per client, DRAM
}

// NewEcho builds the store for nClients clients.
func NewEcho(setup txds.Mem, dal, nal *mem.Allocator, buckets, nClients, ringSlots, maxVal int) *Echo {
	e := &Echo{Table: txds.NewHashMap(setup, nal, buckets)}
	for i := 0; i < nClients; i++ {
		e.Rings = append(e.Rings, NewOpRing(setup, dal, ringSlots, maxVal))
	}
	return e
}

// MasterStep drains up to max updates from one client ring and applies
// them in a single durable transaction; it returns the number applied.
func (e *Echo) MasterStep(c *core.Ctx, id, max int) int {
	return drain(c, e.Rings[id], e.Table, max)
}

// ReadOnlyBatch performs one long-running read-only transaction getting
// every listed key — the Section VI-B workload whose footprint (8–32 MB)
// dwarfs any on-chip cache.
func (e *Echo) ReadOnlyBatch(c *core.Ctx, keys []uint64) (found int) {
	c.Run(func(tx *core.Tx) {
		found = 0
		for _, k := range keys {
			if _, ok := e.Table.Get(tx, k); ok {
				found++
			}
		}
	})
	return found
}
