package server

import (
	"encoding/binary"
	"sort"

	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/sim"
)

// This file executes the requests that need more than one shard: a
// MULTI…EXEC whose keys straddle home shards commits through the
// cluster's 2PC coordinator (runCross), and a SCAN on a sharded server
// broadcasts to every shard and merges (runScanAll).
//
// The cross path cannot use core.Ctx.Run — an HTM transaction is bound
// to one machine — so each participant executes its share of the ops
// against a captureMem: a txds.Mem over the shard's store that buffers
// every write as a full line image. The buffered images become the 2PC
// prepare records and the apply write set, which is exactly the
// contract shard.SubmitCross needs to make the batch crash-atomic
// across machines. Only NVM table state goes through the capture; DRAM
// index maintenance runs in the apply callback, after the decision, so
// redo records never address volatile memory (the committed-prefix
// oracle rejects that).

// captureMem is a txds.Mem over a store that serves reads through its
// pending write set and buffers writes as full line images, in
// first-write order. It mirrors mem.Store's accessor semantics exactly
// (little-endian U64 within one line image, 8-byte alignment panic,
// byte reads and writes that span lines) so data-structure code behaves
// identically under it.
type captureMem struct {
	st    *mem.Store
	imgs  map[mem.Addr]*mem.Line
	order []mem.Addr
}

// newCaptureMem wraps one shard's store.
func newCaptureMem(st *mem.Store) *captureMem {
	return &captureMem{st: st, imgs: make(map[mem.Addr]*mem.Line)}
}

// line returns the current image of the line containing a: the pending
// write if one exists, the live store image otherwise.
func (c *captureMem) line(la mem.Addr) mem.Line {
	if img, ok := c.imgs[la]; ok {
		return *img
	}
	return c.st.PeekLine(la)
}

// dirty returns the writable pending image for the line containing a,
// creating it from the live image on first write.
func (c *captureMem) dirty(la mem.Addr) *mem.Line {
	if img, ok := c.imgs[la]; ok {
		return img
	}
	ln := c.st.PeekLine(la)
	img := &ln
	c.imgs[la] = img
	c.order = append(c.order, la)
	return img
}

// ReadU64 reads a little-endian u64 (8-byte aligned, like mem.Store).
func (c *captureMem) ReadU64(a mem.Addr) uint64 {
	if a%8 != 0 {
		panic("server: unaligned ReadU64 through captureMem")
	}
	ln := c.line(mem.LineOf(a))
	off := mem.LineOffset(a)
	return binary.LittleEndian.Uint64(ln[off : off+8])
}

// WriteU64 writes a little-endian u64 (8-byte aligned, like mem.Store).
func (c *captureMem) WriteU64(a mem.Addr, v uint64) {
	if a%8 != 0 {
		panic("server: unaligned WriteU64 through captureMem")
	}
	off := mem.LineOffset(a)
	binary.LittleEndian.PutUint64(c.dirty(mem.LineOf(a))[off:off+8], v)
}

// ReadBytes reads n bytes starting at a, spanning lines.
func (c *captureMem) ReadBytes(a mem.Addr, n int) []byte {
	out := make([]byte, n)
	for dst := out; len(dst) > 0; {
		ln := c.line(mem.LineOf(a))
		k := copy(dst, ln[mem.LineOffset(a):])
		dst = dst[k:]
		a += mem.Addr(k)
	}
	return out
}

// WriteBytes writes b starting at a, spanning lines.
func (c *captureMem) WriteBytes(a mem.Addr, b []byte) {
	for len(b) > 0 {
		n := copy(c.dirty(mem.LineOf(a))[mem.LineOffset(a):], b)
		a += mem.Addr(n)
		b = b[n:]
	}
}

// writes returns the buffered write set as line images in first-write
// order — the shape SubmitCross prepares and applies.
func (c *captureMem) writes() []shard.LineWrite {
	out := make([]shard.LineWrite, 0, len(c.order))
	for _, la := range c.order {
		out = append(out, shard.LineWrite{Addr: la, Img: *c.imgs[la]})
	}
	return out
}

// runCross commits one multi-shard op batch through the 2PC
// coordinator: each participant executes its ops against a captureMem
// (reads see the batch's earlier writes), the buffered images prepare
// and apply under the protocol, and the DRAM scan indexes absorb the
// new keys in the apply callback. A halt before the commit decision
// fails the request (the transaction vanished everywhere); a halt after
// it still acknowledges — recovery completes the apply on every
// participant, so the reply stays durable.
func (s *Server) runCross(req *request) {
	n := len(s.shards)
	byShard := make([][]int, n)
	for i, op := range req.ops {
		k := shard.ShardOf(op.Key, n)
		byShard[k] = append(byShard[k], i)
	}
	var parts []int
	for k := 0; k < n; k++ {
		if len(byShard[k]) > 0 {
			parts = append(parts, k)
		}
	}
	req.results = make([]OpResult, len(req.ops))
	puts := make([][]uint64, n)
	s.batches++
	s.requests++

	exec := func(k int, th *sim.Thread) []shard.LineWrite {
		st := s.stores[k]
		cm := newCaptureMem(st.m.Store())
		for _, i := range byShard[k] {
			op := req.ops[i]
			switch op.Kind {
			case OpGet:
				v, ok := st.part.Table.Get(cm, op.Key)
				req.results[i] = OpResult{Val: v, Found: ok}
			case OpPut:
				st.part.Table.Put(cm, op.Key, op.Val)
				puts[k] = append(puts[k], op.Key)
				req.results[i] = OpResult{Written: true}
			case OpDel:
				req.results[i] = OpResult{Found: st.part.Table.Delete(cm, op.Key)}
			default:
				panic("server: scan routed to the cross-shard path")
			}
		}
		return cm.writes()
	}
	applied := func(k int, th *sim.Thread) {
		st := s.stores[k]
		mst := st.m.Store()
		for _, key := range puts[k] {
			st.part.Index.Put(mst, key, nil)
		}
	}
	decided, halted := s.cluster.SubmitCross(parts, exec, applied)
	if halted {
		s.recoverAfterHalt()
		if !decided {
			req.err = errLostPower
		} else {
			req.applied = true // recovery completed the decided commit
		}
	} else {
		req.applied = true
	}
	close(req.done)
}

// runScanAll serves one SCAN on a sharded server: every shard walks its
// own index as one local read transaction (a parallel wave), and the
// per-shard slices — disjoint by key hashing — merge into one ascending
// result capped at the requested count.
func (s *Server) runScanAll(req *request) {
	op := req.ops[0]
	per := make([]OpResult, len(s.shards))
	s.batches++
	s.requests++
	halted := s.cluster.Fanout(s.shards, func(sh *shard.Shard) bool {
		st := s.stores[sh.ID()]
		return sh.Do("serve", func(th *sim.Thread) {
			c := sh.Machine().NewCtx(th, 0)
			per[sh.ID()] = st.Apply(c, []Op{op})[0]
		})
	})
	if halted {
		s.recoverAfterHalt()
		req.err = errLostPower
		close(req.done)
		return
	}
	req.results = []OpResult{mergeScans(per, op.N)}
	req.applied = true
	close(req.done)
}

// mergeScans merges per-shard scan slices (each ascending, keys
// disjoint) into one ascending result of at most n keys.
func mergeScans(per []OpResult, n int) OpResult {
	var out OpResult
	for _, r := range per {
		out.Keys = append(out.Keys, r.Keys...)
		out.Vals = append(out.Vals, r.Vals...)
	}
	sort.Sort(&scanPairs{&out})
	if len(out.Keys) > n {
		out.Keys = out.Keys[:n]
		out.Vals = out.Vals[:n]
	}
	return out
}

// scanPairs sorts a scan result's parallel key/value slices by key.
type scanPairs struct{ r *OpResult }

// Len implements sort.Interface.
func (p *scanPairs) Len() int { return len(p.r.Keys) }

// Less implements sort.Interface (ascending by key).
func (p *scanPairs) Less(i, j int) bool { return p.r.Keys[i] < p.r.Keys[j] }

// Swap implements sort.Interface.
func (p *scanPairs) Swap(i, j int) {
	p.r.Keys[i], p.r.Keys[j] = p.r.Keys[j], p.r.Keys[i]
	p.r.Vals[i], p.r.Vals[j] = p.r.Vals[j], p.r.Vals[i]
}
