package server

import (
	"uhtm/internal/mem"
	"uhtm/internal/shard"
	"uhtm/internal/sim"
)

// This file executes the requests whose ops touch more than one shard:
// a MULTI…EXEC whose keys straddle home shards, and any SCAN on a
// sharded server (a SCAN touches every shard). Each commits through the
// cluster's 2PC coordinator (runCross).
//
// The cross path cannot use core.Ctx.Run — an HTM transaction is bound
// to one machine — so each participant executes its share of the ops
// (Store.do, the op switch Apply runs) directly on the shard's live
// store, as UHTM updates data in place. That is safe because the
// engine loop runs a cross request alone, and it ends in one of two
// ways: the commit is decided, and its apply writes exactly the images
// the execution left in the live image; or a halt strikes, and the
// recovery crashes every shard, discarding the live image. The NVM
// lines the execution wrote become the 2PC prepare records and the
// apply write set. DRAM index writes land in the live image only: DRAM
// does not survive a power failure, so no redo record addresses it
// (the committed-prefix oracle rejects that).

// notingStore is a shard's live store that notes, in first-write
// order, every NVM line a write touches.
type notingStore struct {
	*mem.Store
	seen  map[mem.Addr]bool
	lines []mem.Addr
}

// WriteU64 writes the word in place and notes its line.
func (n *notingStore) WriteU64(a mem.Addr, v uint64) {
	n.Store.WriteU64(a, v)
	n.note(a, 8)
}

// WriteBytes writes b in place and notes every line it spans.
func (n *notingStore) WriteBytes(a mem.Addr, b []byte) {
	n.Store.WriteBytes(a, b)
	n.note(a, len(b))
}

// note records the NVM lines of [a, a+size) not seen before.
func (n *notingStore) note(a mem.Addr, size int) {
	for la := mem.LineOf(a); la < a+mem.Addr(size); la += mem.LineSize {
		if mem.KindOf(la) == mem.NVM && !n.seen[la] {
			n.seen[la] = true
			n.lines = append(n.lines, la)
		}
	}
}

// writes returns the noted lines' current images in first-write order —
// the shape SubmitCross prepares and applies.
func (n *notingStore) writes() []shard.LineWrite {
	out := make([]shard.LineWrite, len(n.lines))
	for i, la := range n.lines {
		out[i] = shard.LineWrite{Addr: la, Img: n.PeekLine(la)}
	}
	return out
}

// runCross commits one multi-shard op batch through the 2PC
// coordinator: each participant executes its ops in place on its live
// store, in request order (reads see the batch's earlier writes, and
// PUTs update the scan index at once), and the NVM lines it wrote
// prepare and apply under the protocol. A SCAN runs on every shard,
// each part into its own slot, and the parts merge at the end. A halt before the commit decision fails the request (the
// transaction vanished everywhere); a halt after it still acknowledges
// — recovery completes the apply on every participant, so the reply
// stays durable.
func (s *Server) runCross(req *request) {
	n := len(s.shards)
	byShard := make([][]int, n)
	var scans []OpResult // SCAN op i's part from shard k at i*n+k
	for i, op := range req.ops {
		if op.Kind != OpScan {
			k := shard.ShardOf(op.Key, n)
			byShard[k] = append(byShard[k], i)
			continue
		}
		if scans == nil {
			scans = make([]OpResult, len(req.ops)*n)
		}
		for k := range byShard {
			byShard[k] = append(byShard[k], i)
		}
	}
	var parts []int
	for k := 0; k < n; k++ {
		if len(byShard[k]) > 0 {
			parts = append(parts, k)
		}
	}
	req.results = make([]OpResult, len(req.ops))
	s.batches++
	s.requests++

	exec := func(k int, th *sim.Thread) []shard.LineWrite {
		st := s.stores[k]
		ns := &notingStore{Store: st.m.Store(), seen: make(map[mem.Addr]bool)}
		for _, i := range byShard[k] {
			if op := req.ops[i]; op.Kind == OpScan {
				scans[i*n+k] = st.do(ns, op)
			} else {
				req.results[i] = st.do(ns, op)
			}
		}
		return ns.writes()
	}
	decided, halted := s.cluster.SubmitCross(parts, exec, nil)
	if halted {
		s.recoverAfterHalt() // completes a decided commit everywhere
		if !decided {
			req.err = errLostPower
		}
	}
	for i, op := range req.ops {
		if op.Kind == OpScan {
			req.results[i] = mergeScans(scans[i*n:(i+1)*n], op.N)
		}
	}
	close(req.done)
}

// mergeScans merges per-shard scan slices (each ascending, keys
// disjoint) into one ascending result of at most n keys.
func mergeScans(per []OpResult, n int) OpResult {
	var out OpResult
	next := make([]int, len(per)) // per shard: its first unmerged key
	for len(out.Keys) < n {
		low := -1
		for k, r := range per {
			if next[k] < len(r.Keys) && (low < 0 || r.Keys[next[k]] < per[low].Keys[next[low]]) {
				low = k
			}
		}
		if low < 0 {
			break
		}
		out.Keys = append(out.Keys, per[low].Keys[next[low]])
		out.Vals = append(out.Vals, per[low].Vals[next[low]])
		next[low]++
	}
	return out
}
