package shard

import (
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/wal"
)

// This file is the serving-facing surface of the cluster: where the
// canned workload driver (Run/buildWave) fabricates its own
// transactions, a long-lived server routes externally arriving requests
// — single-shard batches through each shard's session, multi-shard
// MULTI…EXEC batches through SubmitCross. A crashed cluster of either
// kind recovers through the same RecoverServing: the crash sweep calls
// it on canned clusters, the server on serving ones.

// NewServing builds a cluster for a serving front-end: shards with
// engines, machines and sessions but no canned NVM pools and no
// tracers. With more than one shard the coordinator decision area is
// reserved on every shard (rings stay identically sized) and the
// decision log and resolution cell are placed on shard 0; with exactly
// one shard nothing is reserved, so the machine is bit-for-bit the one
// a single-machine server would build — the -shards 1 equivalence the
// server tests pin.
func NewServing(cfg Config) *Cluster {
	cfg = cfg.normalized()
	reserve := mem.Addr(0)
	if cfg.Shards > 1 {
		reserve = DecisionReserve
	}
	return newCluster(cfg, reserve, false)
}

// ShardOf maps a key to its home shard: a splitmix64-style finalizer
// (the same construction internal/txds uses for bucket hashing) over
// the key, reduced mod shards. Deterministic across processes, so a
// load generator can predict routing.
func ShardOf(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := key + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(shards))
}

// Do runs bodies as one session batch on the shard (harness.Session.Do
// semantics: fresh threads at the engine's current virtual time) and
// reports whether the engine halted mid-batch.
func (sh *Shard) Do(name string, bodies ...func(*sim.Thread)) bool {
	_, halted := sh.sess.Do(name, bodies...)
	return halted
}

// Restart reboots the shard's session after a halt (the caller recovers
// the machine first).
func (sh *Shard) Restart() {
	sh.sess.Restart()
}

// Fanout runs f once per listed shard on the harness worker pool and
// reports whether any shard halted. It is the exported form of the
// cluster's internal phase barrier, for callers (the server's engine
// loop) that drive their own waves.
func (c *Cluster) Fanout(shards []*Shard, f func(sh *Shard) bool) bool {
	return c.fanout(shards, f)
}

// LineWrite is one full-line NVM write of a cross-shard transaction:
// the image captured at prepare time and reused verbatim by apply and
// recovery, so the durable log and the in-place update can never
// disagree.
type LineWrite struct {
	// Addr is the line base address (64-byte aligned).
	Addr mem.Addr
	// Img is the complete post-transaction line image.
	Img mem.Line
}

// SubmitCross commits one externally supplied cross-shard transaction
// through the 2PC coordinator. exec runs once per participant shard on
// a simulated thread and returns that shard's line-granular write set
// (empty for read-only participants); when at least one participant
// wrote, the full protocol runs — durable prepare records on every
// writer's ring 0, a durable commit decision in the coordinator log, a
// mark-first apply on every writer, and the resolution-cell advance —
// firing the same injection points as the canned wave driver. applied,
// when non-nil, runs on each writer's apply thread after its images are
// in place (volatile index maintenance). Unlike the canned driver there
// is no admission control: the engine loop serializes cross
// transactions, so every written transaction is decided commit.
//
// decided reports whether a durable commit decision was logged (false
// for read-only transactions, which skip the protocol); halted reports
// an injected crash. A halted-but-decided transaction is guaranteed to
// complete on every participant during RecoverServing, so the caller
// may still acknowledge it.
func (c *Cluster) SubmitCross(parts []int, exec func(k int, th *sim.Thread) []LineWrite, applied func(k int, th *sim.Thread)) (decided, halted bool) {
	if c.decLog == nil {
		panic("shard: SubmitCross on a single-shard cluster")
	}
	c.seq++
	seq := c.seq
	gid := GIDBase | seq
	pshs := make([]*Shard, len(parts))
	for i, k := range parts {
		pshs[i] = c.shards[k]
	}
	ws := make([][]LineWrite, len(c.shards))

	// Phase 1: execute on every participant and durably prepare the
	// writers (RecWrite images + the RecPrepare mark on ring 0).
	if c.fanout(pshs, func(sh *Shard) bool {
		return sh.Do("cross.prepare", func(th *sim.Thread) {
			w := exec(sh.id, th)
			ws[sh.id] = w
			if len(w) == 0 {
				return
			}
			ring := sh.m.RedoLog(0)
			for i := range w {
				ring.Append(wal.Record{Type: wal.RecWrite, TxID: gid, Addr: w[i].Addr, Data: w[i].Img})
				th.Advance(prepareLatPerRec)
			}
			ring.Append(wal.Record{Type: wal.RecPrepare, TxID: gid})
			th.Advance(prepareLatPerRec)
			sh.hit(PointPrepareLogged)
		})
	}) {
		c.halted = true
		return false, true
	}
	var writers []*Shard
	for _, sh := range pshs {
		if len(ws[sh.id]) > 0 {
			writers = append(writers, sh)
		}
	}
	if len(writers) == 0 {
		return false, false // read-only: nothing to decide or apply
	}

	// Phase 2: durable commit decision on shard 0, causally after every
	// prepare.
	tmax := c.maxNow()
	if c.fanout(c.shards[:1], func(sh *Shard) bool {
		return sh.Do("cross.decide", func(th *sim.Thread) {
			advanceTo(th, tmax)
			th.Advance(coordHopLat)
			c.decLog.Append(wal.Record{Type: wal.RecCommit, TxID: gid, LSN: seq})
			th.Advance(decisionLatPerTx)
			sh.hit(PointDecisionLogged)
		})
	}) {
		c.halted = true
		return false, true
	}
	c.crossCommits++

	// Phase 3: mark-first apply on every writer. From here the outcome
	// is fixed: a crash leaves the durable decision, and RecoverServing
	// completes the apply from the prepare images.
	tdec := c.shards[0].eng.Now()
	if c.fanout(writers, func(sh *Shard) bool {
		return sh.Do("cross.apply", func(th *sim.Thread) {
			advanceTo(th, tdec)
			th.Advance(coordHopLat)
			st := sh.m.Store()
			ring := sh.m.RedoLog(0)
			sh.hit(PointApplyMark)
			ring.Append(wal.Record{Type: wal.RecCommit, TxID: gid, LSN: sh.m.NextLSN()})
			writes := make(map[mem.Addr]mem.Line, len(ws[sh.id]))
			for _, w := range ws[sh.id] {
				sh.hit(PointApplyLine)
				img := w.Img
				st.WriteLine(w.Addr, &img)
				st.PersistLine(w.Addr, &img)
				writes[w.Addr] = img
				th.Advance(applyLatPerLine)
			}
			sh.m.NoteCommit(gid, 0, writes)
			if applied != nil {
				applied(sh.id, th)
			}
		})
	}) {
		c.halted = true
		return true, true
	}

	// Phase 4: resolution-cell advance + decision-log truncation. Ring
	// reclamation is left to the shards' ordinary background checkpoints
	// — replay of an already-applied cross transaction is idempotent
	// (same images).
	if c.fanout(c.shards[:1], func(sh *Shard) bool { return c.resolve(sh, seq) }) {
		c.halted = true
		return true, true
	}
	return true, false
}
