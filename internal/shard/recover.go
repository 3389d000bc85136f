package shard

import (
	"slices"
	"sort"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/wal"
)

// Recovery reports what cross-shard crash recovery found and did.
type Recovery struct {
	// PerShard is each machine's local recovery summary (core.Recover):
	// replay counts plus the measured scan/replay/persist phase stats.
	PerShard []core.RecoveryStats
	// Cell is the durable resolution cell: every GID sequence at or
	// below it was fully resolved (applied everywhere or decided-abort)
	// before the crash.
	Cell uint64
	// DecidedCommit / DecidedAbort hold the GID sequences whose decision
	// records were durable in the coordinator log at the crash.
	DecidedCommit map[uint64]bool
	DecidedAbort  map[uint64]bool
	// Completed counts (shard, GID) applies the completion pass finished
	// from durable prepare records; Noted counts applies local replay
	// had already finished and the pass only registered in the commit
	// log.
	Completed int
	Noted     int
}

// RecoverServing is the cluster's only crash recovery. Its callers are
// the crash sweep's SweepTarget, the serving front-end
// (server.Server's CRASH handling) and the recovery-latency benchmark
// probe. It reads durable evidence alone and decodes each persistent
// ring once: the decision log and every shard's rings are recovered,
// and the redo windows local replay decoded drive a completion pass
// that finishes every decided-commit transaction on every participant
// from the durable prepare images (RecWrite records carry the full line
// image, so no other source is needed). Undecided
// prepared transactions vanish everywhere. The GID sequence is bumped
// past every durably observed sequence so new transactions never reuse
// an ID. Recovery does not check itself: the crash sweep's verifier
// (SweepTarget) holds the result to the canned driver's ground truth,
// including every registered apply image.
//
// Host side: each shard's Crash shares its durable pages with the new
// live image instead of copying them (mem.Store.Crash), and its local
// recovery writes through those shared pages (mem.Store.WriteThrough),
// so a shard's recovery costs about what its log window costs. The
// shards crash and recover in parallel through Fanout, which honours
// Config.Par (the crash sweep runs at Par 1, so its shared injector
// sees the same serial order). The coordinator's cell read, the
// decision-log recovery and the completion pass run after, serially.
//
// Correctness leans on the protocol's phase ordering: a durable
// decision implies every participant's prepare records were durable
// first; an absent decision implies no participant ever logged an apply
// mark; a GID at or below the cell implies every participant applied,
// registered, and reclaimed it before the crash.
func (c *Cluster) RecoverServing() Recovery {
	rec := Recovery{
		DecidedCommit: make(map[uint64]bool),
		DecidedAbort:  make(map[uint64]bool),
	}

	// Power failure and local replay on every shard. Local replay
	// completes every transaction whose commit/apply mark was durable;
	// its decoded windows give the apply marks and prepare images per GID
	// (a later image of a line wins). Shards share no state, so they
	// recover in parallel through Fanout, up to Config.Par at once.
	durMark := make([]map[uint64]bool, len(c.shards))
	intents := make([]map[uint64][]LineWrite, len(c.shards))
	topSeq := make([]uint64, len(c.shards)) // highest GID sequence per shard
	rec.PerShard = make([]core.RecoveryStats, len(c.shards))
	c.Fanout(c.shards, func(sh *Shard) bool {
		k := sh.id
		sh.m.Crash()
		rec.PerShard[k] = sh.m.Recover()
		durMark[k] = make(map[uint64]bool)
		intents[k] = make(map[uint64][]LineWrite)
		for _, w := range rec.PerShard[k].Redo {
			for _, r := range w.Recs {
				if r.TxID < GIDBase {
					continue
				}
				topSeq[k] = max(topSeq[k], r.TxID&^GIDBase)
				switch r.Type {
				case wal.RecCommit:
					durMark[k][r.TxID] = true
				case wal.RecWrite:
					intents[k][r.TxID] = append(intents[k][r.TxID], LineWrite{Addr: r.Addr, Img: r.Data})
				}
			}
		}
		return false
	})

	// The coordinator's durable state lives on shard 0, crashed above.
	rec.Cell = c.shards[0].m.Store().ReadU64(c.cellAddr)
	maxSeq := max(c.seq, rec.Cell, slices.Max(topSeq))
	for _, r := range c.decLog.Recover().Recs {
		switch r.Type {
		case wal.RecCommit:
			rec.DecidedCommit[r.LSN] = true
		case wal.RecAbort:
			rec.DecidedAbort[r.LSN] = true
		}
		maxSeq = max(maxSeq, r.LSN)
	}

	// Completion pass over decided commits above the cell, in sequence
	// order. A shard with neither mark nor prepare records was not a
	// writer for that transaction (or already resolved it), so it is
	// skipped — prepare durably precedes decision, so a writer always
	// has one or the other.
	var seqs []uint64
	for s := range rec.DecidedCommit {
		if s > rec.Cell {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		gid := GIDBase | s
		for k, sh := range c.shards {
			ws := dedupLineWrites(intents[k][gid])
			if !durMark[k][gid] && len(ws) == 0 {
				continue
			}
			if inCommitLog(sh, gid) {
				continue // fully applied and registered before the crash
			}
			writes := make(map[mem.Addr]mem.Line, len(ws))
			for _, w := range ws {
				writes[w.Addr] = w.Img
			}
			if durMark[k][gid] {
				// Local replay already applied the images; only register.
				rec.Noted++
			} else {
				sh.m.RedoLog(0).Append(wal.Record{Type: wal.RecCommit, TxID: gid, LSN: sh.m.NextLSN()})
				for _, w := range ws {
					sh.m.Store().WriteThrough(w.Addr, w.Img[:])
				}
				rec.Completed++
			}
			sh.m.NoteCommit(gid, 0, writes)
		}
	}
	if c.seq < maxSeq {
		c.seq = maxSeq
	}
	c.mergeDecisionState(rec)
	c.halted = false
	return rec
}

// dedupLineWrites collapses repeated images of the same line to the
// last one, preserving first-seen line order (replay-equivalent).
func dedupLineWrites(ws []LineWrite) []LineWrite {
	if len(ws) < 2 {
		return ws
	}
	idx := make(map[mem.Addr]int, len(ws))
	out := ws[:0:0]
	for _, w := range ws {
		if i, ok := idx[w.Addr]; ok {
			out[i] = w
			continue
		}
		idx[w.Addr] = len(out)
		out = append(out, w)
	}
	return out
}

// mergeDecisionState refreshes the cluster's in-memory mirror of the
// coordinator's durable decision state after recovery, so the shards'
// prepare resolvers answer from what actually survived the crash rather
// than pre-crash volatile state.
func (c *Cluster) mergeDecisionState(rec Recovery) {
	clear(c.decidedAbort)
	for s := range rec.DecidedAbort {
		c.decidedAbort[s] = true
	}
	c.resolvedSeq = rec.Cell
}

// inCommitLog reports whether the machine's tracked commit log contains
// id (requires core.Options.TrackCommits).
func inCommitLog(sh *Shard, id uint64) bool {
	_, ok := commitWrites(sh, id)
	return ok
}

// commitWrites returns the write images registered for id in the
// machine's tracked commit log, and whether id is registered at all.
func commitWrites(sh *Shard, id uint64) (map[mem.Addr]mem.Line, bool) {
	for _, ce := range sh.m.CommitLog() {
		if ce.ID == id {
			return ce.Writes, true
		}
	}
	return nil, false
}
