package shard

import (
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
// probe. It reads durable evidence alone: every shard's machine crashes and
// replays its own rings; then the coordinator's decision log drives a
// completion pass that finishes every decided-commit transaction on
// every participant from the durable prepare images (RecWrite records
// carry the full line image, so no other source is needed). Undecided
// prepared transactions vanish everywhere. The GID sequence is bumped
// past every durably observed sequence so new transactions never reuse
// an ID. Recovery does not check itself: the crash sweep's verifier
// (SweepTarget) holds the result to the canned driver's ground truth,
// including every registered apply image.
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

	// Power failure on every shard.
	for _, sh := range c.shards {
		sh.m.Crash()
	}

	maxSeq := c.seq
	if c.decLog != nil {
		st0 := c.shards[0].m.Store()
		rec.Cell = st0.ReadU64(c.cellAddr)
		if rec.Cell > maxSeq {
			maxSeq = rec.Cell
		}
		for _, r := range c.decLog.Records(true) {
			switch r.Type {
			case wal.RecCommit:
				rec.DecidedCommit[r.LSN] = true
			case wal.RecAbort:
				rec.DecidedAbort[r.LSN] = true
			}
			if r.LSN > maxSeq {
				maxSeq = r.LSN
			}
		}
	}

	// Per-shard durable evidence, collected before local replay appends
	// anything: apply marks and prepare images per GID. A later RecWrite
	// for the same line overrides an earlier one, matching replay order.
	durMark := make([]map[uint64]bool, len(c.shards))
	intents := make([]map[uint64][]LineWrite, len(c.shards))
	for k, sh := range c.shards {
		durMark[k] = make(map[uint64]bool)
		intents[k] = make(map[uint64][]LineWrite)
		for _, r := range sh.m.DurableRedoRecords() {
			if r.TxID < GIDBase {
				continue
			}
			if s := r.TxID &^ GIDBase; s > maxSeq {
				maxSeq = s
			}
			switch r.Type {
			case wal.RecCommit:
				durMark[k][r.TxID] = true
			case wal.RecWrite:
				intents[k][r.TxID] = append(intents[k][r.TxID], LineWrite{Addr: r.Addr, Img: r.Data})
			}
		}
	}

	// Local replay per shard: completes every transaction — local or
	// cross — whose commit/apply mark was durable.
	for _, sh := range c.shards {
		rec.PerShard = append(rec.PerShard, sh.m.Recover())
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
				st := sh.m.Store()
				for _, w := range ws {
					img := w.Img
					st.WriteLine(w.Addr, &img)
					st.PersistLine(w.Addr, &img)
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
	if c.decidedAbort == nil {
		return
	}
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
