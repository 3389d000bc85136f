package shard

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"uhtm/internal/crash"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/wal"
)

// Injection points fired by the cross-shard commit protocol, in
// protocol order, all prefixed per shard ("s<k>." + point) by the sweep.
// Together with the wal.* points of the decision log
// (shard.decision.append.record etc.) and the core.*/wal.*/mem.* points
// the underlying machines fire, crashing at every point covers every
// reachable mid-2PC durable state. See RECOVERY.md.
const (
	// PointPrepareLogged fires on a participant shard after one cross
	// transaction's prepare record set (its RecWrite images plus the
	// RecPrepare mark) is durable on the shard's redo ring. A crash here
	// leaves a durable prepared write set with no decision: recovery
	// discards it everywhere.
	PointPrepareLogged = "shard.2pc.prepare.logged"
	// PointDecisionLogged fires on shard 0 after one decision record
	// (RecCommit or RecAbort for a GID) is durable in the coordinator
	// decision log. A crash here commits the decided prefix of the wave:
	// decided transactions complete during recovery, the rest vanish.
	PointDecisionLogged = "shard.2pc.decision.logged"
	// PointApplyMark fires on a participant shard before the per-shard
	// apply mark (RecCommit) is appended for a decided transaction. A
	// crash here leaves the decision durable but this shard unmarked:
	// recovery re-applies from the prepare records.
	PointApplyMark = "shard.2pc.apply.mark"
	// PointApplyLine fires before each in-place line write+persist of a
	// decided transaction's apply. A crash mid-apply leaves a torn
	// in-place image that local replay completes from the durable mark
	// plus prepare records.
	PointApplyLine = "shard.2pc.apply.line"
	// PointResolveCkpt fires on shard 0 before the resolution cell —
	// the highest fully resolved GID sequence — persists (a single-line,
	// hence crash-atomic, durable update). A crash here replays the
	// round's decisions idempotently.
	PointResolveCkpt = "shard.2pc.resolve.ckpt"
)

// PointPrefixDecision is the injection-point prefix of the coordinator
// decision log (wal.Log.SetPointPrefix), yielding
// shard.decision.append.record / append.ctrl / reclaim.ctrl.
const PointPrefixDecision = "shard.decision."

// Protocol latencies charged to the simulated threads driving 2PC.
const (
	prepareLatPerRec = 5 * sim.Nanosecond   // redo-ring append + flush
	coordHopLat      = 200 * sim.Nanosecond // shard ↔ coordinator message
	decisionLatPerTx = 10 * sim.Nanosecond  // decision append
	applyLatPerLine  = 8 * sim.Nanosecond   // in-place write + persist
)

// crossTx is one cross-shard transaction as the coordinator runs it:
// its participants, the per-participant work that produces its write
// images, and — once prepared — those images. The canned driver keeps
// every transaction it issues (Cluster.waves) as the ground truth an
// injected crash is checked against.
type crossTx struct {
	gid      uint64
	seq      uint64
	shards   []int // participant shard IDs
	admitted bool  // admission verdict: false decides RecAbort

	// exec runs once on participant k's prepare thread and returns k's
	// line writes (empty for a read-only participant).
	exec func(k int, th *sim.Thread) []LineWrite
	// applied, when non-nil, runs on participant k's apply thread after
	// k's images are in place.
	applied func(k int, th *sim.Thread)

	writes [][]LineWrite // shard ID → prepared images, filled by prepare
}

// newTx issues the next GID to a transaction over the given
// participants, admitted unless the caller's admission says otherwise.
func (c *Cluster) newTx(shards []int, exec func(k int, th *sim.Thread) []LineWrite) *crossTx {
	c.seq++
	return &crossTx{
		gid:      GIDBase | c.seq,
		seq:      c.seq,
		shards:   shards,
		admitted: true,
		exec:     exec,
		writes:   make([][]LineWrite, len(c.shards)),
	}
}

// wrote reports whether any participant prepared a write for tx.
func (tx *crossTx) wrote() bool {
	for _, ws := range tx.writes {
		if len(ws) > 0 {
			return true
		}
	}
	return false
}

// buildWave constructs round r's cross-shard transactions and runs
// conflict admission: transactions are admitted greedily in GID order,
// and one whose (shard, line) set overlaps an earlier admitted
// transaction in the same wave is aborted by the coordinator (the
// cross-shard analogue of a conflict abort). Each transaction's exec
// overlays its planned 8-byte value onto the live line at prepare time.
// Everything is a pure function of (Config, r), so waves are identical
// on every run.
func (c *Cluster) buildWave(r int) []*crossTx {
	cfg := c.cfg
	var wave []*crossTx
	taken := make(map[int]map[mem.Addr]bool, cfg.Shards)
	parts := min(2, cfg.Shards) // participant shards per cross transaction
	for j := 0; j < cfg.CrossPerRound; j++ {
		base := crash.Pick(r*7+3, j, 0, cfg.Shards)
		shards := make([]int, 0, parts)
		for i := 0; i < parts; i++ {
			shards = append(shards, (base+i)%cfg.Shards)
		}
		sort.Ints(shards)
		// plan[k] holds participant k's writes, ascending by address;
		// only the first word of each image is planned.
		plan := make([][]LineWrite, cfg.Shards)
		tx := c.newTx(shards, func(k int, _ *sim.Thread) []LineWrite {
			st := c.shards[k].m.Store()
			ws := make([]LineWrite, len(plan[k]))
			for i, p := range plan[k] {
				img := st.PeekLine(p.Addr)
				copy(img[:8], p.Img[:8])
				ws[i] = LineWrite{Addr: p.Addr, Img: img}
			}
			return ws
		})
		for i, s := range shards {
			sh := c.shards[s]
			seen := make(map[mem.Addr]bool, cfg.WritesPerTx)
			for w := 0; w < cfg.WritesPerTx; w++ {
				li := crash.Pick(r*17+5, j*29+1, i*cfg.WritesPerTx+w, cfg.LinesPerShard)
				la := sh.pool[li]
				if seen[la] {
					continue // duplicate pick within the same tx: one write
				}
				seen[la] = true
				p := LineWrite{Addr: la}
				binary.LittleEndian.PutUint64(p.Img[:8], tx.seq<<20|uint64(i)<<10|uint64(w+1))
				plan[s] = append(plan[s], p)
			}
			sort.Slice(plan[s], func(a, b int) bool { return plan[s][a].Addr < plan[s][b].Addr })
		}
		// Greedy admission against the wave's already-admitted sets.
	admit:
		for _, s := range shards {
			for _, p := range plan[s] {
				if taken[s][p.Addr] {
					tx.admitted = false
					break admit
				}
			}
		}
		if tx.admitted {
			for _, s := range shards {
				if taken[s] == nil {
					taken[s] = make(map[mem.Addr]bool)
				}
				for _, p := range plan[s] {
					taken[s][p.Addr] = true
				}
			}
		}
		wave = append(wave, tx)
	}
	c.waves = append(c.waves, wave...)
	return wave
}

// participants returns, in index order, the distinct shards some wave
// transaction lists as a participant — only those that prepared a write
// when writersOnly is set.
func (c *Cluster) participants(wave []*crossTx, writersOnly bool) []*Shard {
	in := make([]bool, len(c.shards))
	for _, tx := range wave {
		for _, k := range tx.shards {
			in[k] = in[k] || !writersOnly || len(tx.writes[k]) > 0
		}
	}
	var out []*Shard
	for k, ok := range in {
		if ok {
			out = append(out, c.shards[k])
		}
	}
	return out
}

// commit runs the 2PC phases over one wave: a durable prepare on every
// participant, then — if any participant wrote — one decision record on
// shard 0 per transaction that prepared a write (RecCommit if admitted,
// RecAbort otherwise), then a mark-first apply on every shard holding a
// prepared write. Each phase is a cross-shard barrier; a halt stops the
// wave after the phase that observed it. decided reports that the
// decision phase completed, so every decided commit reaches every
// participant (during RecoverServing if the apply halted).
func (c *Cluster) commit(wave []*crossTx) (decided, halted bool) {
	// Phase 1: execute and durably prepare on each participant.
	if c.Fanout(c.participants(wave, false), func(sh *Shard) bool { return c.prepare(sh, wave) }) {
		return false, true
	}
	writers := c.participants(wave, true)
	if len(writers) == 0 {
		return false, false // read-only: nothing to decide or apply
	}

	// Phase 2: coordinator decision on shard 0, at a virtual time after
	// every participant's prepare (plus a coordination hop).
	tmax := c.maxNow()
	if c.Fanout(c.shards[:1], func(sh *Shard) bool { return c.decide(sh, wave, tmax) }) {
		return false, true
	}
	for _, tx := range wave {
		switch {
		case !tx.wrote(): // no decision
		case tx.admitted:
			c.crossCommits++
		default:
			c.crossAborts++
		}
	}

	// Phase 3: per-shard apply of the committed transactions, after the
	// decision (plus the return hop). From here the outcome is fixed.
	tdec := c.shards[0].eng.Now()
	return true, c.Fanout(writers, func(sh *Shard) bool { return c.apply(sh, wave, tdec) })
}

// maxNow returns the latest virtual time across shards.
func (c *Cluster) maxNow() sim.Time {
	var t sim.Time
	for _, sh := range c.shards {
		if now := sh.eng.Now(); now > t {
			t = now
		}
	}
	return t
}

// advanceTo moves th forward to at (no-op when already past it).
func advanceTo(th *sim.Thread, at sim.Time) {
	if d := at - th.Clock(); d > 0 {
		th.Advance(d)
	}
}

// prepare runs, for every wave transaction with sh as participant, the
// transaction's exec and logs the returned images (RecWrite per line)
// followed by its RecPrepare mark on the shard's ring 0 — a durable
// prepared write set invisible to local replay until a mark commits it.
func (c *Cluster) prepare(sh *Shard, wave []*crossTx) bool {
	return sh.Do("2pc.prepare", func(th *sim.Thread) {
		ring := sh.m.RedoLog(0)
		for _, tx := range wave {
			if !slices.Contains(tx.shards, sh.id) {
				continue
			}
			ws := tx.exec(sh.id, th)
			tx.writes[sh.id] = ws
			if len(ws) == 0 {
				continue
			}
			for _, w := range ws {
				ring.Append(wal.Record{Type: wal.RecWrite, TxID: tx.gid, Addr: w.Addr, Data: w.Img})
				th.Advance(prepareLatPerRec)
			}
			ring.Append(wal.Record{Type: wal.RecPrepare, TxID: tx.gid})
			th.Advance(prepareLatPerRec)
			sh.hit(PointPrepareLogged)
		}
	})
}

// decide runs the coordinator: one durable decision record per wave
// transaction that prepared a write (RecCommit for admitted, RecAbort
// for conflict-aborted), appended to the decision log in GID order at a
// time causally after every prepare.
func (c *Cluster) decide(sh *Shard, wave []*crossTx, tmax sim.Time) bool {
	return sh.Do("2pc.decide", func(th *sim.Thread) {
		advanceTo(th, tmax)
		th.Advance(coordHopLat)
		for _, tx := range wave {
			if !tx.wrote() {
				continue
			}
			typ := wal.RecCommit
			if !tx.admitted {
				typ = wal.RecAbort
			}
			c.decLog.Append(wal.Record{Type: typ, TxID: tx.gid, LSN: tx.seq})
			if !tx.admitted {
				c.decidedAbort[tx.seq] = true
			}
			th.Advance(decisionLatPerTx)
			sh.hit(PointDecisionLogged)
		}
	})
}

// apply completes the committed wave transactions on sh: the durable
// apply mark first (so a torn apply is completed by local replay from
// the prepare records), then each prepared image in place, then the
// transaction's applied callback.
func (c *Cluster) apply(sh *Shard, wave []*crossTx, tdec sim.Time) bool {
	return sh.Do("2pc.apply", func(th *sim.Thread) {
		advanceTo(th, tdec)
		th.Advance(coordHopLat)
		st := sh.m.Store()
		ring := sh.m.RedoLog(0)
		for _, tx := range wave {
			ws := tx.writes[sh.id]
			if !tx.admitted || len(ws) == 0 {
				continue
			}
			sh.hit(PointApplyMark)
			ring.Append(wal.Record{Type: wal.RecCommit, TxID: tx.gid, LSN: sh.m.NextLSN()})
			writes := make(map[mem.Addr]mem.Line, len(ws))
			for _, w := range ws {
				sh.hit(PointApplyLine)
				st.WriteThrough(w.Addr, w.Img[:])
				writes[w.Addr] = w.Img
				th.Advance(applyLatPerLine)
			}
			sh.m.NoteCommit(tx.gid, 0, writes)
			if tx.applied != nil {
				tx.applied(sh.id, th)
			}
		}
	})
}

// reclaim runs one background log-reclamation pass on sh's machine from
// a simulated thread (so injected crashes inside it halt the engine).
func (c *Cluster) reclaim(sh *Shard) bool {
	return sh.Do("2pc.reclaim", func(*sim.Thread) { sh.m.ReclaimLogs() })
}

// resolve durably advances the resolution cell to seq — every cross
// transaction with sequence <= seq is fully applied (or decided-abort)
// and reclaimed everywhere — then truncates the decision log, whose
// records are now redundant with the cell.
func (c *Cluster) resolve(sh *Shard, seq uint64) bool {
	return sh.Do("2pc.resolve", func(th *sim.Thread) {
		sh.hit(PointResolveCkpt)
		var cell [8]byte
		binary.LittleEndian.PutUint64(cell[:], seq)
		sh.m.Store().WriteThrough(c.cellAddr, cell[:])
		th.Advance(decisionLatPerTx)
		c.decLog.Reclaim(c.decLog.Head())
		c.resolvedSeq = seq
	})
}

// String identifies a cross transaction in diagnostics.
func (tx *crossTx) String() string {
	return fmt.Sprintf("gid=%#x seq=%d shards=%v admitted=%v", tx.gid, tx.seq, tx.shards, tx.admitted)
}
