package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"uhtm/internal/coherence"
	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/trace"
	"uhtm/internal/wal"
)

// walWrite builds a RecWrite record.
func walWrite(txID uint64, la mem.Addr, data mem.Line) wal.Record {
	return wal.Record{Type: wal.RecWrite, TxID: txID, Addr: la, Data: data}
}

// beginCost models xbegin plus TSS setup.
const beginCost = 5 * 1000 // 5ns in picoseconds

// begin allocates a transaction ID (the monotonically increasing global
// counter of Section IV-C), resets the core's pooled Tx and its TSS
// entry, and hands out the live Tx.
func (m *Machine) begin(c *Ctx, attempt int, slow bool) *Tx {
	m.txCounter++
	id := m.txCounter
	tx := m.txPool[c.core]
	if tx == nil {
		tx = &Tx{
			Accessor: Accessor{m: m, core: c.core},
			sig:      signature.NewPair(m.opts.SigBits),
			pages:    make([]*trackPage, mem.PageCount),
		}
		tx.Accessor.tx = tx
		m.txPool[c.core] = tx
	}
	tx.th = c.th
	tx.id = id
	tx.domain = c.domain
	tx.domainStats = m.DomainStats(c.domain)
	tx.attempt = attempt
	tx.slowPath = slow
	tx.rolledBack = false
	tx.finished = false
	tx.committing = false
	tx.commitLSN = 0
	tx.statusVal = txStatus{id: id, core: c.core, domain: c.domain, slowPath: slow, abortEnemyCore: -1}
	tx.status = &tx.statusVal
	tx.sig.Clear()
	tx.resetTracking()
	m.byCore[c.core] = tx
	m.setActive(c.core, true)
	c.th.Advance(beginCost)
	if m.tr != nil {
		var slowBit uint64
		if slow {
			slowBit = 1
		}
		m.emit(trace.EvTxBegin, c.core, id, 0, uint64(attempt)+1, uint64(c.domain)<<1|slowBit)
	}
	return tx
}

// commit runs the parallel commit protocol of Section IV-B: the NVM side
// waits for redo-log durability and flushes the persistent write-set
// toward the DRAM cache; the DRAM side places the commit mark on the
// undo log (or copies redo values in place under DRAMRedo). The two
// sides are charged in parallel (max).
func (m *Machine) commit(tx *Tx) {
	tx.th.Sync()
	tx.checkAbortFlag()
	m.hit(PointCommitBegin)
	m.emit(trace.EvTxCommitBegin, tx.core, tx.id, 0, 0, 0)
	tx.committing = true
	cfg := m.cfg

	var nvmLat, dramLat int64

	// --- NVM side ---
	if len(tx.nvmList) > 0 {
		ring := m.redoRings.ForCore(tx.core)
		nvmAddrs := append(tx.commitScratch[:0], tx.nvmList...)
		slices.Sort(nvmAddrs) // deterministic log layout
		tx.commitScratch = nvmAddrs
		for _, la := range nvmAddrs {
			img := m.store.PeekLine(la)
			m.hit(PointCommitRecord)
			ring.Append(walWrite(tx.id, la, img))
			nvmLat += int64(m.lat.RedoIssue)
		}
		m.lsnCounter++
		tx.commitLSN = m.lsnCounter
		m.hit(PointCommitMark)
		ring.Append(wal.Record{Type: wal.RecCommit, TxID: tx.id, LSN: m.lsnCounter})
		m.emit(trace.EvTxCommitMark, tx.core, tx.id, 0, m.lsnCounter, 0)
		// The log writes were issued asynchronously during execution;
		// the critical-path wait is the commit mark reaching the ADR
		// domain.
		nvmLat += int64(cfg.NVMWriteLatency)
		// Flush the on-chip persistent write-set toward the DRAM cache,
		// guided by the overflow list (one DRAM-cache access to read it
		// when non-empty).
		m.hit(PointCommitFlush)
		if tx.ovfListCount > 0 {
			nvmLat += int64(cfg.DRAMLatency)
		}
		for _, la := range nvmAddrs {
			if m.llc.Contains(la) || m.l1[tx.core].Contains(la) {
				m.dcache.Insert(la, tx.id)
				nvmLat += int64(m.lat.FlushPerLine)
			}
		}
		m.dcache.CommitTx(tx.id)
	}

	// --- DRAM side ---
	m.hit(PointCommitDRAM)
	if tx.ovfDRAMCount > 0 {
		switch m.opts.DRAMLog {
		case DRAMUndo:
			// Fast commit: one commit mark on the DRAM log.
			m.undoRings.ForCore(tx.core).Append(wal.Record{Type: wal.RecCommit, TxID: tx.id})
			dramLat += int64(cfg.DRAMLatency)
		case DRAMRedo:
			// Lazy commit: copy every overflowed line from the log to
			// its in-place location (the slow commit of Fig. 4c).
			dramLat += int64(tx.ovfDRAMCount) * 2 * int64(cfg.DRAMLatency)
			dramLat += int64(cfg.DRAMLatency) // mark
		}
	}

	if nvmLat > dramLat {
		tx.th.Advance(sim.Time(nvmLat))
	} else {
		tx.th.Advance(sim.Time(dramLat))
	}

	// --- Cleanup ---
	m.hit(PointCommitCleanup)
	m.finishCommit(tx)
}

// finishCommit retires the transaction's hardware state and records
// statistics.
func (m *Machine) finishCommit(tx *Tx) {
	tx.finished = true
	m.setActive(tx.core, false)
	if tx.status.overflowed {
		m.noteSigOccupancy(tx)
	}
	m.dir.ClearTx(tx.id)
	// Undo-log records of this transaction are dead; the per-core ring
	// reclaims to its head (one live transaction per core).
	m.undoRings.ForCore(tx.core).Reclaim(m.undoRings.ForCore(tx.core).Head())

	// The write-set must be registered for in-place persistence BEFORE
	// any reclamation may run: reclaiming first would erase this
	// transaction's redo records while its images are still volatile —
	// a crash then loses an acknowledged commit. (Found by the crash
	// sweep; see RECOVERY.md.)
	for _, la := range tx.nvmList {
		m.pendingPut(la, m.store.PeekLine(la))
	}
	tx.committing = false
	m.maybeReclaimRedo(tx.core)
	m.clearSticky()

	s := tx.domainStats
	s.Commits++
	s.ReadLines += uint64(tx.readCount)
	s.WriteLines += uint64(len(tx.writeList))
	m.stats.Commits++
	if tx.slowPath {
		s.SlowPath++
		m.stats.SlowPath++
	}
	m.noteCommitChain(tx, s)
	m.emit(trace.EvTxCommitDone, tx.core, tx.id, 0, 0, 0)

	if m.opts.TrackCommits {
		writes := make(map[mem.Addr]mem.Line, len(tx.writeList))
		for _, la := range tx.writeList {
			writes[la] = m.store.PeekLine(la)
		}
		m.commitLog = append(m.commitLog, committedTx{ID: tx.id, Domain: tx.domain, Writes: writes})
	}

	if m.byCore[tx.core] == tx {
		m.byCore[tx.core] = nil
	}
}

// rollback reverts every written line to its pre-transaction image
// (modeling cache invalidation on-chip, the undo-log walk for overflowed
// DRAM lines, and the DRAM-cache invalidate bit for NVM lines), drops
// the transaction's directory entries, and returns the latency the
// abort protocol costs its core. Its signatures and tracking flags reset
// at the next begin; the finished attempt is out of every probe scope
// until then.
func (m *Machine) rollback(tx *Tx) (cost sim.Time) {
	if tx.rolledBack {
		return 0
	}
	tx.rolledBack = true
	tx.finished = true
	m.setActive(tx.core, false)
	m.noteAbort(tx)
	m.hit(PointAbortBegin)
	cfg := m.cfg

	cost = m.lat.PipelineFlush
	m.hit(PointAbortUndo)
	onChip := 0
	for i := range tx.undo {
		e := &tx.undo[i]
		m.store.PokeLine(e.la, &e.img)
		// Invalidate cached copies of speculative data.
		if p, _ := m.llc.Invalidate(e.la); p {
			onChip++
		}
		m.invalidateL1s(e.la)
	}
	cost += sim.Time(onChip) * m.lat.AbortPerLine

	if tx.ovfDRAMCount > 0 {
		if m.opts.DRAMLog == DRAMUndo {
			// Walk the undo log: read each entry and write it in place.
			cost += sim.Time(tx.ovfDRAMCount) * 2 * cfg.DRAMLatency
		}
		// DRAMRedo aborts are cheap: the log is simply dropped.
	}
	if tx.ovfListCount > 0 {
		cost += cfg.DRAMLatency // read the overflow list
	}

	// NVM side: invalidate-bit on DRAM-cache lines; redo-log deletion is
	// deferred to background reclamation (Section IV-C), so only the
	// abort mark is charged when any redo state exists.
	if m.dcache.InvalidateTx(tx.id) > 0 || len(tx.nvmList) > 0 {
		m.hit(PointAbortMark)
		m.redoRings.ForCore(tx.core).Append(wal.Record{Type: wal.RecAbort, TxID: tx.id})
		cost += cfg.NVMWriteLatency
	}

	m.dir.ClearTx(tx.id)
	m.undoRings.ForCore(tx.core).Reclaim(m.undoRings.ForCore(tx.core).Head())
	m.clearSticky()

	if m.byCore[tx.core] == tx {
		m.byCore[tx.core] = nil
	}
	m.hit(PointAbortDone)
	return cost
}

// finishAbort completes an unwound attempt on its own thread: performs
// the rollback unless a remote aborter already did, and records the
// abort cause. The unwind signal's enemy fields are copied onto the TSS
// before rollback so the trace's abort event carries them (a remote
// aborter already filled them in via abortVictim).
func (m *Machine) finishAbort(tx *Tx, ab txAbort) {
	if !tx.rolledBack {
		tx.status.abortCause = ab.cause
		tx.status.abortEnemy = ab.enemyID
		tx.status.abortEnemyCore = ab.enemyCore
	}
	cost := m.rollback(tx)
	tx.th.Advance(cost)

	s := tx.domainStats
	s.AbortsBy[ab.cause]++
	m.stats.AbortsBy[ab.cause]++
}

// clearSticky drops all sticky check-signature bits once no live
// transaction is overflowed — stale bits only cost extra checks, so a
// coarse clearing point suffices. The scan deliberately includes the
// retiring transaction still parked in its core slot: an overflowed
// finisher keeps the bits, exactly as the former live-set scan did.
func (m *Machine) clearSticky() {
	if !m.stickyAny {
		return
	}
	for _, t := range m.byCore {
		if t != nil && t.status.overflowed {
			return
		}
	}
	m.stickyReset()
}

// stickyReset invalidates every sticky bit in O(1) by bumping the
// generation.
func (m *Machine) stickyReset() {
	m.stickyGen++
	if m.stickyGen == 0 {
		// Generation wrap: wipe the pages so stale slots cannot collide,
		// and skip 0 (the page zero value).
		for _, p := range m.stickyPages {
			if p != nil {
				*p = stickyPage{}
			}
		}
		m.stickyGen = 1
	}
	m.stickyAny = false
}

// maybeReclaimRedo keeps the per-core redo rings from filling: past the
// high-water mark, every committed NVM line that may not have drained is
// persisted in place, after which the committed prefix of every ring is
// dead (committed data durable in place) and reclaims incrementally.
// This is the background log-reclamation of [28]/Section IV-C, so it
// charges no latency to any core.
func (m *Machine) maybeReclaimRedo(core int) {
	ring := m.redoRings.ForCore(core)
	if ring.Len() < ring.Slots()/2 {
		return
	}
	m.ReclaimLogs()
}

// ReclaimLogs runs one incremental background reclamation pass: pending
// committed NVM images are persisted in place, the DRAM cache drains, a
// fuzzy checkpoint (low-water LSN + active-transaction table) is written
// durably, and each redo ring truncates its disposable prefix. The pass
// never waits for quiescence — a mid-commit transaction merely lowers
// the low-water mark so its records survive — so reclamation always
// makes progress under sustained commit load. (The previous design
// deferred wholesale whenever any core was committing; under saturation
// the rings filled until wal.Append panicked. See RECOVERY.md.)
//
// At a quiescent point the low-water mark equals the global LSN and
// every group is disposable, so the rings truncate fully — a crash right
// after recovers from the durable in-place data alone.
func (m *Machine) ReclaimLogs() {
	m.hit(PointReclaimBegin)
	dirty := len(m.pendingAddrs)
	m.persistPending()
	m.hit(PointReclaimDrain)
	m.dcache.DrainAll()
	// The checkpoint must be durable BEFORE any ring truncates. Ring
	// truncations are per-core durable updates and cannot be atomic as a
	// group: a crash between them would otherwise leave stale committed
	// records on the surviving rings, and replaying those would regress
	// lines past newer commits whose records were already truncated.
	// With the checkpoint durable first, recovery ignores every commit
	// record at or below its low-water LSN — all such data is persisted
	// in place by the persistPending above. (Found by the crash sweep;
	// see RECOVERY.md.)
	low := m.lowWaterLSN()
	m.hit(PointReclaimCkpt)
	m.writeCheckpoint(low, dirty)
	m.hit(PointReclaimRings)
	for i := 0; i < m.redoRings.Count(); i++ {
		m.reclaimRing(m.redoRings.ForCore(i), low)
	}
}

// lowWaterLSN returns the highest LSN safe to truncate at: the global
// commit LSN, lowered below the commit mark of any mid-commit
// transaction. Such a transaction's durability rests solely on its log
// records (its write-set is not yet registered in pendingNVM), so its
// mark must survive truncation and stay above the checkpoint's replay
// filter. A committing transaction whose mark is not yet appended needs
// no lowering: its eventual LSN is above the current global counter.
func (m *Machine) lowWaterLSN() uint64 {
	low := m.lsnCounter
	for _, t := range m.byCore {
		if t != nil && t.committing && t.commitLSN != 0 && t.commitLSN-1 < low {
			low = t.commitLSN - 1
		}
	}
	return low
}

// writeCheckpoint cuts one fuzzy checkpoint: the previous-but-one group
// is truncated (the previous complete group is retained as the fallback
// for a torn write of this one), the new group is appended durably, and
// only then does the cell flip to it — a single-line, crash-atomic
// pointer update. A crash anywhere in between leaves the cell on the
// previous complete group.
func (m *Machine) writeCheckpoint(low uint64, dirty int) {
	m.ckptLog.Reclaim(m.lastCkptBegin)
	act := m.ckptActScratch[:0]
	for _, t := range m.byCore {
		if t != nil && !t.finished {
			act = append(act, wal.CkptActive{TxID: t.id, CommitLSN: t.commitLSN})
		}
	}
	m.ckptActScratch = act
	m.ckptSeq++
	begin := m.ckptLog.AppendCheckpoint(wal.Checkpoint{
		Seq:        m.ckptSeq,
		LowWater:   low,
		DirtyLines: dirty,
		Active:     act,
	})
	m.hit(PointReclaimCell)
	var cell [8]byte
	binary.LittleEndian.PutUint64(cell[:], begin+1)
	m.store.WriteThrough(m.ckptAddr, cell[:])
	m.emit(trace.EvWALCheckpoint, -1, 0, 0, low, 0)
	m.lastCkptBegin = begin
}

// reclaimRing truncates ring's disposable prefix: record groups whose
// transaction is aborted, committed at or below the low-water mark, or
// 2PC-prepared with a durably decided fate (prepareResolver). It walks
// the ring's group index (wal.Log.Group) from the front and stops at the
// first group that must survive — a mid-commit transaction's group, a
// commit above the mark, or an undecided prepare — so truncation never
// splits a group, and no record is read.
func (m *Machine) reclaimRing(ring *wal.Log, low uint64) {
	stop := ring.Tail()
	for i, n := 0, ring.Groups(); i < n; i++ {
		g := ring.Group(i)
		if !m.disposable(g, low) {
			break
		}
		stop = g.End
	}
	ring.Reclaim(stop)
}

// disposable reports whether group g may be truncated at low-water mark
// low.
func (m *Machine) disposable(g wal.Group, low uint64) bool {
	switch g.Fate {
	case wal.FateAborted:
		return true
	case wal.FateCommitted:
		return g.LSN <= low
	case wal.FatePrepared:
		return m.prepareResolver != nil && m.prepareResolver(g.TxID)
	}
	return false
}

// persistPending force-drains the committed image of every NVM line
// still ahead of its in-place durable update. Addresses are walked in
// sorted order so a crash at the k-th image always tears the same
// prefix — the crash sweep's replays stay bit-reproducible. (A crash
// mid-walk leaves the in-memory set undrained where the old map-based
// code deleted entries incrementally; the difference is unobservable —
// a halted machine's pending set is never consulted again, and only
// the durable PersistLine order matters to the sweep.)
func (m *Machine) persistPending() {
	if len(m.pendingAddrs) == 0 {
		return
	}
	s := append(m.persistScratch[:0], m.pendingAddrs...)
	slices.Sort(s)
	for _, la := range s {
		idx := mem.LineIndex(la)
		q := m.pendingPages[idx>>mem.PageShift].pos[idx&(mem.PageLines-1)]
		l := m.pendingImgs[q-1]
		m.hit(PointReclaimImage)
		m.store.PersistLine(la, &l)
	}
	for _, la := range m.pendingAddrs {
		idx := mem.LineIndex(la)
		m.pendingPages[idx>>mem.PageShift].pos[idx&(mem.PageLines-1)] = 0
	}
	m.pendingAddrs = m.pendingAddrs[:0]
	m.pendingImgs = m.pendingImgs[:0]
	m.persistScratch = s[:0]
}

// RecoveryStats reports what one recovery pass examined and applied,
// plus a modeled per-phase latency breakdown. The simulated-time phase
// costs are derived from the machine's medium latencies (scan reads
// every in-window log slot; replay and persist each write every applied
// line) and are fully deterministic; Wall is the host time the pass took
// and is the only nondeterministic field.
type RecoveryStats struct {
	wal.ReplayStats
	CheckpointLSN uint64 // low-water LSN the replay filtered against
	CkptRecords   int    // checkpoint-ring records decoded to find it
	// Redo is each core's redo window as this recovery decoded it (core
	// i's at index i), for the cluster's 2PC completion pass. The
	// windows are the rings' decode buffers: valid until the machine's
	// next Recover (wal.Log.Window).
	Redo []wal.Window

	ScanPS    sim.Time // modeled log-scan phase (read every slot)
	ReplayPS  sim.Time // modeled redo-apply phase (write applied lines)
	PersistPS sim.Time // modeled in-place persist phase
	Wall      time.Duration
}

// Recover performs post-crash recovery (Section IV-C). It recovers each
// persistent ring once (wal.Log.Recover): the checkpoint ring's window
// resolves the latest complete fuzzy checkpoint, then the redo rings'
// committed groups are replayed onto the durable image, ignoring those
// at or below its low-water LSN (persisted in place; see ReclaimLogs).
// DRAM contents and the undo logs are gone; the programmer keeps
// recovery-relevant structures in NVM. All evidence is read from the
// durable image, so calling it without a preceding Crash gives the same
// answer a real power failure would.
func (m *Machine) Recover() RecoveryStats {
	start := time.Now()
	var st RecoveryStats
	if ck, ok := m.durableCheckpoint(m.ckptLog.Recover()); ok {
		st.CheckpointLSN = ck.LowWater
		st.CkptRecords = len(ck.Active) + 2
	}
	st.ReplayStats, st.Redo = m.redoRings.Recover(st.CheckpointLSN)
	st.ScanPS = sim.Time(st.ScannedRecs+st.CkptRecords) * 2 * m.cfg.NVMReadLatency
	st.ReplayPS = sim.Time(st.AppliedLines) * m.cfg.NVMWriteLatency
	st.PersistPS = sim.Time(st.AppliedLines) * m.cfg.NVMWriteLatency
	st.Wall = time.Since(start)
	return st
}

// Crash simulates a power failure on the machine's store and resets the
// volatile hardware structures. Call Recover afterwards.
func (m *Machine) Crash() {
	m.store.Crash()
	m.dir = coherence.NewDirectory()
	m.llc.Reset()
	for _, l1 := range m.l1 {
		l1.Reset()
	}
	for i := range m.byCore {
		m.byCore[i] = nil
	}
	clear(m.activeCores)
	m.stickyReset()
}

func init() {
	// Guard against accidental divergence of the record framing the
	// recovery path depends on.
	if wal.RecordSize%8 != 0 {
		panic(fmt.Sprintf("core: wal.RecordSize %d not 8-byte aligned", wal.RecordSize))
	}
}
