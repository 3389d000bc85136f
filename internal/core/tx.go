package core

import (
	"fmt"

	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/stats"
)

// Per-line tracking flags of one transaction attempt (trackPage.flags).
const (
	fRead     uint8 = 1 << iota // in the precise read footprint
	fWrite                      // in the precise write footprint
	fUndo                       // first-touch pre-image captured (undoIdx valid)
	fOvfList                    // on the hardware overflow list
	fOvfDRAM                    // overflowed DRAM line (hybrid versioning)
	fNVMWrite                   // in the NVM write-set
	fSigRead                    // inserted into the read signature
	fSigWrite                   // inserted into the write signature
)

// trackPage is one page of a transaction's per-line tracking table.
// Entries are generation-tagged: a slot belongs to the current attempt
// only when its gen matches the transaction's, which makes resetting
// the whole footprint between attempts O(1).
type trackPage struct {
	gen     [mem.PageLines]uint32
	flags   [mem.PageLines]uint8
	undoIdx [mem.PageLines]int32 // into Tx.undo, valid when fUndo is set
}

// undoEnt is one first-touch pre-image — the content the DRAM undo log
// and cache invalidation restore on abort.
type undoEnt struct {
	la  mem.Addr
	img mem.Line
}

// Tx is one running hardware transaction. Workload code obtains a Tx
// from Ctx.Run and performs all shared-memory accesses through it; any
// access may unwind the body with an internal abort signal, after which
// Run rolls the transaction back and retries, so bodies must keep all
// cross-attempt state in simulated memory.
//
// Tx objects are pooled per core: each core has exactly one live
// transaction at a time, and its core's thread is the only one that
// begins transactions on it, so the slot is reused only after the
// previous attempt has fully unwound.
type Tx struct {
	// Accessor carries the transactional loads and stores (its tx
	// points back at this Tx) and the machine, thread and core.
	Accessor
	id     uint64
	domain int
	status *txStatus
	// domainStats caches the domain's counters (Machine.DomainStats
	// entries live as long as the machine).
	domainStats *stats.Stats
	// statusVal backs status — one TSS entry per core, reset per attempt.
	statusVal txStatus

	// sig carries the hardware read/write signatures: overflowed lines
	// only under staged detection, every access under signature-only.
	// The filters only say "maybe"; the fSigRead/fSigWrite tracking
	// flags record the same insertions precisely, and double as the
	// Ideal detector's overflow sets (see addSig and probeOffChip).
	sig *signature.Pair

	// gen/pages hold the per-line tracking table (footprints, undo
	// capture, overflow membership) for the current attempt; see
	// trackPage. The side lists below carry what needs iteration:
	// undo pre-images, the unique write-set, and the NVM write-set —
	// all reset by re-slicing between attempts.
	gen   uint32
	pages []*trackPage

	undo      []undoEnt
	writeList []mem.Addr
	nvmList   []mem.Addr

	readCount    int // unique read lines (stats)
	ovfListCount int // hardware overflow-list entries
	ovfDRAMCount int // overflowed DRAM lines

	// commitScratch is the reusable buffer the commit protocol sorts the
	// NVM write-set into (deterministic log layout without a per-commit
	// allocation).
	commitScratch []mem.Addr

	// abortScratch backs the abort-unwind panic value: panicking with
	// a pointer into the pooled Tx keeps the rollback path
	// allocation-free (boxing a txAbort value would allocate on every
	// abort). It is consumed synchronously by runBody's recover before
	// the Tx can be reused.
	abortScratch txAbort

	attempt    int
	slowPath   bool
	rolledBack bool // victim-abort already performed rollback
	finished   bool
	// committing is set while the commit protocol is between its first
	// redo-log append and the registration of the write-set in
	// pendingNVM: in that window the transaction's durability rests
	// solely on its log records, so incremental reclamation must keep
	// them — the fuzzy checkpoint's low-water LSN stops below this
	// transaction's commit mark.
	committing bool
	// commitLSN is the LSN stamped on this transaction's RecCommit
	// record, 0 until the mark is appended. While committing is set it
	// bounds the reclamation low-water mark (see Machine.lowWaterLSN).
	commitLSN uint64
}

// slot returns la's tracking-table slot, materializing its page and
// resetting the slot if it belongs to an earlier attempt.
func (tx *Tx) slot(la mem.Addr) (*trackPage, uint64) {
	idx := mem.LineIndex(la)
	pi := idx >> mem.PageShift
	p := tx.pages[pi]
	if p == nil {
		p = new(trackPage)
		tx.pages[pi] = p
	}
	o := idx & (mem.PageLines - 1)
	if p.gen[o] != tx.gen {
		p.gen[o] = tx.gen
		p.flags[o] = 0
	}
	return p, o
}

// flagsOf returns la's tracking flags for the current attempt (0 when
// untouched) without materializing anything.
func (tx *Tx) flagsOf(la mem.Addr) uint8 {
	idx := mem.LineIndex(la)
	p := tx.pages[idx>>mem.PageShift]
	if p == nil {
		return 0
	}
	o := idx & (mem.PageLines - 1)
	if p.gen[o] != tx.gen {
		return 0
	}
	return p.flags[o]
}

// addSig inserts la, whose tracking slot is p[o], into the read or
// write signature and marks it in the precise footprint. The flag
// resets with the rest of the slot at the next attempt; until then a
// finished attempt is out of every probe scope.
func (tx *Tx) addSig(p *trackPage, o uint64, la mem.Addr, write bool) {
	if write {
		p.flags[o] |= fSigWrite
		tx.sig.AddWrite(la)
	} else {
		p.flags[o] |= fSigRead
		tx.sig.AddRead(la)
	}
	if r := tx.m.sigRef; r != nil {
		r.inserted(tx, la, write)
	}
}

// sigConflict reports whether la is in the precise signature footprint
// in a way a request conflicts with — any membership for a write, the
// write set for a read — and whether it is in the footprint at all.
func (tx *Tx) sigConflict(la mem.Addr, write bool) (conflict, member bool) {
	f := tx.flagsOf(la)
	return f&fSigWrite != 0 || write && f&fSigRead != 0, f&(fSigRead|fSigWrite) != 0
}

// resetTracking prepares the pooled Tx for a new attempt: bump the
// generation (invalidating every tracking slot at once) and re-slice
// the side lists.
func (tx *Tx) resetTracking() {
	tx.gen++
	if tx.gen == 0 {
		// Generation wrap: stale slots from 2^32 attempts ago could
		// collide; wipe the table once and restart at 1 (page zero value
		// means "gen 0", which must stay invalid).
		for _, p := range tx.pages {
			if p != nil {
				*p = trackPage{}
			}
		}
		tx.gen = 1
	}
	tx.undo = tx.undo[:0]
	tx.writeList = tx.writeList[:0]
	tx.nvmList = tx.nvmList[:0]
	tx.readCount, tx.ovfListCount, tx.ovfDRAMCount = 0, 0, 0
}

// txAbort is the unwind signal for an aborting transaction. It carries
// the enemy — the transaction whose conflict triggered the abort — for
// trace arrows and abort-chain accounting (enemyCore is -1 when there
// is none, e.g. explicit aborts).
type txAbort struct {
	cause     stats.AbortCause
	enemyID   uint64
	enemyCore int
}

// ID returns the transaction's globally unique identifier.
func (tx *Tx) ID() uint64 { return tx.id }

// Core returns the core the transaction runs on.
func (tx *Tx) Core() int { return tx.core }

// Domain returns the transaction's conflict domain.
func (tx *Tx) Domain() int { return tx.domain }

// Overflowed reports whether the transaction's footprint has left the
// LLC (the TSS overflow bit).
func (tx *Tx) Overflowed() bool { return tx.status.overflowed }

// Attempt returns the zero-based retry count of this execution.
func (tx *Tx) Attempt() int { return tx.attempt }

// SlowPath reports whether this execution runs serialized under the
// domain's fallback lock.
func (tx *Tx) SlowPath() bool { return tx.slowPath }

// unwind aborts the current attempt: it stores the abort descriptor in
// the Tx's pre-allocated scratch and panics with a pointer to it, which
// runBody's recover converts back into a result.
func (tx *Tx) unwind(cause stats.AbortCause, enemyID uint64, enemyCore int) {
	tx.abortScratch = txAbort{cause: cause, enemyID: enemyID, enemyCore: enemyCore}
	panic(&tx.abortScratch)
}

// checkAbortFlag unwinds if another transaction (or the lock holder)
// marked this transaction aborted in the TSS.
func (tx *Tx) checkAbortFlag() {
	if tx.status.abortFlag {
		tx.unwind(tx.status.abortCause, tx.status.abortEnemy, tx.status.abortEnemyCore)
	}
}

// Abort explicitly aborts the current attempt (xabort-style). Run will
// retry the body.
func (tx *Tx) Abort() {
	tx.unwind(stats.CauseExplicit, 0, -1)
}

// String identifies the transaction (id, core, domain) for logs.
func (tx *Tx) String() string {
	return fmt.Sprintf("tx%d(core=%d,domain=%d)", tx.id, tx.core, tx.domain)
}
