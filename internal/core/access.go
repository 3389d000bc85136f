package core

import (
	"fmt"
	"math/bits"

	"uhtm/internal/cache"
	"uhtm/internal/coherence"
	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// victim pairs a conflicting transaction with the classification of the
// conflict (directory conflicts are always true; signature conflicts may
// be false positives).
type victim struct {
	tx    *Tx
	cause stats.AbortCause
}

// Accessor performs one core's loads and stores: inside transaction tx,
// or non-transactionally when tx is nil. Tx embeds one; Ctx.NT hands
// out the context's non-transactional one. Both kinds are the same
// coherence request — a non-transactional one just carries no
// transaction ID — so both walk the hierarchy, pollute the LLC and are
// checked against the signatures of the core's conflict domain
// (Section IV-D).
type Accessor struct {
	m    *Machine
	th   *sim.Thread
	core int
	tx   *Tx // nil: non-transactional
}

// ReadU64 reads the 8-byte word at a.
func (x *Accessor) ReadU64(a mem.Addr) uint64 {
	x.m.accessEx(x.th, x.core, x.tx, a, false, false)
	return x.m.store.ReadU64(a)
}

// WriteU64 writes the 8-byte word at a.
func (x *Accessor) WriteU64(a mem.Addr, v uint64) {
	x.m.accessEx(x.th, x.core, x.tx, a, true, false)
	x.m.store.WriteU64(a, v)
}

// ReadBytes reads n bytes starting at a into a fresh slice, touching
// every covered line.
func (x *Accessor) ReadBytes(a mem.Addr, n int) []byte {
	out := make([]byte, n)
	x.lines(a, n, false)
	x.m.store.ReadInto(a, out)
	return out
}

// WriteBytes writes b starting at a, touching every covered line.
func (x *Accessor) WriteBytes(a mem.Addr, b []byte) {
	x.lines(a, len(b), true)
	x.m.store.WriteBytes(a, b)
}

// lines accesses each line of [a, a+n): the first as a demand access,
// the rest streamed. A zero-length range touches no line.
func (x *Accessor) lines(a mem.Addr, n int, write bool) {
	if n <= 0 {
		return
	}
	first := mem.LineOf(a)
	for la := first; la < a+mem.Addr(n); la += mem.LineSize {
		x.m.accessEx(x.th, x.core, x.tx, la, write, la != first)
	}
}

// accessEx is the heart of the machine: one load or store by core,
// inside transaction tx (nil for non-transactional accesses). It
// performs, in order: TSS abort-flag check, staged conflict detection
// and resolution (which may unwind self or roll back victims), the
// cache-hierarchy walk with latency accounting and eviction/overflow
// handling, and footprint tracking (directory Tx-fields, signatures,
// undo capture). Streamed misses (bulk value transfers behind
// prefetchers) charge bandwidth cost instead of miss latency;
// detection and cache state are the same as for a demand access.
func (m *Machine) accessEx(th *sim.Thread, core int, tx *Tx, a mem.Addr, write, streamed bool) {
	m.syncCount[core]++
	if m.syncCount[core] >= m.opts.SyncEvery {
		m.syncCount[core] = 0
		th.Sync()
	}
	if tx != nil {
		tx.checkAbortFlag()
	}
	la := mem.LineOf(a)
	if mem.InLogArea(la) {
		panic(fmt.Sprintf("core: software access to reserved log area %#x", uint64(la)))
	}

	llcResident := m.llc.Contains(la) || m.l1[core].Contains(la)

	// --- Conflict detection (Section IV-D) ---
	var victims []victim
	selfID := uint64(0)
	var domain = -1
	if tx != nil {
		selfID = tx.id
		domain = tx.domain
	} else if c := m.ntDomain(core); c >= 0 {
		domain = c
	}

	// On-chip: the directory is authoritative and precise.
	if m.usesDirectory() {
		var dcs []coherence.Conflict
		if write {
			dcs = m.dir.CheckWrite(la, selfID)
		} else {
			dcs = m.dir.CheckRead(la, selfID)
		}
		for _, c := range dcs {
			if v := m.txByID(c.With); v != nil {
				victims = append(victims, victim{tx: v, cause: stats.CauseTrueConflict})
			}
		}
	}

	// Off-chip: address signatures (or precise sets for Ideal).
	probe := false
	switch m.opts.Detect {
	case DetectSignatureOnly:
		probe = true // all coherence traffic reaches the signatures
	case DetectStaged, DetectIdeal:
		// Only LLC-missed requests reach the memory-bus signatures,
		// plus lines whose directory entry carries the sticky
		// check-signatures bit (set when a fill matched a signature).
		probe = !llcResident || m.stickyHas(la)
	}
	if probe {
		vs, matched := m.probeOffChip(core, la, tx, write, m.probeScope(domain))
		victims = append(victims, vs...)
		if matched && !llcResident {
			m.stickySet(la)
		}
	}

	// --- Conflict resolution (Table II) ---
	if len(victims) > 0 {
		onChip := llcResident
		m.resolve(tx, victims, onChip)
	}

	// Ground truth: after resolution, no other live transaction that
	// shares data may still hold a conflicting footprint on this line.
	if m.opts.Paranoid {
		m.paranoidCheck(tx, la, write)
	}

	// --- Cache walk ---
	m.walk(th, core, la, tx, write, streamed)

	// A capacity overflow of the requester's own footprint during the
	// walk marks its TSS flag; unwind before recording the access.
	if tx != nil {
		tx.checkAbortFlag()
	}

	// --- Footprint tracking ---
	if tx != nil {
		m.track(tx, la, write)
	}
}

// usesDirectory reports whether the configured detection consults the
// coherence directory (all schemes except pure signature checking).
func (m *Machine) usesDirectory() bool {
	return m.opts.Detect != DetectSignatureOnly
}

// ntDomain returns the conflict domain of non-transactional accesses
// from a core, or -1 when none was registered.
func (m *Machine) ntDomain(core int) int {
	if core < len(m.coreDomain) {
		return m.coreDomain[core]
	}
	return -1
}

// probeScope returns, in core order, the transactions whose signatures
// an off-chip request from domain consults: live and not serialized (a
// slow-path transaction cannot conflict within its domain). Scope
// follows the isolation option: with isolation only same-domain
// signatures are in it; without it, every signature in the machine is
// (the consolidated-environment false-conflict source the optimization
// removes). The slice is a reusable buffer, valid until the next call.
func (m *Machine) probeScope(domain int) []*Tx {
	out := m.scopeScratch[:0]
	for _, t := range m.activeInOrder() {
		if !t.slowPath && (!m.opts.Isolation || t.domain == domain) {
			out = append(out, t)
		}
	}
	m.scopeScratch = out
	return out
}

// probeOffChip checks the request against the signatures of scope
// (probeScope of the request's domain, possibly computed once for a
// batch of requests), skipping the requester's own. It returns
// conflicting victims and whether any signature matched at all (for
// the sticky bit).
func (m *Machine) probeOffChip(core int, la mem.Addr, tx *Tx, write bool, scope []*Tx) ([]victim, bool) {
	var out []victim
	matched := false
	reqID := uint64(0)
	if tx != nil {
		reqID = tx.id
	}
	// Every filter has Options.SigBits bits, so one key serves them all.
	key := signature.NewKey(la, m.opts.SigBits)
	for _, other := range scope {
		if tx != nil && other.id == tx.id {
			continue
		}
		other.domainStats.SigChecks++
		var conflict, hit bool
		if m.opts.Detect == DetectIdeal {
			// Perfect detection: the precise footprint decides. Any
			// membership is sticky: a read that hits another
			// transaction's read-set is not a conflict, but the line must
			// keep being checked once resident (a later write would be).
			conflict, hit = other.sigConflict(la, write)
		} else {
			// Same sticky rule at filter granularity: read-filter hits on
			// a read request set the check bit without aborting anyone.
			conflict, hit = other.sig.Probe(&key, write)
		}
		matched = matched || hit
		// One rule labels every conflict: true when the precise
		// footprint confirms it, a false positive otherwise.
		var verdict uint64 // trace: 0 none, 1 true, 2 false positive
		if conflict {
			cause := stats.CauseFalsePositive
			verdict = 2
			if precise, _ := other.sigConflict(la, write); precise {
				cause, verdict = stats.CauseTrueConflict, 1
			}
			out = append(out, victim{tx: other, cause: cause})
		}
		if r := m.sigRef; r != nil {
			r.probed(tx, other, la, write, verdict, hit)
		}
		m.emit(trace.EvSigProbe, core, reqID, la, verdict, other.id)
	}
	return out, matched
}

// activeInOrder returns live transactions in core order. Conflict
// victims are collected, aborted and traced in this order, so it fixes
// which transaction a multi-victim probe aborts first — the figure
// goldens depend on it. The returned slice is a snapshot: callers may
// abort (and so retire) transactions while iterating it.
func (m *Machine) activeInOrder() []*Tx {
	out := m.activeScratch[:0]
	for w, word := range m.activeCores {
		for word != 0 {
			core := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if t := m.byCore[core]; t != nil && !t.finished {
				out = append(out, t)
			}
		}
	}
	m.activeScratch = out
	return out
}

// setActive records whether core runs an unfinished transaction.
func (m *Machine) setActive(core int, on bool) {
	if on {
		m.activeCores[core>>6] |= 1 << (core & 63)
	} else {
		m.activeCores[core>>6] &^= 1 << (core & 63)
	}
}

// resolve applies Table II: if exactly one side overflowed, the
// non-overflowed side aborts; otherwise requester-wins on-chip and
// requester-aborts off-chip. Non-transactional requesters and slow-path
// transactions never abort. If the requester must abort it unwinds here;
// otherwise every victim is rolled back in place.
func (m *Machine) resolve(tx *Tx, victims []victim, onChip bool) {
	selfAbort := false
	var selfCause stats.AbortCause
	var enemy *Tx // the victim that wins against the requester
	for _, v := range victims {
		if v.tx.slowPath {
			// The lock holder never aborts; a (cross-domain
			// false-positive) conflict with it aborts the requester.
			if tx != nil && !tx.slowPath {
				selfAbort, selfCause, enemy = true, v.cause, v.tx
				break
			}
			continue
		}
		if tx == nil || tx.slowPath {
			continue // requester cannot abort; victim will
		}
		reqOvf := tx.status.overflowed
		vicOvf := v.tx.status.overflowed
		switch {
		case vicOvf && !reqOvf:
			selfAbort, selfCause, enemy = true, v.cause, v.tx
		case reqOvf && !vicOvf:
			// victim aborts
		case m.opts.Aging: // ablation: the younger transaction aborts
			if tx.id > v.tx.id {
				selfAbort, selfCause, enemy = true, v.cause, v.tx
			}
		default: // none or both overflowed
			if !onChip {
				// requester-aborts (no extra inter-processor traffic)
				selfAbort, selfCause, enemy = true, v.cause, v.tx
			}
			// on-chip: requester-wins → victim aborts
		}
		if selfAbort {
			break
		}
	}
	if selfAbort {
		tx.unwind(selfCause, enemy.id, enemy.core)
	}
	for _, v := range victims {
		if v.tx.status.abortFlag || v.tx.slowPath {
			continue // already marked this round / unabortable
		}
		m.abortVictim(v.tx, v.cause, tx)
	}
}

// abortVictim marks v aborted in the TSS, performs its rollback (the
// hardware abort protocol runs regardless of whether v's thread is
// scheduled — Section IV-E's context-switch handling), and charges the
// rollback latency to v's core. v's thread observes the flag at its next
// transactional operation and unwinds. enemy is the transaction whose
// conflict caused the abort (nil when none exists, e.g. a
// non-transactional requester or a lock acquisition).
func (m *Machine) abortVictim(v *Tx, cause stats.AbortCause, enemy *Tx) {
	v.status.abortFlag = true
	v.status.abortCause = cause
	if enemy != nil {
		v.status.abortEnemy = enemy.id
		v.status.abortEnemyCore = enemy.core
	} else {
		v.status.abortEnemy = 0
		v.status.abortEnemyCore = -1
	}
	cost := m.rollback(v)
	v.th.Bump(cost)
}

// paranoidCheck panics if ground truth says a conflicting footprint
// survived detection — the simulator's safety net for the staged scheme.
func (m *Machine) paranoidCheck(tx *Tx, la mem.Addr, write bool) {
	for _, other := range m.activeInOrder() {
		if other.slowPath || (tx != nil && other.id == tx.id) {
			continue
		}
		if other.status.abortFlag {
			continue // already aborted, footprint dead
		}
		of := other.flagsOf(la)
		if of&fWrite != 0 || (write && of&fRead != 0) {
			reqID := uint64(0)
			if tx != nil {
				reqID = tx.id
			}
			panic(fmt.Sprintf("core: missed conflict on %#x between requester tx %d and tx %d (detect=%v, resident=%v, sticky=%v, otherOvf=%v, otherWsig=%v)",
				uint64(la), reqID, other.id, m.opts.Detect,
				m.llc.Contains(la), m.stickyHas(la), other.status.overflowed,
				other.sig.Write.MayContain(la)))
		}
	}
}

// walk models the two-level hierarchy plus hybrid memory: L1 → LLC →
// (DRAM | DRAM-cache | NVM), charging Table III latencies and letting
// fills evict (which feeds the overflow machinery).
func (m *Machine) walk(th *sim.Thread, core int, la mem.Addr, tx *Tx, write, streamed bool) {
	cfg := m.cfg
	txid := uint64(0)
	if tx != nil {
		txid = tx.id
	}
	lat := cfg.L1Latency
	if !m.l1[core].Lookup(la) {
		lat += cfg.LLCLatency
		if m.llc.Lookup(la) {
			m.l1[core].Insert(la)
		} else if streamed {
			// Bulk transfer: the prefetcher hides the miss latency; the
			// line costs bandwidth only.
			lat = cfg.L1Latency + m.lat.StreamLine
			m.dcache.Lookup(la) // keep DRAM-cache LRU state honest
			m.llc.Insert(la)
			m.l1[core].Insert(la)
			m.emit(trace.EvMemFill, core, txid, la, trace.MemStreamed, uint64(m.lat.StreamLine))
		} else {
			// Memory access.
			var fillLat sim.Time
			src := uint64(trace.MemNVM)
			switch {
			case mem.KindOf(la) == mem.DRAM:
				fillLat = cfg.DRAMLatency
				// Lazy (redo) DRAM versioning pays a log indirection to
				// find the new value of an overflowed line (Fig. 4b).
				if m.opts.DRAMLog == DRAMRedo && tx != nil {
					if tx.flagsOf(la)&fOvfDRAM != 0 {
						fillLat += cfg.DRAMLatency
					}
				}
				src = trace.MemDRAM
			case !m.opts.NoDRAMCache && m.dcache.Lookup(la):
				fillLat = cfg.DRAMLatency // early-evicted block: DRAM speed
				src = trace.MemDRAMCache
			default:
				fillLat = cfg.NVMReadLatency
			}
			lat += fillLat
			m.llc.Insert(la)
			m.l1[core].Insert(la)
			m.emit(trace.EvMemFill, core, txid, la, src, uint64(fillLat))
		}
	}
	if write {
		m.l1[core].MarkDirty(la)
		m.llc.MarkDirty(la) // keep LLC aware for write-back modeling
	}
	th.Advance(lat)
	m.drainEvictions(tx)
}

// onL1Evict handles an L1 victim: dirty lines write back into the LLC,
// and L1-evicted lines of a transaction's write-set go to its overflow
// list (Section IV-B, "locating the write-set").
func (m *Machine) onL1Evict(core int, e cache.Eviction) {
	// If the LLC has just chosen this same line as its own victim (still
	// queued for drainEvictions), re-inserting it would resurrect it
	// on-chip AFTER the drain surrenders its directory entry — leaving a
	// resident line tracked only by an off-chip signature that resident
	// accesses never probe: an undetectable conflict window. The drain's
	// overflow handling owns the line now; drop the L1 writeback.
	if m.evictionPending(e.Addr) {
		return
	}
	if !m.llc.Contains(e.Addr) {
		m.llc.Insert(e.Addr)
	}
	if e.Dirty {
		m.llc.MarkDirty(e.Addr)
	}
	if owner, _ := m.dir.TxInfo(e.Addr); owner != 0 {
		if t := m.txByID(owner); t != nil {
			p, o := t.slot(e.Addr)
			if p.flags[o]&fOvfList == 0 {
				p.flags[o] |= fOvfList
				t.ovfListCount++
			}
		}
	}
}

// onLLCEvict queues the victim; overflow handling runs after the current
// fill completes (drainEvictions) to keep cache internals reentrant-free.
func (m *Machine) onLLCEvict(e cache.Eviction) {
	m.pendingEvicts = append(m.pendingEvicts, e)
}

// evictionPending reports whether la is an LLC victim queued for
// drainEvictions — already off-chip for tracking purposes.
func (m *Machine) evictionPending(la mem.Addr) bool {
	for _, e := range m.pendingEvicts[m.evictHead:] {
		if e.Addr == la {
			return true
		}
	}
	return false
}

// invalidateL1s drops every L1 copy of line la. The shared presence
// filter turns the common all-absent case into one counter read instead
// of a way scan per L1.
func (m *Machine) invalidateL1s(la mem.Addr) {
	if m.l1Presence.MaybeContains(la) {
		for _, l1 := range m.l1 {
			l1.Invalidate(la)
		}
	}
}

// drainEvictions processes queued LLC victims: inclusive invalidation of
// L1 copies, write-back of dirty data, and the transaction-overflow
// machinery of Section IV-B. A stream victim (see PolluteLLC) has no L1
// copy, no directory state and no dirty data, so it only emits its
// trace event.
func (m *Machine) drainEvictions(requester *Tx) {
	for m.evictHead < len(m.pendingEvicts) {
		e := m.pendingEvicts[m.evictHead]
		m.evictHead++
		la := e.Addr
		if e.Stream {
			if m.opts.Paranoid {
				m.checkStreamVictim(la)
			}
			if m.tr != nil {
				m.emit(trace.EvLLCEvict, -1, 0, la, 0, 0)
			}
			continue
		}
		m.invalidateL1s(la) // inclusive LLC: drop L1 copies
		owner, sharers := m.dir.SurrenderLine(la)
		if m.tr != nil {
			var dirty uint64
			if e.Dirty {
				dirty = 1
			}
			m.emit(trace.EvLLCEvict, -1, owner, la, dirty, 0)
		}
		// Non-transactional dirty write-back.
		if e.Dirty && owner == 0 {
			if mem.KindOf(la) == mem.NVM {
				// Non-transactional NVM data drains through the DRAM
				// cache (immediately eligible).
				m.dcache.Insert(la, 0)
			}
			// DRAM data: the live image is already current.
		}
		for _, sh := range sharers {
			if t := m.txByID(sh); t != nil && !t.status.abortFlag {
				m.overflowRead(t, la, requester)
			}
		}
		if owner != 0 {
			if t := m.txByID(owner); t != nil && !t.status.abortFlag {
				m.overflowWrite(t, la, requester)
			}
		}
	}
	// Fully drained: rewind the queue so its capacity is reused.
	m.pendingEvicts = m.pendingEvicts[:0]
	m.evictHead = 0
}

// checkStreamVictim panics if stream victim la has an L1 copy or
// directory state: the drain skipped the work either would need.
func (m *Machine) checkStreamVictim(la mem.Addr) {
	for core, l1 := range m.l1 {
		if l1.Contains(la) {
			panic(fmt.Sprintf("core: stream victim %#x is in core %d's L1", uint64(la), core))
		}
	}
	if owner, sharers := m.dir.TxInfo(la); owner != 0 || len(sharers) > 0 {
		panic(fmt.Sprintf("core: stream victim %#x has directory state (owner %d, sharers %v)", uint64(la), owner, sharers))
	}
}

// overflowRead moves a transactional read of la from directory tracking
// to t's read signature (or aborts t under the LLC-bounded scheme).
// Serialized transactions exceed the LLC freely — that is the point of
// the slow path — and need no conflict tracking.
func (m *Machine) overflowRead(t *Tx, la mem.Addr, requester *Tx) {
	if t.slowPath {
		return
	}
	if m.opts.Detect == DetectLLCBounded {
		m.capacityAbort(t, requester)
		return
	}
	m.markOverflowed(t)
	p, o := t.slot(la)
	t.addSig(p, o, la, false)
}

// overflowWrite moves a transactional write of la off-chip: into the
// write signature, plus the hybrid version management — DRAM lines are
// undo-logged (old value) before the in-place update becomes the only
// on-DRAM copy; NVM lines land in the DRAM cache as early-evicted
// blocks.
func (m *Machine) overflowWrite(t *Tx, la mem.Addr, requester *Tx) {
	if t.slowPath {
		// No conflict tracking, but uncommitted NVM data still must not
		// bypass the DRAM cache on its way off-chip.
		if mem.KindOf(la) == mem.NVM {
			m.dcache.Insert(la, t.id)
		}
		return
	}
	if m.opts.Detect == DetectLLCBounded {
		m.capacityAbort(t, requester)
		return
	}
	m.markOverflowed(t)
	p, o := t.slot(la)
	t.addSig(p, o, la, true)
	if p.flags[o]&fOvfDRAM != 0 {
		return
	}
	switch mem.KindOf(la) {
	case mem.DRAM:
		p.flags[o] |= fOvfDRAM
		t.ovfDRAMCount++
		if m.opts.DRAMLog == DRAMUndo {
			var old mem.Line
			if p.flags[o]&fUndo != 0 {
				old = t.undo[p.undoIdx[o]].img
			}
			m.undoRings.ForCore(t.core).Append(walWrite(t.id, la, old))
		}
		// DRAMRedo: the new value notionally stays in the log; reads pay
		// the indirection in walk and commit pays the copy-back.
	case mem.NVM:
		m.dcache.Insert(la, t.id)
	}
}

// capacityAbort implements the LLC-bounded scheme's response to a
// transactional line leaving the LLC. When the overflowing transaction
// is the requester itself the unwind is deferred to the end of the walk
// via its own TSS flag (the access path re-checks it).
func (m *Machine) capacityAbort(t *Tx, requester *Tx) {
	if !t.status.overflowed {
		t.domainStats.Overflows++
		m.stats.Overflows++
		m.emit(trace.EvTxOverflow, t.core, t.id, 0, 0, 0)
	}
	t.status.overflowed = true
	if t == requester {
		t.status.abortFlag = true
		t.status.abortCause = stats.CauseCapacity
		t.status.abortEnemy = 0
		t.status.abortEnemyCore = -1
		return
	}
	m.abortVictim(t, stats.CauseCapacity, requester)
}

// markOverflowed sets the TSS overflow bit (first time) and counts it.
func (m *Machine) markOverflowed(t *Tx) {
	if !t.status.overflowed {
		t.status.overflowed = true
		t.domainStats.Overflows++
		m.stats.Overflows++
		m.emit(trace.EvTxOverflow, t.core, t.id, 0, 0, 0)
	}
}

// track records the access in the directory Tx-fields, the precise
// footprint, undo images for writes, and — under signature-only
// detection — the signatures themselves. Slow-path transactions also use
// directory tracking: their write-set must stay identifiable so that an
// eviction routes uncommitted NVM lines into the DRAM cache (not
// straight to durable NVM) — failure-atomicity holds for the serialized
// path too.
func (m *Machine) track(tx *Tx, la mem.Addr, write bool) {
	if m.tr != nil {
		k := trace.EvTxRead
		if write {
			k = trace.EvTxWrite
		}
		m.emit(k, tx.core, tx.id, la, 0, 0)
	}
	if write {
		p, o := tx.slot(la)
		if p.flags[o]&fUndo == 0 {
			p.flags[o] |= fUndo
			p.undoIdx[o] = int32(len(tx.undo))
			tx.undo = append(tx.undo, undoEnt{la: la, img: m.store.PeekLine(la)})
		}
		if p.flags[o]&fWrite == 0 {
			p.flags[o] |= fWrite
			tx.writeList = append(tx.writeList, la)
		}
		if mem.KindOf(la) == mem.NVM && p.flags[o]&fNVMWrite == 0 {
			p.flags[o] |= fNVMWrite
			tx.nvmList = append(tx.nvmList, la)
		}
		if m.usesDirectory() || tx.slowPath {
			m.dir.AddWrite(la, tx.id)
		}
		if m.opts.Detect == DetectSignatureOnly && !tx.slowPath {
			tx.addSig(p, o, la, true)
		}
	} else {
		p, o := tx.slot(la)
		if p.flags[o]&fRead == 0 {
			p.flags[o] |= fRead
			tx.readCount++
		}
		if m.usesDirectory() || tx.slowPath {
			m.dir.AddRead(la, tx.id)
		}
		if m.opts.Detect == DetectSignatureOnly && !tx.slowPath {
			tx.addSig(p, o, la, false)
		}
	}
}

// stickyHas reports whether la carries the sticky check-signatures bit.
func (m *Machine) stickyHas(la mem.Addr) bool {
	if !m.stickyAny {
		return false
	}
	idx := mem.LineIndex(la)
	p := m.stickyPages[idx>>mem.PageShift]
	return p != nil && p.gen[idx&(mem.PageLines-1)] == m.stickyGen
}

// stickySet marks a line as requiring signature checks while on-chip.
func (m *Machine) stickySet(la mem.Addr) {
	idx := mem.LineIndex(la)
	p := m.stickyPages[idx>>mem.PageShift]
	if p == nil {
		p = new(stickyPage)
		m.stickyPages[idx>>mem.PageShift] = p
	}
	p.gen[idx&(mem.PageLines-1)] = m.stickyGen
	m.stickyAny = true
}
