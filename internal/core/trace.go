package core

import (
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// installTracer caches the engine's recorder on the machine and wires
// it into the subsystems that emit their own events: the store (NVM
// persists), both log-ring sets (appends/truncations), the DRAM cache
// (fills/drains/drops), and lookup hooks on the L1s and LLC (hit/miss
// events). Called from NewMachine when the engine carries a recorder;
// tracing is observational only — it must never change simulated state
// or timing.
func (m *Machine) installTracer(tr *trace.Recorder) {
	m.tr = tr
	now := func() int64 { return int64(m.eng.CurrentClock()) }
	m.store.SetTracer(tr, now)
	m.undoRings.SetTracer(tr, now)
	m.redoRings.SetTracer(tr, now)
	m.dcache.SetTracer(tr, now)
	for i := range m.l1 {
		core := i
		m.l1[i].SetLookupHook(func(a mem.Addr, hit bool) {
			k := trace.EvL1Miss
			if hit {
				k = trace.EvL1Hit
			}
			tr.Emit(now(), core, k, 0, uint64(a), 0, 0)
		})
	}
	m.llc.SetLookupHook(func(a mem.Addr, hit bool) {
		k := trace.EvLLCMiss
		if hit {
			k = trace.EvLLCHit
		}
		tr.Emit(now(), -1, k, 0, uint64(a), 0, 0)
	})
}

// TraceEvents returns the machine's recorded event stream, or nil when
// tracing is disabled.
func (m *Machine) TraceEvents() []trace.Event { return m.tr.Events() }

// emit records one machine-level event at the current virtual time. A
// no-op when tracing is disabled; hot paths should still pre-check
// m.tr != nil when computing arguments costs anything.
func (m *Machine) emit(k trace.Kind, core int, txid uint64, addr mem.Addr, arg, arg2 uint64) {
	if m.tr == nil {
		return
	}
	m.tr.Emit(int64(m.eng.CurrentClock()), core, k, txid, uint64(addr), arg, arg2)
}

// noteSigOccupancy samples an overflowed transaction's signature fill
// ratios as it finishes (commit or abort): the write-filter decile
// feeds the stats histogram, and both ratios go to the trace. Must run
// before the signatures are cleared.
func (m *Machine) noteSigOccupancy(tx *Tx) {
	wf := tx.sig.Write.FillRatio()
	rf := tx.sig.Read.FillRatio()
	b := int(wf * 10)
	if b > 9 {
		b = 9
	}
	tx.domainStats.SigOccupancy[b]++
	m.stats.SigOccupancy[b]++
	m.emit(trace.EvSigOccupancy, tx.core, tx.id, 0, uint64(wf*1e4), uint64(rf*1e4))
}

// noteAbort records one rollback's observability: the abort-chain depth
// bookkeeping (a victim whose enemy itself sits in a cascade goes one
// deeper than the enemy's chain), the signature-occupancy sample for
// overflowed attempts, and the abort event carrying cause and enemy.
func (m *Machine) noteAbort(tx *Tx) {
	st := tx.status
	depth := 1
	if st.abortEnemyCore >= 0 && st.abortEnemyCore < len(m.abortDepth) {
		if d := m.abortDepth[st.abortEnemyCore] + 1; d > depth {
			depth = d
		}
	}
	if depth > m.abortDepth[tx.core] {
		m.abortDepth[tx.core] = depth
	}
	if st.overflowed {
		m.noteSigOccupancy(tx)
	}
	m.emit(trace.EvTxAbort, tx.core, tx.id,
		mem.Addr(st.abortEnemyCore+1), uint64(st.abortCause), st.abortEnemy)
}

// noteCommitChain folds the core's accumulated abort-chain depth into
// the histogram at commit time and resets it.
func (m *Machine) noteCommitChain(tx *Tx, s *stats.Stats) {
	d := m.abortDepth[tx.core]
	m.abortDepth[tx.core] = 0
	b := d
	if b > 7 {
		b = 7
	}
	s.AbortChain[b]++
	m.stats.AbortChain[b]++
	if uint64(d) > s.AbortChainMax {
		s.AbortChainMax = uint64(d)
	}
	if uint64(d) > m.stats.AbortChainMax {
		m.stats.AbortChainMax = uint64(d)
	}
}

// noteSlowWait accounts virtual time a thread spent blocked on the
// domain's fallback lock — pausing before a fast-path attempt (acquire
// false) or acquiring the lock itself (acquire true).
func (m *Machine) noteSlowWait(c *Ctx, d sim.Time, acquire bool) {
	if d <= 0 {
		return
	}
	m.DomainStats(c.domain).SlowPathWait += d
	m.stats.SlowPathWait += d
	var a uint64
	if acquire {
		a = 1
	}
	m.emit(trace.EvSlowPathWait, c.core, 0, 0, uint64(d), a)
}
