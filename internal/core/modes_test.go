package core

import (
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
)

// TestDRAMRedoCorrectness runs an overflowing volatile transaction under
// lazy (redo) DRAM version management: abort must still roll back, a
// later commit must stick, and reads of overflowed lines must return
// the transaction's own writes (through the modeled log indirection).
func TestDRAMRedoCorrectness(t *testing.T) {
	opts := DefaultOptions()
	opts.DRAMLog = DRAMRedo
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	lines := 3000 // ≫ 1024-line LLC
	base := al.AllocLines(lines)
	for i := 0; i < lines; i++ {
		m.store.WriteU64(base+mem.Addr(i)*mem.LineSize, 7)
	}
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() == 0 {
				for i := 0; i < lines; i++ {
					tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 0xBAD)
				}
				tx.Abort()
			}
			// Rollback restored the pre-images.
			for i := 0; i < lines; i += 111 {
				if got := tx.ReadU64(base + mem.Addr(i)*mem.LineSize); got != 7 {
					t.Fatalf("line %d = %#x after redo-mode rollback", i, got)
				}
			}
			for i := 0; i < lines; i++ {
				tx.WriteU64(base+mem.Addr(i)*mem.LineSize, uint64(i))
			}
			// Read-own-writes through overflowed lines.
			if got := tx.ReadU64(base); got != 0 {
				t.Fatalf("read-own-write = %d", got)
			}
		})
	})
	eng.Run()
	for i := 0; i < lines; i += 97 {
		if got := m.store.ReadU64(base + mem.Addr(i)*mem.LineSize); got != uint64(i) {
			t.Fatalf("line %d = %d after commit", i, got)
		}
	}
	if m.Stats().Commits != 1 || m.Stats().Overflows == 0 {
		t.Errorf("stats = %v", m.Stats())
	}
}

// TestRedoCommitSlowerThanUndo: the Figure 10 mechanism in isolation —
// identical overflowing volatile transactions commit faster under undo
// logging (commit mark) than redo logging (copy-back per line).
func TestRedoCommitSlowerThanUndo(t *testing.T) {
	run := func(kind DRAMLogKind) sim.Time {
		opts := DefaultOptions()
		opts.DRAMLog = kind
		eng, m := newTestMachine(opts)
		al := mem.NewAllocator(mem.DRAM)
		lines := 3000
		base := al.AllocLines(lines)
		eng.Spawn("t", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for k := 0; k < 3; k++ {
				c.Run(func(tx *Tx) {
					for i := 0; i < lines; i++ {
						tx.WriteU64(base+mem.Addr(i)*mem.LineSize, uint64(k))
					}
				})
			}
		})
		return eng.Run()
	}
	undo, redo := run(DRAMUndo), run(DRAMRedo)
	if undo >= redo {
		t.Errorf("undo elapsed %v not faster than redo %v", undo, redo)
	}
}

// TestUndoLogRecordsOnEviction: LLC-evicted transactional DRAM lines
// append old-value records to the per-core undo ring, and commit
// reclaims them.
func TestUndoLogRecordsOnEviction(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.DRAM)
	lines := 3000
	base := al.AllocLines(lines)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := 0; i < lines; i++ {
				tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 1)
			}
			if m.undoRings.ForCore(0).Len() == 0 {
				t.Error("no undo records while overflowed")
			}
		})
	})
	eng.Run()
	ring := m.undoRings.ForCore(0)
	if ring.Appends == 0 {
		t.Error("undo ring never written")
	}
	if ring.Len() != 0 {
		t.Errorf("undo ring holds %d records after commit (not reclaimed)", ring.Len())
	}
}

// TestStickyRefetchSoundness reconstructs the staged-detection corner
// case: transaction A's read of X is evicted to its signature; another
// core re-fetches X on-chip; a *later* write to the now-resident line
// must still find A's signature (via the sticky check bit) and resolve
// the conflict. Paranoid mode would panic if the conflict were missed.
func TestStickyRefetchSoundness(t *testing.T) {
	opts := DefaultOptions() // paranoid on
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	x := al.AllocLines(1)
	filler := al.AllocLines(3000)
	phase := 0
	eng.Spawn("A", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() > 0 {
				return // aborted by the detected conflict: scenario over
			}
			tx.ReadU64(x) // X in A's read-set
			// Evict X by touching a huge range (A overflows, X moves to
			// A's read signature).
			for i := 0; i < 3000; i++ {
				tx.ReadU64(filler + mem.Addr(i)*mem.LineSize)
			}
			phase = 1
			// Hold the transaction open while B and C act.
			th.WaitUntil(func() bool { return phase == 3 || tx.status.abortFlag }, sim.Microsecond)
			tx.checkAbortFlag()
		})
	})
	eng.Spawn("B", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		th.WaitUntil(func() bool { return phase == 1 }, sim.Microsecond)
		c.NT().ReadU64(x) // refetches X on-chip (read vs read: no conflict)
		phase = 2
	})
	aborted := false
	eng.Spawn("C", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		th.WaitUntil(func() bool { return phase == 2 }, sim.Microsecond)
		c.Run(func(tx *Tx) {
			tx.WriteU64(x, 99) // LLC hit — must still probe A's signature
		})
		phase = 3
	})
	_ = aborted
	eng.Run()
	// The WAR conflict must have been detected: someone aborted.
	if m.Stats().Aborts() == 0 {
		t.Errorf("refetched-line write conflicted with nobody: %v", m.Stats())
	}
}

// TestAgingResolution: with age-based resolution the older transaction
// survives a symmetric conflict, and atomicity still holds under
// contention.
func TestAgingResolution(t *testing.T) {
	opts := DefaultOptions()
	opts.Aging = true
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	a := al.AllocLines(1)
	olderAborted := false
	eng.Spawn("older", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() > 0 {
				olderAborted = true
			}
			tx.WriteU64(a, 1)
			th.Advance(10 * sim.Microsecond)
			tx.ReadU64(a + 8)
		})
	})
	eng.Spawn("younger", func(th *sim.Thread) {
		th.Advance(1 * sim.Microsecond)
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(a, 2)
		})
	})
	eng.Run()
	if olderAborted {
		t.Error("aging policy aborted the older transaction")
	}
	if m.Stats().Commits != 2 || m.Stats().Aborts() == 0 {
		t.Errorf("stats = %v", m.Stats())
	}
	// The younger retried after the older committed: final value 2.
	if got := m.store.ReadU64(a); got != 2 {
		t.Errorf("final = %d", got)
	}
}

// TestAgingCounterAtomicity: the ablation policy preserves atomicity
// under a contended counter.
func TestAgingCounterAtomicity(t *testing.T) {
	opts := DefaultOptions()
	opts.Aging = true
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.NVM)
	ctr := al.AllocLines(1)
	for i := 0; i < 3; i++ {
		eng.Spawn("inc", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for k := 0; k < 30; k++ {
				c.Run(func(tx *Tx) {
					tx.WriteU64(ctr, tx.ReadU64(ctr)+1)
				})
			}
		})
	}
	eng.Run()
	if got := m.store.ReadU64(ctr); got != 90 {
		t.Errorf("counter = %d, want 90 (%v)", got, m.Stats())
	}
}

// TestNoDRAMCacheStillCorrect: disabling the DRAM cache is a latency
// ablation only; correctness (overflow, commit, recovery) is unchanged.
func TestNoDRAMCacheStillCorrect(t *testing.T) {
	opts := DefaultOptions()
	opts.NoDRAMCache = true
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.NVM)
	lines := 3000
	base := al.AllocLines(lines)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := 0; i < lines; i++ {
				tx.WriteU64(base+mem.Addr(i)*mem.LineSize, uint64(i))
			}
			// Re-read spilled lines (would hit the DRAM cache if present).
			for i := 0; i < lines; i += 97 {
				if got := tx.ReadU64(base + mem.Addr(i)*mem.LineSize); got != uint64(i) {
					t.Fatalf("line %d = %d", i, got)
				}
			}
		})
	})
	eng.Run()
	m.Crash()
	m.Recover()
	for i := 0; i < lines; i += 313 {
		if got := m.store.ReadU64(base + mem.Addr(i)*mem.LineSize); got != uint64(i) {
			t.Fatalf("line %d = %d after recovery", i, got)
		}
	}
}

// TestDRAMCacheReadLatency pins down the [28] substrate's latency
// benefit directly: a pointer-granularity read of an early-evicted
// (DRAM-cache-resident) NVM line costs DRAM latency with the cache and
// NVM read latency without it.
func TestDRAMCacheReadLatency(t *testing.T) {
	measure := func(noCache bool) sim.Time {
		opts := DefaultOptions()
		opts.NoDRAMCache = noCache
		eng, m := newTestMachine(opts)
		al := mem.NewAllocator(mem.NVM)
		lines := 3000
		base := al.AllocLines(lines)
		var delta sim.Time
		eng.Spawn("t", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			c.Run(func(tx *Tx) {
				for i := 0; i < lines; i++ {
					tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 1)
				}
			})
			// Probe a line that was evicted from the LLC (more than 1024
			// lines were written after it) but is recent enough to still
			// sit in the 2048-line test DRAM cache.
			probe := base + mem.Addr(lines-1300)*mem.LineSize
			before := th.Clock()
			c.NT().ReadU64(probe)
			delta = th.Clock() - before
		})
		eng.Run()
		return delta
	}
	with, without := measure(false), measure(true)
	cfg := testConfig()
	if with >= without {
		t.Errorf("DRAM-cache read (%v) not faster than NVM read (%v)", with, without)
	}
	if without-with != cfg.NVMReadLatency-cfg.DRAMLatency {
		t.Errorf("latency delta = %v, want %v (NVM read − DRAM)",
			without-with, cfg.NVMReadLatency-cfg.DRAMLatency)
	}
}

// TestNonIsolatedNTTrafficAbortsViaFalsePositive: without isolation, a
// foreign domain's non-transactional miss traffic can abort a saturated
// transaction through a signature false positive — the effect signature
// isolation removes (Section IV-D).
func TestNonIsolatedNTTrafficAbortsViaFalsePositive(t *testing.T) {
	opts := DefaultOptions()
	opts.SigBits = 512
	opts.Isolation = false
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	lines := 3000
	base := al.AllocLines(lines)
	foreign := al.AllocLines(512)
	saturated := false
	eng.Spawn("big", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() > 0 || tx.SlowPath() {
				return // aborted once: scenario complete
			}
			for i := 0; i < lines; i++ {
				tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 1)
			}
			saturated = true
			th.WaitUntil(func() bool { return tx.status.abortFlag }, sim.Microsecond)
			tx.checkAbortFlag() // unwinds with the FP cause
		})
	})
	eng.Spawn("foreign", func(th *sim.Thread) {
		c := m.NewCtx(th, 1) // different domain, non-transactional
		th.WaitUntil(func() bool { return saturated }, sim.Microsecond)
		for i := 0; i < 512; i++ {
			c.NT().ReadU64(foreign + mem.Addr(i)*mem.LineSize)
		}
	})
	eng.Run()
	if m.Stats().AbortsBy[stats.CauseFalsePositive] == 0 {
		t.Errorf("foreign NT traffic never false-positively aborted the saturated tx: %v", m.Stats())
	}
}
