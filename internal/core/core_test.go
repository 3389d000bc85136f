package core

import (
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
)

// testConfig shrinks the hierarchy so capacity effects are reachable in
// unit tests: 2 KB L1s, a 64 KB LLC (1024 lines), 4 cores.
func testConfig() mem.Config {
	c := mem.DefaultConfig()
	c.Cores = 4
	c.L1Size = 2 << 10
	c.LLCSize = 64 << 10
	c.DRAMCacheSize = 128 << 10
	return c
}

func newTestMachine(opts Options) (*sim.Engine, *Machine) {
	eng := sim.NewEngine(1)
	return eng, NewMachine(eng, testConfig(), opts)
}

func TestSingleTxCommit(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	d := mem.NewAllocator(mem.DRAM)
	n := mem.NewAllocator(mem.NVM)
	da, na := d.AllocLines(1), n.AllocLines(1)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(da, 41)
			tx.WriteU64(na, 42)
			if got := tx.ReadU64(da); got != 41 {
				t.Errorf("read-own-write DRAM = %d", got)
			}
		})
	})
	eng.Run()
	if m.store.ReadU64(da) != 41 || m.store.ReadU64(na) != 42 {
		t.Error("committed values missing")
	}
	s := m.Stats()
	if s.Commits != 1 || s.Aborts() != 0 {
		t.Errorf("stats = %v", s)
	}
}

func TestExplicitAbortRetries(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(1)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() == 0 {
				tx.WriteU64(a, 999) // must be rolled back
				tx.Abort()
			}
			if got := tx.ReadU64(a); got != 0 {
				t.Errorf("aborted write leaked: %d", got)
			}
			tx.WriteU64(a, 7)
		})
	})
	eng.Run()
	if m.store.ReadU64(a) != 7 {
		t.Errorf("final = %d", m.store.ReadU64(a))
	}
	s := m.Stats()
	if s.Commits != 1 || s.AbortsBy[stats.CauseExplicit] != 1 {
		t.Errorf("stats = %v", s)
	}
}

// TestConcurrentCounter is the fundamental atomicity test: two threads
// increment a shared counter transactionally; the final value must equal
// the number of commits (no lost updates, no double-applied retries).
func TestConcurrentCounter(t *testing.T) {
	for _, det := range []Detection{DetectLLCBounded, DetectSignatureOnly, DetectStaged, DetectIdeal} {
		det := det
		t.Run(det.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Detect = det
			eng, m := newTestMachine(opts)
			al := mem.NewAllocator(mem.NVM)
			ctr := al.AllocLines(1)
			const perThread = 50
			for i := 0; i < 2; i++ {
				eng.Spawn("inc", func(th *sim.Thread) {
					c := m.NewCtx(th, 0)
					for k := 0; k < perThread; k++ {
						c.Run(func(tx *Tx) {
							v := tx.ReadU64(ctr)
							tx.WriteU64(ctr, v+1)
						})
					}
				})
			}
			eng.Run()
			if got := m.store.ReadU64(ctr); got != 2*perThread {
				t.Errorf("counter = %d, want %d (stats %v)", got, 2*perThread, m.Stats())
			}
			if m.Stats().Commits != 2*perThread {
				t.Errorf("commits = %d", m.Stats().Commits)
			}
		})
	}
}

// TestConflictClassifiedTrue checks a genuine collision is recorded as a
// true conflict.
func TestConflictClassifiedTrue(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.DRAM)
	a := al.AllocLines(1)
	// Thread 0 holds a long transaction writing a; thread 1 collides.
	eng.Spawn("holder", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(a, 1)
			th.Advance(10 * sim.Microsecond) // stay open
			tx.ReadU64(a + 8)
		})
	})
	eng.Spawn("attacker", func(th *sim.Thread) {
		th.Advance(1 * sim.Microsecond) // start inside holder's window
		c := m.NewCtx(th, 1)
		_ = c
		c2 := m.NewCtx(th, 0) // same domain: shared data
		c2.Run(func(tx *Tx) {
			tx.WriteU64(a, 2)
		})
	})
	eng.Run()
	total := m.Stats().AbortsBy[stats.CauseTrueConflict]
	if total == 0 {
		t.Errorf("no true-conflict abort recorded: %v", m.Stats())
	}
}

// TestCapacityAbortAndSlowPath: under the LLC-bounded scheme a
// transaction larger than the LLC aborts with a capacity overflow and
// completes via the serialized slow path, exactly once, without retries.
func TestCapacityAbortAndSlowPath(t *testing.T) {
	opts := DefaultOptions()
	opts.Detect = DetectLLCBounded
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.NVM)
	lines := 3000 // 3000 lines ≫ 1024-line LLC
	base := al.AllocLines(lines)
	eng.Spawn("big", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := 0; i < lines; i++ {
				tx.WriteU64(base+mem.Addr(i)*mem.LineSize, uint64(i))
			}
		})
	})
	eng.Run()
	s := m.Stats()
	if s.AbortsBy[stats.CauseCapacity] != 1 {
		t.Errorf("capacity aborts = %d, want 1 (no retry on capacity)", s.AbortsBy[stats.CauseCapacity])
	}
	if s.SlowPath != 1 || s.Commits != 1 {
		t.Errorf("slow=%d commits=%d", s.SlowPath, s.Commits)
	}
	// Data committed via the slow path.
	for i := 0; i < lines; i += 517 {
		if got := m.store.ReadU64(base + mem.Addr(i)*mem.LineSize); got != uint64(i) {
			t.Fatalf("line %d = %d", i, got)
		}
	}
}

// TestUnboundedSurvivesOverflow: the same footprint commits on the fast
// path under staged detection, with the TSS overflow bit set.
func TestUnboundedSurvivesOverflow(t *testing.T) {
	for _, det := range []Detection{DetectStaged, DetectIdeal} {
		det := det
		t.Run(det.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Detect = det
			eng, m := newTestMachine(opts)
			al := mem.NewAllocator(mem.NVM)
			lines := 3000
			base := al.AllocLines(lines)
			overflowed := false
			eng.Spawn("big", func(th *sim.Thread) {
				c := m.NewCtx(th, 0)
				c.Run(func(tx *Tx) {
					for i := 0; i < lines; i++ {
						tx.WriteU64(base+mem.Addr(i)*mem.LineSize, uint64(i)+1)
					}
					overflowed = tx.Overflowed()
				})
			})
			eng.Run()
			s := m.Stats()
			if s.Commits != 1 || s.AbortsBy[stats.CauseCapacity] != 0 || s.SlowPath != 0 {
				t.Errorf("stats = %v", s)
			}
			if !overflowed {
				t.Error("overflow bit not set")
			}
			for i := 0; i < lines; i += 331 {
				if got := m.store.ReadU64(base + mem.Addr(i)*mem.LineSize); got != uint64(i)+1 {
					t.Fatalf("line %d = %d", i, got)
				}
			}
		})
	}
}

// TestOverflowAbortRollsBackOffChipLines: an overflowed transaction that
// aborts must restore LLC-evicted DRAM lines from the undo log.
func TestOverflowAbortRollsBackOffChipLines(t *testing.T) {
	opts := DefaultOptions()
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	lines := 3000
	base := al.AllocLines(lines)
	// Pre-fill with a pattern.
	for i := 0; i < lines; i++ {
		m.store.WriteU64(base+mem.Addr(i)*mem.LineSize, 0xABC)
	}
	eng.Spawn("big", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() == 0 {
				for i := 0; i < lines; i++ {
					tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 0xDEAD)
				}
				tx.Abort()
			}
			// Second attempt: everything must read the original pattern.
			for i := 0; i < lines; i += 97 {
				if got := tx.ReadU64(base + mem.Addr(i)*mem.LineSize); got != 0xABC {
					t.Fatalf("line %d = %#x after rollback", i, got)
				}
			}
		})
	})
	eng.Run()
}

// TestSlowPathAfterMaxRetries: persistent explicit aborts exhaust the
// fast path and the body completes serialized.
func TestSlowPathAfterMaxRetries(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxRetries = 3
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(1)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if !tx.SlowPath() {
				tx.Abort()
			}
			tx.WriteU64(a, 5)
		})
	})
	eng.Run()
	s := m.Stats()
	if s.SlowPath != 1 || s.Commits != 1 || s.AbortsBy[stats.CauseExplicit] != 3 {
		t.Errorf("stats = %v", s)
	}
	if m.store.ReadU64(a) != 5 {
		t.Error("slow-path write missing")
	}
}

// TestLockAcquisitionAbortsFastPath: a slow-path entry aborts running
// fast-path transactions in its domain (they "read the lock word").
func TestLockAcquisitionAbortsFastPath(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxRetries = 1
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	a, b := al.AllocLines(1), al.AllocLines(1)
	eng.Spawn("victim", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(a, 1)
			th.Advance(50 * sim.Microsecond) // long transaction
			tx.WriteU64(a+8, 2)
		})
	})
	eng.Spawn("serializer", func(th *sim.Thread) {
		th.Advance(2 * sim.Microsecond)
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if !tx.SlowPath() {
				tx.Abort() // exhaust the single retry → slow path
			}
			tx.WriteU64(b, 3)
		})
	})
	eng.Run()
	s := m.Stats()
	if s.AbortsBy[stats.CauseLock] == 0 {
		t.Errorf("no lock-cause abort: %v", s)
	}
	if s.Commits != 2 {
		t.Errorf("commits = %d", s.Commits)
	}
}

// TestNonTxAbortsConflictingTx: a non-transactional store to a line in a
// transaction's write-set aborts the transaction.
func TestNonTxAbortsConflictingTx(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.DRAM)
	a := al.AllocLines(1)
	eng.Spawn("tx", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(a, 10)
			th.Advance(10 * sim.Microsecond)
			tx.ReadU64(a + 8)
			tx.WriteU64(a, 11)
		})
	})
	eng.Spawn("nt", func(th *sim.Thread) {
		th.Advance(1 * sim.Microsecond)
		c := m.NewCtx(th, 0)
		c.NT().WriteU64(a, 99)
	})
	eng.Run()
	if m.Stats().AbortsBy[stats.CauseTrueConflict] == 0 {
		t.Errorf("transaction survived non-tx conflicting store: %v", m.Stats())
	}
	// Final value: the tx retried after the NT write and committed 11.
	if got := m.store.ReadU64(a); got != 11 {
		t.Errorf("final = %d", got)
	}
}

// TestLogAreaAccessPanics: software must not touch the reserved log
// areas.
func TestLogAreaAccessPanics(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		defer func() {
			if recover() == nil {
				t.Error("log-area access did not panic")
			}
		}()
		c.NT().ReadU64(mem.DRAMLogBase)
	})
	eng.Run()
}
