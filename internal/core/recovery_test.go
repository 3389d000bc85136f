package core

import (
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/wal"
)

// TestRecoveryDiscardsUncommitted: a power failure in the middle of a
// transaction leaves no trace of it after recovery.
func TestRecoveryDiscardsUncommitted(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(4)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := mem.Addr(0); i < 4; i++ {
				tx.WriteU64(a+i*mem.LineSize, 0xBAD)
			}
			th.Advance(sim.Millisecond) // crash lands here
			tx.ReadU64(a)
		})
	})
	eng.HaltAt(500 * sim.Microsecond)
	eng.Run()
	if !eng.Halted() {
		t.Fatal("engine did not halt")
	}
	m.Crash()
	st := m.Recover()
	if st.CommittedTx != 0 || st.AppliedLines != 0 {
		t.Errorf("replay stats = %+v, want nothing applied", st)
	}
	for i := mem.Addr(0); i < 4; i++ {
		if got := m.Store().ReadU64(a + i*mem.LineSize); got != 0 {
			t.Errorf("uncommitted write survived crash: line %d = %#x", i, got)
		}
	}
}

// TestRecoveryAppliesCommitted: a committed transaction survives a crash
// even though its in-place NVM data never drained.
func TestRecoveryAppliesCommitted(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(4)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := mem.Addr(0); i < 4; i++ {
				tx.WriteU64(a+i*mem.LineSize, uint64(0x1000+i))
			}
		})
	})
	eng.Run()
	// Nothing drained the write-set: in-place durable NVM is still
	// stale; only the log carries the committed values.
	m.Crash()
	st := m.Recover()
	if st.CommittedTx != 1 || st.AppliedLines != 4 {
		t.Errorf("replay stats = %+v", st)
	}
	for i := mem.Addr(0); i < 4; i++ {
		if got := m.Store().ReadU64(a + i*mem.LineSize); got != uint64(0x1000+i) {
			t.Errorf("line %d = %#x after recovery", i, got)
		}
	}
}

// TestRecoveryPairInvariant is the failure-atomicity sweep: transactions
// keep pairs of NVM lines equal; whenever the crash lands, recovery must
// restore a state where every pair is consistent.
func TestRecoveryPairInvariant(t *testing.T) {
	const pairs = 16
	for _, crashAt := range []sim.Time{
		50 * sim.Microsecond,
		200 * sim.Microsecond,
		500 * sim.Microsecond,
		900 * sim.Microsecond,
	} {
		eng, m := newTestMachine(DefaultOptions())
		al := mem.NewAllocator(mem.NVM)
		left := al.AllocLines(pairs)
		right := al.AllocLines(pairs)
		for i := 0; i < 2; i++ {
			eng.Spawn("w", func(th *sim.Thread) {
				c := m.NewCtx(th, 0)
				rng := eng.Rand()
				for k := 0; k < 200; k++ {
					c.Run(func(tx *Tx) {
						p := mem.Addr(rng.Intn(pairs)) * mem.LineSize
						v := tx.ReadU64(left+p) + 1
						tx.WriteU64(left+p, v)
						tx.WriteU64(right+p, v)
					})
				}
			})
		}
		eng.HaltAt(crashAt)
		eng.Run()
		m.Crash()
		m.Recover()
		for i := mem.Addr(0); i < pairs; i++ {
			l := m.Store().ReadU64(left + i*mem.LineSize)
			r := m.Store().ReadU64(right + i*mem.LineSize)
			if l != r {
				t.Errorf("crash@%v: pair %d torn after recovery: %d != %d", crashAt, i, l, r)
			}
		}
	}
}

// TestRecoveryAfterReclaim: once logs are reclaimed (with the committed
// images persisted in place), recovery with an empty log still yields
// the committed state.
func TestRecoveryAfterReclaim(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(8)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for k := 0; k < 8; k++ {
			k := k
			c.Run(func(tx *Tx) {
				tx.WriteU64(a+mem.Addr(k)*mem.LineSize, uint64(100+k))
			})
		}
	})
	eng.Run()
	m.ReclaimLogs()
	m.Crash()
	st := m.Recover()
	if st.AppliedLines != 0 {
		t.Errorf("replay applied %d lines from reclaimed logs", st.AppliedLines)
	}
	for k := 0; k < 8; k++ {
		if got := m.Store().ReadU64(a + mem.Addr(k)*mem.LineSize); got != uint64(100+k) {
			t.Errorf("line %d = %d after reclaim+crash", k, got)
		}
	}
}

// recoveryReplayMachine runs a fixed single-core load on a fresh
// machine: 64 transactions of 4 writes each over an 8-line NVM pool,
// with one fuzzy checkpoint (ReclaimLogs) after transaction 32, so a
// committed suffix stays on the redo ring. It returns the machine and
// the pool. BenchmarkRecoveryReplay times recovery of the same machine.
func recoveryReplayMachine() (*Machine, mem.Addr) {
	const txs = 64
	const writesPerTx = 4
	const poolLines = 8
	eng := sim.NewEngine(1)
	opts := DefaultOptions()
	opts.Paranoid = false
	mc := mem.DefaultConfig()
	mc.Cores = 1
	m := NewMachine(eng, mc, opts)
	pool := mem.NewAllocator(mem.NVM).AllocLines(poolLines)
	eng.Spawn("load", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for k := 0; k < txs; k++ {
			c.Run(func(tx *Tx) {
				for w := 0; w < writesPerTx; w++ {
					line := pool + mem.Addr((k*writesPerTx+w)%poolLines)*mem.LineSize
					tx.WriteU64(line, uint64(k))
				}
			})
			if k == txs/2 {
				m.ReclaimLogs()
			}
		}
	})
	eng.Run()
	return m, pool
}

// TestRecoveryReplayCheckpointedSuffix pins what recovery replays after
// a part-checkpointed load: exactly the 31 transactions committed after
// the checkpoint (124 lines) against low-water LSN 33, the same on every
// crash/recover cycle because replay does not consume the ring. A
// checkpoint that stops filtering, or a replay that stops applying,
// moves the count in one direction or the other.
func TestRecoveryReplayCheckpointedSuffix(t *testing.T) {
	m, pool := recoveryReplayMachine()
	for cycle := 0; cycle < 3; cycle++ {
		m.Crash()
		st := m.Recover()
		if st.AppliedLines != 124 || st.CheckpointLSN != 33 {
			t.Fatalf("cycle %d: recovery applied %d lines against checkpoint LSN %d, want 124 against 33",
				cycle, st.AppliedLines, st.CheckpointLSN)
		}
		// Transaction 63 wrote lines 4..7 last, transaction 62 lines 0..3.
		for l := 0; l < 8; l++ {
			want := uint64(62 + l/4)
			if got := m.Store().ReadU64(pool + mem.Addr(l)*mem.LineSize); got != want {
				t.Errorf("cycle %d: line %d = %d after recovery, want %d", cycle, l, got, want)
			}
		}
	}
	a := testing.AllocsPerRun(20, func() {
		m.Crash()
		m.Recover()
	})
	if a > recoveryReplayAllocCeiling {
		t.Errorf("crash+recover allocates %v times, want <= %d", a, recoveryReplayAllocCeiling)
	}
}

// recoveryReplayAllocCeiling bounds the heap allocations of one
// crash/recover cycle of recoveryReplayMachine: 147 measured, plus 25%
// and 64 for runtime and toolchain drift.
const recoveryReplayAllocCeiling = 247

// TestRecoveryOverwriteOrder: two committed transactions write the same
// line; recovery must surface the later value.
func TestRecoveryOverwriteOrder(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(1)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) { tx.WriteU64(a, 1) })
		c.Run(func(tx *Tx) { tx.WriteU64(a, 2) })
	})
	eng.Run()
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(a); got != 2 {
		t.Errorf("recovered %d, want 2 (later commit wins)", got)
	}
}

// TestDRAMIsVolatile: committed DRAM data does not survive a crash —
// durability is an NVM property only.
func TestDRAMIsVolatile(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	d := mem.NewAllocator(mem.DRAM)
	n := mem.NewAllocator(mem.NVM)
	da, na := d.AllocLines(1), n.AllocLines(1)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(da, 11)
			tx.WriteU64(na, 22)
		})
	})
	eng.Run()
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(da); got != 0 {
		t.Errorf("DRAM value %d survived crash", got)
	}
	if got := m.Store().ReadU64(na); got != 22 {
		t.Errorf("NVM value = %d after recovery", got)
	}
}

// TestRecoveryForgetsOrphanCommitMark: a power failure after a commit
// mark's bytes reach NVM but before the redo ring's control block
// advances leaves the mark outside the durable window, so recovery
// discards the unacknowledged transaction. Recovery must also reset the
// ring's head register to the durable control block: otherwise the
// next commit's control-block update publishes the orphan mark, and a
// second crash replays the transaction the first recovery dropped.
func TestRecoveryForgetsOrphanCommitMark(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	lost, kept := al.AllocLines(1), al.AllocLines(1)
	marked := false
	m.SetCrashpoint(func(p string) {
		switch {
		case p == PointCommitMark:
			marked = true
		case marked && p == "wal.redo."+wal.PointAppendCtrl:
			eng.HaltNow()
		}
	})
	eng.Spawn("lost", func(th *sim.Thread) {
		m.NewCtx(th, 0).Run(func(tx *Tx) { tx.WriteU64(lost, 0xb) })
	})
	eng.Run()
	if !eng.Halted() {
		t.Fatal("crash at the commit mark's control-block update never fired")
	}
	m.SetCrashpoint(nil)
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(lost); got != 0 {
		t.Fatalf("recovery 1 applied the unacknowledged transaction: line = %#x", got)
	}

	// Reboot and commit one more transaction on the same core, so it
	// appends to the ring that holds the orphan mark.
	eng.Restart()
	eng.Recycle()
	eng.Spawn("kept", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		if c.Core() != 0 {
			t.Errorf("post-crash transaction runs on core %d, want 0", c.Core())
		}
		c.Run(func(tx *Tx) { tx.WriteU64(kept, 1) })
	})
	eng.Run()
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(lost); got != 0 {
		t.Errorf("recovery 2 replayed the transaction recovery 1 dropped: line = %#x, want 0", got)
	}
	if got := m.Store().ReadU64(kept); got != 1 {
		t.Errorf("committed transaction lost: line = %d, want 1", got)
	}
}

// TestHaltAfterCrashLeavesSharedRingDurable: after a crash the live and
// durable images share their pages, and the redo rings write through
// them in place. A power failure at the persist of a commit mark's
// control-block update must still leave the mark outside the durable
// window, so the write-through may not change a shared line before the
// line's injection point fires; recovery then keeps the previous value.
func TestHaltAfterCrashLeavesSharedRingDurable(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	a := mem.NewAllocator(mem.NVM).AllocLines(1)
	commit := func(v uint64) {
		eng.Spawn("w", func(th *sim.Thread) {
			m.NewCtx(th, 0).Run(func(tx *Tx) { tx.WriteU64(a, v) })
		})
		eng.Run()
	}
	commit(1)
	m.Crash()
	m.Recover()

	stage := 0
	m.SetCrashpoint(func(p string) {
		switch {
		case p == PointCommitMark:
			stage = 1
		case stage == 1 && p == "wal.redo."+wal.PointAppendCtrl:
			stage = 2
		case stage == 2 && p == mem.PointPersistLine:
			eng.HaltNow()
		}
	})
	eng.Recycle()
	commit(2)
	if !eng.Halted() {
		t.Fatal("crash at the commit mark's control-block persist never fired")
	}
	m.SetCrashpoint(nil)
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(a); got != 1 {
		t.Errorf("line = %d after recovery, want 1: the halted control-block write reached the durable image", got)
	}
}
