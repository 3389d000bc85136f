package core

import (
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/wal"
)

// TestReclaimUnderSustainedCommitLoad is the liveness half of the
// reclamation-starvation fix: the old ReclaimLogs deferred wholesale
// whenever it observed any core mid-commit, so any schedule with
// overlapping commit windows could repeat the deferral until a redo
// ring filled and wal.Append panicked ("reclamation fell behind").
// Incremental reclamation never defers — the committed prefix below the
// low-water mark truncates on every pass — so tiny rings must survive a
// sustained all-core commit storm regardless of schedule, and a crash
// at the end must still recover the exact committed state. (The
// schedule-level discriminator against the old deferral is
// TestReclaimProgressWhileMidCommit below.)
func TestReclaimUnderSustainedCommitLoad(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	cfg := m.Config()
	// Shrink the redo rings so they would fill within a few dozen
	// commits per core without reclamation progress (the commit storm
	// below appends writesPerTx+1 records per commit). The undo rings
	// stay production-sized; they reclaim per transaction.
	const ringBytes = 8 << 10 // ~78 record slots per ring
	redoBase := mem.NVMLogBase + mem.LineSize + ckptRingBytes(cfg.Cores)
	m.redoRings = wal.NewRings(m.store, redoBase, mem.Addr(ringBytes*cfg.Cores), cfg.Cores, true)

	const txPerCore = 400
	const writesPerTx = 4
	al := mem.NewAllocator(mem.NVM)
	pools := make([]mem.Addr, cfg.Cores)
	for i := range pools {
		pools[i] = al.AllocLines(writesPerTx)
	}
	for core := 0; core < cfg.Cores; core++ {
		core := core
		eng.Spawn("w", func(th *sim.Thread) {
			// Stagger the cores so commit marks interleave across the
			// rings in global-LSN order rather than in lockstep waves —
			// the post-crash replay below then has to merge a non-aligned
			// LSN sequence from all four rings.
			th.Advance(sim.Time(core) * 977 * 1000)
			c := m.NewCtx(th, 0)
			for k := 0; k < txPerCore; k++ {
				k := k
				c.Run(func(tx *Tx) {
					for w := mem.Addr(0); w < writesPerTx; w++ {
						tx.WriteU64(pools[core]+w*mem.LineSize, uint64(core)<<32|uint64(k))
					}
				})
			}
		})
	}
	eng.Run() // a deferred pass would fill a ring and panic in here

	if got := int(m.Stats().Commits); got != cfg.Cores*txPerCore {
		t.Fatalf("commits = %d, want %d", got, cfg.Cores*txPerCore)
	}
	for i := 0; i < m.redoRings.Count(); i++ {
		ring := m.redoRings.ForCore(i)
		if ring.Len() >= ring.Slots() {
			t.Errorf("ring %d still full after run: %d/%d", i, ring.Len(), ring.Slots())
		}
	}

	m.Crash()
	m.Recover()
	for core := 0; core < cfg.Cores; core++ {
		want := uint64(core)<<32 | uint64(txPerCore-1)
		for w := mem.Addr(0); w < writesPerTx; w++ {
			if got := m.Store().ReadU64(pools[core] + w*mem.LineSize); got != want {
				t.Errorf("core %d line %d = %#x after recovery, want %#x", core, w, got, want)
			}
		}
	}
}

// TestReclaimProgressWhileMidCommit pins the incremental guarantee
// directly: a reclamation pass with one core mid-commit still truncates
// every other core's committed prefix — it no longer defers wholesale —
// while the mid-commit transaction's records survive above the
// checkpoint's low-water mark.
func TestReclaimProgressWhileMidCommit(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(4)

	// Core 0 commits a few transactions, filling its ring with dead
	// records.
	eng.Spawn("committed", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for k := 0; k < 4; k++ {
			k := k
			c.Run(func(tx *Tx) { tx.WriteU64(a, uint64(k)) })
		}
	})
	eng.Run()

	// Fake a mid-commit transaction on core 1: mark appended, write-set
	// not yet registered in pendingNVM (exactly the committing window).
	ring1 := m.redoRings.ForCore(1)
	ring1.Append(wal.Record{Type: wal.RecWrite, TxID: 999, Addr: a + mem.LineSize, Data: mem.Line{1}})
	lsn := m.NextLSN()
	ring1.Append(wal.Record{Type: wal.RecCommit, TxID: 999, LSN: lsn})
	tx := &Tx{Accessor: Accessor{core: 1}, id: 999, committing: true, commitLSN: lsn}
	m.byCore[1] = tx

	ring0 := m.redoRings.ForCore(0)
	if ring0.Len() == 0 {
		t.Fatal("setup: core 0 ring empty")
	}
	m.ReclaimLogs()
	m.byCore[1] = nil

	if ring0.Len() != 0 {
		t.Errorf("core 0 ring kept %d records despite core 1 mid-commit", ring0.Len())
	}
	if ring1.Len() != 2 {
		t.Errorf("mid-commit records truncated: ring 1 has %d records, want 2", ring1.Len())
	}
	if ckpt := m.Checkpoint(); ckpt >= lsn {
		t.Errorf("checkpoint low-water %d covers the mid-commit LSN %d", ckpt, lsn)
	}
}

// TestRecoverReadsDurableOnly is the Recover-without-Crash regression
// test: recovery evidence (the checkpoint cell and the checkpoint ring)
// must be read from the durable image, so tampering with the *live*
// copies — state a real power failure would discard — changes nothing.
// The old code read the cell via the live image and was correct only
// because Crash() happened to reset live to durable first.
func TestRecoverReadsDurableOnly(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(2)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) { tx.WriteU64(a, 1) })
		c.Run(func(tx *Tx) { tx.WriteU64(a+mem.LineSize, 2) })
	})
	eng.Run()
	m.ReclaimLogs() // durable checkpoint covering both commits

	wantCkpt := m.Checkpoint()
	if wantCkpt == 0 {
		t.Fatal("setup: no durable checkpoint")
	}

	// Tamper with the live image only: clobber the cell and the first
	// checkpoint-ring record. PokeLine/WriteU64 never touch durability.
	m.Store().WriteU64(m.ckptAddr, 0xDEAD)
	var junk mem.Line
	for i := range junk {
		junk[i] = 0x5A
	}
	m.Store().PokeLine(mem.NVMLogBase+2*mem.LineSize, &junk)

	if got := m.Checkpoint(); got != wantCkpt {
		t.Errorf("Checkpoint() followed live tampering: got %d, want %d", got, wantCkpt)
	}
	pre := m.Recover() // no Crash: must act on durable evidence anyway
	if pre.CheckpointLSN != wantCkpt {
		t.Errorf("Recover without Crash used checkpoint %d, want %d", pre.CheckpointLSN, wantCkpt)
	}

	m.Crash()
	post := m.Recover()
	if pre.CheckpointLSN != post.CheckpointLSN || pre.ReplayStats != post.ReplayStats {
		t.Errorf("recovery differs across Crash: pre %+v, post %+v", pre, post)
	}
}

// TestReclaimPastCrashKilledGroup: a power failure between a commit's
// redo records and its mark leaves an open group on the ring that no
// mark can ever close. Recovery discards it and must let reclamation
// truncate it too; otherwise every later record of that ring stays
// behind it and the ring eventually fills.
func TestReclaimPastCrashKilledGroup(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	a := mem.NewAllocator(mem.NVM).AllocLines(1)
	m.SetCrashpoint(func(p string) {
		if p == PointCommitMark {
			eng.HaltNow()
		}
	})
	eng.Spawn("killed", func(th *sim.Thread) {
		m.NewCtx(th, 0).Run(func(tx *Tx) { tx.WriteU64(a, 1) })
	})
	eng.Run()
	if !eng.Halted() {
		t.Fatal("crash before the commit mark never fired")
	}
	m.SetCrashpoint(nil)
	m.Crash()
	m.Recover()

	eng.Restart()
	eng.Recycle()
	eng.Spawn("next", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for k := 0; k < 8; k++ {
			c.Run(func(tx *Tx) { tx.WriteU64(a, uint64(2+k)) })
		}
	})
	eng.Run()
	m.ReclaimLogs() // quiescent: every group is disposable
	if r := m.RedoLog(0); r.Len() != 0 {
		t.Errorf("quiescent reclamation kept %d records behind the crash-killed group", r.Len())
	}
	m.Crash()
	m.Recover()
	if got := m.Store().ReadU64(a); got != 9 {
		t.Errorf("line = %d after recovery, want 9", got)
	}
}
