package core

import (
	"slices"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
)

// TestResolutionOverflowPriority encodes Table II row 1/3: when exactly
// one of two conflicting transactions has overflowed, the non-overflowed
// one aborts — here the requester, because the victim overflowed.
func TestResolutionOverflowPriority(t *testing.T) {
	opts := DefaultOptions()
	opts.SigBits = signature.Bits16K // keep false positives out of the way
	opts.MaxRetries = 1000           // keep the requester off the slow path
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	lines := 2000 // > 1024-line LLC → overflows
	base := al.AllocLines(lines)
	target := base // first line: written by big tx, then evicted

	bigAborts, smallAborts := 0, 0
	bigOverflowed := false
	eng.Spawn("big", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() > 0 {
				bigAborts++
			}
			for i := 0; i < lines; i++ {
				tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 1)
			}
			bigOverflowed = tx.Overflowed()
			th.Advance(200 * sim.Microsecond) // hold the window open
			tx.ReadU64(base)
		})
	})
	eng.Spawn("small", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		// Collide only once the big transaction's footprint has left the
		// LLC, so the conflict is found off-chip against its signature.
		th.WaitUntil(func() bool { return bigOverflowed }, sim.Microsecond)
		c.Run(func(tx *Tx) {
			if tx.Attempt() > 0 {
				smallAborts++
			}
			tx.WriteU64(target, 2) // LLC-missed: big's line was evicted
		})
	})
	eng.Run()
	if bigAborts != 0 {
		t.Errorf("overflowed transaction aborted %d times; policy must protect it", bigAborts)
	}
	if smallAborts == 0 {
		t.Error("non-overflowed requester never aborted")
	}
	if m.Stats().Commits != 2 {
		t.Errorf("commits = %d", m.Stats().Commits)
	}
}

// TestResolutionRequesterWinsOnChip encodes Table II row 2: neither
// transaction overflowed, conflict in on-chip caches → the requester
// wins and the holder aborts.
func TestResolutionRequesterWinsOnChip(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.DRAM)
	a := al.AllocLines(1)
	holderAborts := 0
	eng.Spawn("holder", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			if tx.Attempt() > 0 {
				holderAborts++
			}
			tx.WriteU64(a, 1)
			th.Advance(10 * sim.Microsecond)
			tx.ReadU64(a + 8)
		})
	})
	eng.Spawn("requester", func(th *sim.Thread) {
		th.Advance(1 * sim.Microsecond)
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(a, 2)
		})
	})
	eng.Run()
	if holderAborts == 0 {
		t.Error("on-chip conflict did not abort the holder (requester-wins)")
	}
}

// TestFalsePositiveAborts drives a 512-bit signature to saturation; a
// same-domain transaction touching disjoint data then suffers
// false-positive aborts — the Figure 7 phenomenon.
func TestFalsePositiveAborts(t *testing.T) {
	opts := DefaultOptions()
	opts.SigBits = signature.Bits512
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.DRAM)
	lines := 3000
	base := al.AllocLines(lines)
	other := al.AllocLines(64) // disjoint working set

	eng.Spawn("big", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			for i := 0; i < lines; i++ {
				tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 1)
			}
			th.Advance(500 * sim.Microsecond)
			tx.ReadU64(base)
		})
	})
	eng.Spawn("small", func(th *sim.Thread) {
		th.Advance(200 * sim.Microsecond)
		c := m.NewCtx(th, 0) // same domain
		for k := 0; k < 8; k++ {
			c.Run(func(tx *Tx) {
				for i := 0; i < 64; i++ {
					tx.WriteU64(other+mem.Addr(i)*mem.LineSize, uint64(k))
				}
			})
		}
	})
	eng.Run()
	if m.Stats().AbortsBy[stats.CauseFalsePositive] == 0 {
		t.Errorf("saturated 512-bit signature produced no false-positive aborts: %v", m.Stats())
	}
	if m.Stats().AbortsBy[stats.CauseTrueConflict] != 0 {
		t.Errorf("disjoint data recorded true conflicts: %v", m.Stats())
	}
}

// TestIsolationConfinesFalsePositives runs the same scenario across two
// conflict domains: with signature isolation the small domain never sees
// the big domain's saturated signature.
func TestIsolationConfinesFalsePositives(t *testing.T) {
	run := func(isolation bool) *stats.Stats {
		opts := DefaultOptions()
		opts.SigBits = signature.Bits512
		opts.Isolation = isolation
		eng, m := newTestMachine(opts)
		al := mem.NewAllocator(mem.DRAM)
		lines := 3000
		base := al.AllocLines(lines)
		other := al.AllocLines(64)
		eng.Spawn("big", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			c.Run(func(tx *Tx) {
				for i := 0; i < lines; i++ {
					tx.WriteU64(base+mem.Addr(i)*mem.LineSize, 1)
				}
				th.Advance(500 * sim.Microsecond)
				tx.ReadU64(base)
			})
		})
		eng.Spawn("small", func(th *sim.Thread) {
			th.Advance(200 * sim.Microsecond)
			c := m.NewCtx(th, 1) // DIFFERENT domain
			for k := 0; k < 8; k++ {
				c.Run(func(tx *Tx) {
					for i := 0; i < 64; i++ {
						tx.WriteU64(other+mem.Addr(i)*mem.LineSize, uint64(k))
					}
				})
			}
		})
		eng.Run()
		return m.Stats()
	}
	noIso := run(false)
	iso := run(true)
	if noIso.AbortsBy[stats.CauseFalsePositive] == 0 {
		t.Errorf("without isolation, expected cross-domain false positives: %v", noIso)
	}
	if iso.AbortsBy[stats.CauseFalsePositive] != 0 {
		t.Errorf("isolation did not confine false positives: %v", iso)
	}
}

// TestContextSwitchVirtualizedAbort: a transaction suspended mid-flight
// is aborted by a conflicting access (the TSS abort-flag path of Section
// IV-E), observes the flag on resume, retries, and commits.
func TestContextSwitchVirtualizedAbort(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.DRAM)
	a := al.AllocLines(1)
	var cA *Ctx
	attempts := 0
	eng.Spawn("switcher", func(th *sim.Thread) {
		cA = m.NewCtx(th, 0)
		cA.Run(func(tx *Tx) {
			attempts++
			tx.WriteU64(a, 1)
			if tx.Attempt() == 0 {
				cA.ContextSwitchOut() // descheduled mid-transaction
			}
			tx.WriteU64(a+8, 2)
		})
	})
	eng.Spawn("conflictor", func(th *sim.Thread) {
		th.Advance(5 * sim.Microsecond)
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			tx.WriteU64(a, 99) // conflicts with the suspended transaction
		})
	})
	eng.Spawn("scheduler", func(th *sim.Thread) {
		th.WaitUntil(func() bool { return cA != nil && cA.Thread().Suspended() }, sim.Microsecond)
		th.Advance(20 * sim.Microsecond)
		th.Sync()
		cA.ContextSwitchIn(th.Clock())
	})
	eng.Run()
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2 (abort while suspended + retry)", attempts)
	}
	if m.Stats().Commits != 2 {
		t.Errorf("commits = %d", m.Stats().Commits)
	}
	// The retry ran after the conflictor committed, so both its writes
	// land last.
	if m.store.ReadU64(a) != 1 || m.store.ReadU64(a+8) != 2 {
		t.Errorf("final = %d,%d", m.store.ReadU64(a), m.store.ReadU64(a+8))
	}
}

// TestSerialReplayEquivalence: with commit tracking on, replaying the
// committed write images in commit order over the initial state must
// reproduce the final live memory — the serializability witness.
func TestSerialReplayEquivalence(t *testing.T) {
	opts := DefaultOptions()
	opts.TrackCommits = true
	eng, m := newTestMachine(opts)
	al := mem.NewAllocator(mem.NVM)
	const slots = 32
	base := al.AllocLines(slots)
	baseline := m.store.SnapshotLive()

	for i := 0; i < 3; i++ {
		eng.Spawn("w", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			rng := eng.Rand()
			for k := 0; k < 40; k++ {
				c.Run(func(tx *Tx) {
					s1 := mem.Addr(rng.Intn(slots))
					s2 := mem.Addr(rng.Intn(slots))
					v := tx.ReadU64(base + s1*mem.LineSize)
					tx.WriteU64(base+s2*mem.LineSize, v+uint64(th.ID())+1)
				})
			}
		})
	}
	eng.Run()

	// Replay commits serially over the baseline.
	replay := make(map[mem.Addr]mem.Line, len(baseline))
	for a, l := range baseline {
		replay[a] = l
	}
	touched := map[mem.Addr]bool{}
	for _, ct := range m.CommitLog() {
		for la, img := range ct.Writes {
			replay[la] = img
			touched[la] = true
		}
	}
	for la := range touched {
		if got := m.store.PeekLine(la); got != replay[la] {
			t.Fatalf("line %#x: final state diverges from serial replay", uint64(la))
		}
	}
	if len(m.CommitLog()) != 120 {
		t.Errorf("commit log has %d entries, want 120", len(m.CommitLog()))
	}
}

// TestActiveInOrderAcrossWords: the live-transaction walk visits cores
// in ascending order across the 64-core words of its bitset (victim
// order feeds the goldens), and skips retired transactions.
func TestActiveInOrderAcrossWords(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 200
	m := NewMachine(sim.NewEngine(1), cfg, DefaultOptions())
	cores := []int{199, 3, 64, 130, 63, 128}
	for _, c := range cores {
		m.byCore[c] = &Tx{Accessor: Accessor{core: c}}
		m.setActive(c, true)
	}
	m.byCore[130].finished = true
	m.setActive(130, false)
	var got []int
	for _, tx := range m.activeInOrder() {
		got = append(got, tx.core)
	}
	want := []int{3, 63, 64, 128, 199}
	if !slices.Equal(got, want) {
		t.Errorf("activeInOrder visited cores %v, want %v", got, want)
	}
}
