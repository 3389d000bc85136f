package core

import (
	"fmt"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

// TestOracleAllDetections runs a randomized concurrent workload under
// every detection scheme with paranoid ground-truth checking on, and
// verifies the final memory equals a Go-map oracle built from the
// commit log — the strongest end-to-end serializability check in the
// suite.
func TestOracleAllDetections(t *testing.T) {
	for _, det := range []Detection{DetectLLCBounded, DetectSignatureOnly, DetectStaged, DetectIdeal} {
		det := det
		t.Run(det.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Detect = det
			opts.TrackCommits = true
			eng, m := newTestMachine(opts)
			dal := mem.NewAllocator(mem.DRAM)
			nal := mem.NewAllocator(mem.NVM)
			const slots = 24
			dbase := dal.AllocLines(slots)
			nbase := nal.AllocLines(slots)

			for i := 0; i < 4; i++ {
				eng.Spawn("w", func(th *sim.Thread) {
					c := m.NewCtx(th, 0)
					rng := eng.Rand()
					for k := 0; k < 30; k++ {
						d := dbase + mem.Addr(rng.Intn(slots))*mem.LineSize
						n := nbase + mem.Addr(rng.Intn(slots))*mem.LineSize
						c.Run(func(tx *Tx) {
							// Mixed DRAM/NVM transaction: move a token.
							v := tx.ReadU64(d)
							tx.WriteU64(d, v+1)
							tx.WriteU64(n, tx.ReadU64(n)+v+1)
						})
					}
				})
			}
			eng.Run()

			// Oracle: serial replay of commit images in commit order.
			oracle := map[mem.Addr]mem.Line{}
			for _, ct := range m.CommitLog() {
				for la, img := range ct.Writes {
					oracle[la] = img
				}
			}
			for la, want := range oracle {
				if got := m.store.PeekLine(la); got != want {
					t.Fatalf("%v: line %#x diverges from serial replay", det, uint64(la))
				}
			}
			if m.Stats().Commits != 120 {
				t.Errorf("commits = %d, want 120", m.Stats().Commits)
			}
		})
	}
}

// TestNTBulkAccessors: the non-transactional accessor's word and bulk
// byte operations round-trip through the hierarchy.
func TestNTBulkAccessors(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(4)
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		nt := c.NT()
		nt.WriteBytes(a+8, payload) // crosses line boundaries
		got := nt.ReadBytes(a+8, len(payload))
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
			}
		}
		nt.WriteU64(a, 77)
		if nt.ReadU64(a) != 77 {
			t.Error("NT word round-trip failed")
		}
	})
	eng.Run()
}

// TestZeroLengthAccessTouchesNoLine: an empty byte range at an
// unaligned address, inside or outside a transaction, brings no line
// on-chip and costs no time.
func TestZeroLengthAccessTouchesNoLine(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	a := mem.NewAllocator(mem.NVM).AllocLines(1) + 8
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		start := th.Clock()
		c.NT().ReadBytes(a, 0)
		c.NT().WriteBytes(a, nil)
		if th.Clock() != start {
			t.Errorf("non-transactional empty range advanced the clock by %v", th.Clock()-start)
		}
		c.Run(func(tx *Tx) {
			tx.ReadBytes(a, 0)
			tx.WriteBytes(a, nil)
		})
		if m.l1[c.core].Contains(mem.LineOf(a)) || m.llc.Contains(mem.LineOf(a)) {
			t.Error("empty range brought its line on-chip")
		}
	})
	eng.Run()
}

// TestTxBulkReadOwnWrites: transactional bulk writes are visible to
// bulk reads within the same transaction, across many lines.
func TestTxBulkReadOwnWrites(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.DRAM)
	a := al.AllocLines(8)
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) {
			b := make([]byte, 8*mem.LineSize)
			for i := range b {
				b[i] = byte(i)
			}
			tx.WriteBytes(a, b)
			got := tx.ReadBytes(a, len(b))
			for i := range b {
				if got[i] != b[i] {
					t.Fatalf("byte %d mismatch", i)
				}
			}
		})
	})
	eng.Run()
}

// TestDomainStatsSeparation: per-domain counters track their own
// domains only.
func TestDomainStatsSeparation(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a0, a1 := al.AllocLines(1), al.AllocLines(1)
	eng.Spawn("d0", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for i := 0; i < 3; i++ {
			c.Run(func(tx *Tx) { tx.WriteU64(a0, uint64(i)) })
		}
	})
	eng.Spawn("d1", func(th *sim.Thread) {
		c := m.NewCtx(th, 1)
		for i := 0; i < 5; i++ {
			c.Run(func(tx *Tx) { tx.WriteU64(a1, uint64(i)) })
		}
	})
	eng.Run()
	if m.DomainStats(0).Commits != 3 || m.DomainStats(1).Commits != 5 {
		t.Errorf("domain commits = %d/%d, want 3/5",
			m.DomainStats(0).Commits, m.DomainStats(1).Commits)
	}
	if m.Stats().Commits != 8 {
		t.Errorf("global commits = %d", m.Stats().Commits)
	}
}

// TestNestedRunPanics: transactions do not nest.
func TestNestedRunPanics(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		defer func() {
			if recover() == nil {
				t.Error("nested Run did not panic")
			}
		}()
		c.Run(func(tx *Tx) {
			c.Run(func(*Tx) {})
		})
	})
	eng.Run()
}

// TestTooManyThreadsPanics: NewCtx refuses thread IDs beyond the core
// count.
func TestTooManyThreadsPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := testConfig()
	cfg.Cores = 1
	m := NewMachine(eng, cfg, DefaultOptions())
	eng.Spawn("ok", func(th *sim.Thread) { m.NewCtx(th, 0) })
	eng.Spawn("overflow", func(th *sim.Thread) {
		defer func() {
			if recover() == nil {
				t.Error("NewCtx beyond core count did not panic")
			}
		}()
		m.NewCtx(th, 0)
	})
	eng.Run()
}

var _ = fmt.Sprintf // placate linters if debug prints are removed
