package core

import (
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

// TestContextSwitchInNeverSuspended pins the Thread.Resume no-op
// contract at the machine level: ContextSwitchIn on a core that was
// never switched out must not clamp the thread's clock forward. Under
// the pre-run-queue scheduler Resume cleared `suspended`
// unconditionally and advanced the clock, so a stray switch-in (e.g. an
// OS model rescheduling a thread it never descheduled) teleported the
// core past every other thread and reordered the simulation.
func TestContextSwitchInNeverSuspended(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(1)
	var commitClock sim.Time
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		before := th.Clock()
		c.ContextSwitchIn(sim.Second) // never switched out: must be a no-op
		if th.Suspended() {
			t.Error("ContextSwitchIn suspended a running thread")
		}
		if got := th.Clock(); got != before {
			t.Errorf("ContextSwitchIn moved a running core's clock %v -> %v", before, got)
		}
		c.Run(func(tx *Tx) { tx.WriteU64(a, 1) })
		commitClock = th.Clock()
	})
	eng.Run()
	if commitClock >= sim.Second {
		t.Errorf("commit finished at %v; the stray switch-in leaked into the clock", commitClock)
	}
	if s := m.Stats(); s.Commits != 1 {
		t.Errorf("commits = %d, want 1", s.Commits)
	}
}

// TestContextSwitchRoundTrip: the intended pairing still works — switch
// out suspends and flushes, switch in resumes no earlier than `at`.
func TestContextSwitchRoundTrip(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	al := mem.NewAllocator(mem.NVM)
	a := al.AllocLines(1)
	var worker *sim.Thread
	var resumedAt sim.Time
	worker = eng.Spawn("worker", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *Tx) { tx.WriteU64(a, 7) })
		c.ContextSwitchOut()
		th.Sync() // parks until the scheduler thread switches us back in
		resumedAt = th.Clock()
	})
	eng.Spawn("os", func(th *sim.Thread) {
		th.WaitUntil(func() bool { return worker.Suspended() }, 5*sim.Nanosecond)
		th.Advance(100 * sim.Microsecond)
		th.Sync()
		c := m.NewCtx(worker, 0)
		c.ContextSwitchIn(th.Clock())
	})
	eng.Run()
	if resumedAt < 100*sim.Microsecond {
		t.Errorf("worker resumed at %v, before the 100us switch-in point", resumedAt)
	}
}

// TestSwitchOutKeepsOtherL1sSnooped: the L1s share one presence filter,
// so a core's switch-out flush must remove only its own lines from it.
// Line X sits in core 1's L1 while core 0 switches out; when the LLC
// later evicts X, inclusion still requires X to leave core 1's L1. A
// flush that wiped the shared counters would skip that snoop.
func TestSwitchOutKeepsOtherL1sSnooped(t *testing.T) {
	eng, m := newTestMachine(DefaultOptions())
	llcSets, ways := m.llc.Sets(), m.llc.Ways()
	base := mem.NewAllocator(mem.DRAM).AllocLines(llcSets * (2*ways + 2))
	x := base
	y := base + mem.LineSize // core 0's line: another set and counter
	// X's LLC set-mates, skipping those that share X's presence counter
	// (the filter has 8 counters per L1 line, a multiple of llcSets
	// here): a shared counter would mask the missing snoop.
	counters := 8 * m.cfg.Cores * (m.cfg.L1Size / mem.LineSize)
	var mates []mem.Addr
	for k := 1; len(mates) < ways; k++ {
		if k*llcSets%counters != 0 {
			mates = append(mates, x+mem.Addr(k*llcSets)*mem.LineSize)
		}
	}
	// Cores are thread IDs, in spawn order.
	switched := eng.Spawn("core0", func(th *sim.Thread) {
		th.Advance(sim.Microsecond)
		th.Sync()
		c := m.NewCtx(th, 0)
		c.NT().ReadU64(y)
		c.ContextSwitchOut()
		th.Sync()
	})
	eng.Spawn("core1", func(th *sim.Thread) {
		m.NewCtx(th, 0).NT().ReadU64(x)
	})
	eng.Spawn("core2", func(th *sim.Thread) {
		th.WaitUntil(func() bool { return switched.Suspended() }, 5*sim.Nanosecond)
		if !m.l1[1].Contains(x) || !m.llc.Contains(x) {
			t.Fatal("setup: X not in core 1's L1 and the LLC")
		}
		c := m.NewCtx(th, 0)
		for _, a := range mates {
			c.NT().ReadU64(a)
		}
		if m.llc.Contains(x) {
			t.Fatal("setup: set-mate fills did not evict X from the LLC")
		}
		if m.l1[1].Contains(x) {
			t.Error("X survived its LLC eviction in core 1's L1: the switch-out flush lost core 1's presence count")
		}
		m.NewCtx(switched, 0).ContextSwitchIn(th.Clock())
	})
	eng.Run()
}
