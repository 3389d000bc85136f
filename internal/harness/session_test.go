package harness

import (
	"fmt"
	"testing"

	"uhtm/internal/sim"
)

// TestSessionBatches drives many batches through one engine and checks
// the core count stays bounded and virtual time is monotone.
func TestSessionBatches(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSession(eng)
	var last sim.Time
	for b := 0; b < 50; b++ {
		ran := 0
		end, halted := s.Do("batch",
			func(th *sim.Thread) { th.Advance(10); th.Sync(); ran++ },
			func(th *sim.Thread) { th.Advance(20); th.Sync(); ran++ },
		)
		if halted {
			t.Fatalf("batch %d halted", b)
		}
		if ran != 2 {
			t.Fatalf("batch %d ran %d bodies, want 2", b, ran)
		}
		if end < last {
			t.Fatalf("batch %d: virtual time went backwards (%v < %v)", b, end, last)
		}
		last = end
		if n := len(eng.Threads()); n > 2 {
			t.Fatalf("batch %d: %d thread slots, want <= 2", b, n)
		}
	}
	if s.Batches() != 50 {
		t.Fatalf("Batches() = %d, want 50", s.Batches())
	}
}

// TestSessionBatchStartsAtNow checks new work arrives at the engine's
// current virtual time, not in the simulated past.
func TestSessionBatchStartsAtNow(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSession(eng)
	s.Do("warm", func(th *sim.Thread) { th.Advance(1000) })
	var startClock sim.Time
	s.Do("next", func(th *sim.Thread) { startClock = th.Clock() })
	if startClock != 1000 {
		t.Fatalf("second batch started at %v, want 1000ps", startClock)
	}
}

// TestSessionHaltAndRestart injects a power failure mid-batch and
// checks: the batch reports halted, never-started bodies are cancelled
// (they do not leak into the next run), and after Restart the session
// serves batches again.
func TestSessionHaltAndRestart(t *testing.T) {
	eng := sim.NewEngine(1)
	s := NewSession(eng)
	leaked := false
	// The first body halts before its first Sync, so the second is never
	// dispatched — the case Cancel exists for.
	_, halted := s.Do("crash",
		func(th *sim.Thread) { eng.HaltNow() },
		func(th *sim.Thread) { leaked = true },
	)
	if !halted {
		t.Fatal("batch did not report halt")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Do on a halted engine did not panic")
			}
		}()
		s.Do("after-halt", func(th *sim.Thread) {})
	}()
	s.Restart()
	ran := false
	_, halted = s.Do("reboot", func(th *sim.Thread) { th.Advance(5); ran = true })
	if halted || !ran {
		t.Fatalf("post-restart batch: halted=%v ran=%v", halted, ran)
	}
	if leaked {
		t.Fatal("cancelled body from the halted batch ran after restart")
	}
}

// TestSessionDoLoneBodyAllocs pins the heap allocations of a one-body
// Do, the shape of a served single-shard request: the body runs on the
// caller's goroutine, with no goroutine, park channel or formatted
// name. The ceiling is the recorded count plus 25 % and 64.
func TestSessionDoLoneBodyAllocs(t *testing.T) {
	s := NewSession(sim.NewEngine(1))
	body := func(th *sim.Thread) { th.Sync(); th.Advance(sim.Nanosecond) }
	s.Do("warm", body)
	if allocs := testing.AllocsPerRun(1000, func() { s.Do("req", body) }); allocs > 65 {
		t.Errorf("one-body Do allocates %v times, want <= 65 (1 recorded)", allocs)
	}
	if n := len(s.Engine().Threads()); n != 1 {
		t.Errorf("%d thread slots after one-body batches, want 1", n)
	}
}

// BenchmarkSessionDo measures one Do batch: one body runs inline on the
// caller's goroutine; two bodies take the goroutine-per-thread path.
func BenchmarkSessionDo(b *testing.B) {
	body := func(th *sim.Thread) { th.Sync(); th.Advance(sim.Nanosecond) }
	for _, n := range []int{1, 2} {
		bodies := make([]func(*sim.Thread), n)
		for i := range bodies {
			bodies[i] = body
		}
		b.Run(fmt.Sprintf("bodies=%d", n), func(b *testing.B) {
			s := NewSession(sim.NewEngine(1))
			s.Do("warm", bodies...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Do("req", bodies...)
			}
		})
	}
}
