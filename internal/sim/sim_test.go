package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		d    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{82 * Nanosecond, "82.000ns"},
		{3 * Microsecond, "3.000us"},
		{2 * Millisecond, "2.000ms"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

// TestMinClockOrder verifies that actions interleave strictly by virtual
// time: each thread appends (its ID, clock) on every step, and the
// resulting global log must be sorted by clock (ties by thread ID).
func TestMinClockOrder(t *testing.T) {
	type ev struct {
		id    int
		clock Time
	}
	var log []ev
	e := NewEngine(1)
	// Thread i advances by a distinct stride so clocks interleave.
	strides := []Time{3, 5, 7, 11}
	for i := 0; i < 4; i++ {
		stride := strides[i]
		e.Spawn("t", func(th *Thread) {
			for j := 0; j < 50; j++ {
				th.Sync()
				log = append(log, ev{th.ID(), th.Clock()})
				th.Advance(stride * Nanosecond)
			}
		})
	}
	e.Run()
	if len(log) != 200 {
		t.Fatalf("got %d events, want 200", len(log))
	}
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if b.clock < a.clock || (b.clock == a.clock && b.id < a.id) {
			t.Fatalf("event %d (%v) out of order after %v", i, b, a)
		}
	}
}

func TestRunReturnsFinalTime(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("a", func(th *Thread) {
		th.Sync()
		th.Advance(100 * Nanosecond)
		th.Sync()
	})
	end := e.Run()
	if end != 100*Nanosecond {
		t.Errorf("final time = %v, want 100ns", end)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		var order []int
		e := NewEngine(42)
		for i := 0; i < 3; i++ {
			e.Spawn("t", func(th *Thread) {
				for j := 0; j < 20; j++ {
					th.Sync()
					order = append(order, th.ID())
					th.Advance(Time(e.Rand().Intn(10)+1) * Nanosecond)
				}
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWaitUntil(t *testing.T) {
	e := NewEngine(1)
	ready := false
	var observed Time
	e.Spawn("setter", func(th *Thread) {
		th.Sync()
		th.Advance(500 * Nanosecond)
		th.Sync()
		ready = true
	})
	e.Spawn("waiter", func(th *Thread) {
		th.WaitUntil(func() bool { return ready }, 10*Nanosecond)
		observed = th.Clock()
	})
	e.Run()
	if observed < 500*Nanosecond {
		t.Errorf("waiter proceeded at %v, before condition set at 500ns", observed)
	}
}

func TestSuspendResume(t *testing.T) {
	e := NewEngine(1)
	var worker *Thread
	hits := 0
	worker = e.Spawn("worker", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Sync()
			hits++
			th.Advance(10 * Nanosecond)
		}
	})
	e.Spawn("ctrl", func(th *Thread) {
		th.Sync()
		worker.Suspend()
		th.Advance(1000 * Nanosecond)
		th.Sync()
		worker.Resume(th.Clock())
	})
	e.Run()
	if hits != 3 {
		t.Errorf("worker ran %d steps, want 3", hits)
	}
	if worker.Clock() < 1000*Nanosecond {
		t.Errorf("worker finished at %v; resume should have pushed it past 1000ns", worker.Clock())
	}
}

func TestHaltAt(t *testing.T) {
	e := NewEngine(1)
	steps := 0
	e.Spawn("t", func(th *Thread) {
		for {
			th.Sync()
			steps++
			th.Advance(10 * Nanosecond)
		}
	})
	e.HaltAt(105 * Nanosecond)
	e.Run()
	if !e.Halted() {
		t.Fatal("engine did not halt")
	}
	// Thread dispatches at clocks 0,10,...,100 then 110 >= 105 halts.
	if steps != 11 {
		t.Errorf("steps = %d, want 11", steps)
	}
}

func TestHaltUnwindsAllThreads(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		e.Spawn("t", func(th *Thread) {
			for {
				th.Sync()
				th.Advance(Nanosecond)
			}
		})
	}
	e.HaltAt(50 * Nanosecond)
	e.Run()
	for _, th := range e.Threads() {
		if !th.done {
			t.Errorf("thread %d not unwound after halt", th.ID())
		}
	}
}

func TestSpawnAfterRunPanics(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("t", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("Spawn during Run did not panic")
			}
		}()
		e.Spawn("late", func(*Thread) {})
	})
	e.Run()
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("t", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("negative Advance did not panic")
			}
		}()
		th.Advance(-1)
	})
	e.Run()
}

// Property: for any set of positive strides, the engine's final time is
// the maximum over threads of steps*stride, and every thread completes.
func TestQuickFinalTime(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		e := NewEngine(7)
		var max Time
		for _, r := range raw {
			stride := Time(int(r)%97+1) * Nanosecond
			total := stride * 10
			if total > max {
				max = total
			}
			e.Spawn("t", func(th *Thread) {
				for j := 0; j < 10; j++ {
					th.Sync()
					th.Advance(stride)
				}
			})
		}
		end := e.Run()
		if end != max {
			return false
		}
		for _, th := range e.Threads() {
			if !th.done {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
