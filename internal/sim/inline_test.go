package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// loneSteps is the body the inline-path tests share: ten Sync+Advance
// steps of growing length, recording the thread clock and the engine's
// Now after every Sync.
func loneSteps(seen *[]Time) func(*Thread) {
	return func(th *Thread) {
		for i := 1; i <= 10; i++ {
			th.Sync()
			*seen = append(*seen, th.Clock(), th.eng.Now())
			th.Advance(Time(i) * Nanosecond)
		}
	}
}

// runSteps runs loneSteps alone, or beside a thread that returns at
// once, which puts the run on the goroutine-per-thread path. It returns
// the engine, Run's end time and the clocks the body saw.
func runSteps(beside bool, haltAt Time) (*Engine, Time, []Time) {
	var seen []Time
	e := NewEngine(1)
	e.Spawn("lone", loneSteps(&seen))
	if beside {
		e.Spawn("quick", func(*Thread) {})
	}
	if haltAt >= 0 {
		e.HaltAt(haltAt)
	}
	end := e.Run()
	return e, end, seen
}

// TestLoneBodyMatchesGoroutinePath: a lone body run inline ends at the
// same virtual time and sees the same clocks at each Sync as the same
// body dispatched onto its own goroutine, with and without a halt
// deadline inside it, and counts one dispatch. The body's last Sync is
// at 45ns, so a later deadline never fires.
func TestLoneBodyMatchesGoroutinePath(t *testing.T) {
	for _, haltAt := range []Time{-1, 1, 10 * Nanosecond, 21 * Nanosecond, 45 * Nanosecond, 46 * Nanosecond} {
		lone, loneEnd, loneSeen := runSteps(false, haltAt)
		pair, pairEnd, pairSeen := runSteps(true, haltAt)
		if loneEnd != pairEnd || !reflect.DeepEqual(loneSeen, pairSeen) {
			t.Errorf("haltAt %v: lone ended %v seeing %v; beside a second thread ended %v seeing %v",
				haltAt, loneEnd, loneSeen, pairEnd, pairSeen)
		}
		if want := haltAt >= 0 && haltAt <= 45*Nanosecond; lone.Halted() != want || pair.Halted() != want {
			t.Errorf("haltAt %v: halted lone=%v beside=%v", haltAt, lone.Halted(), pair.Halted())
		}
		if d := lone.Dispatches(); d != 1 {
			t.Errorf("haltAt %v: lone run dispatched %d times, want 1", haltAt, d)
		}
		if pair.Dispatches() <= 1 {
			t.Errorf("haltAt %v: the two-thread run dispatched %d times; it did not take the goroutine path", haltAt, pair.Dispatches())
		}
	}
}

// TestLoneHaltRestarts: a halt inside a lone body — a HaltAt deadline
// at several points, or HaltNow — leaves the engine halted with the
// body finished, and Restart plus Recycle make it run fresh bodies, on
// the same core, from the virtual time the halt struck.
func TestLoneHaltRestarts(t *testing.T) {
	type halt struct {
		name  string
		setup func(e *Engine)
	}
	halts := []halt{{"HaltNow", func(e *Engine) {
		e.Spawn("victim", func(th *Thread) {
			th.Advance(30)
			th.Sync()
			e.HaltNow()
			t.Error("body continued past HaltNow")
		})
	}}}
	for _, at := range []Time{1, 15, 30, 99} {
		halts = append(halts, halt{"HaltAt " + at.String(), func(e *Engine) {
			e.Spawn("victim", func(th *Thread) {
				for {
					th.Advance(10)
					th.Sync()
				}
			})
			e.HaltAt(at)
		}})
	}
	for _, h := range halts {
		e := NewEngine(1)
		h.setup(e)
		end := e.Run()
		if !e.Halted() || !e.Threads()[0].done {
			t.Fatalf("%s: halted=%v done=%v", h.name, e.Halted(), e.Threads()[0].done)
		}
		e.Restart()
		if n := e.Recycle(); n != 1 {
			t.Fatalf("%s: Recycle reclaimed %d slots, want 1", h.name, n)
		}
		var start Time
		th := e.Spawn("reboot", func(th *Thread) { start = th.Clock(); th.Sync(); th.Advance(5) })
		th.Bump(e.Now())
		if again := e.Run(); e.Halted() || again != end+5 || start != end || th.ID() != 0 {
			t.Fatalf("%s: reboot halted=%v on core %d, ran %v..%v, want %v..%v on core 0",
				h.name, e.Halted(), th.ID(), start, again, end, end+5)
		}
	}
}

// TestLoneBodyPanicKeepsValue: a panic escaping a lone body leaves Run
// with the body's own value.
func TestLoneBodyPanicKeepsValue(t *testing.T) {
	type failure struct{ code int }
	e := NewEngine(1)
	e.Spawn("bomb", func(th *Thread) {
		th.Sync()
		panic(failure{7})
	})
	defer func() {
		if r := recover(); r != (failure{7}) {
			t.Errorf("recovered %v, want the body's panic value", r)
		}
	}()
	e.Run()
}

// TestLoneSelfSuspendReportsDeadlock: a lone thread that suspends
// itself can never be resumed, so its next Sync ends Run with the
// deadlock report, which formats the thread's indexed name.
func TestLoneSelfSuspendReportsDeadlock(t *testing.T) {
	e := NewEngine(1)
	e.SpawnIndexed("serve", 3, func(th *Thread) {
		th.Advance(4 * Nanosecond)
		th.Suspend()
		th.Sync()
		t.Error("body continued past a self-Suspend")
	})
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{"all live threads suspended", `thread 0 "serve.3" clock=4.000ns state=suspended`} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report missing %q:\n%s", want, msg)
			}
		}
	}()
	e.Run()
}

// TestLoneBodyStartsNoGoroutine: inside a lone body the process has no
// more goroutines than before Run.
func TestLoneBodyStartsNoGoroutine(t *testing.T) {
	e := NewEngine(1)
	before := runtime.NumGoroutine()
	inside := -1
	e.Spawn("lone", func(th *Thread) {
		th.Sync()
		inside = runtime.NumGoroutine()
	})
	e.Run()
	if inside != before {
		t.Errorf("NumGoroutine inside the lone body = %d, before Run = %d", inside, before)
	}
}
