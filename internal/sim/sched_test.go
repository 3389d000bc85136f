package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestResumeNoOpOnRunningThread pins the documented Resume contract: a
// thread that was never suspended must be untouched — in particular its
// clock must not be clamped forward, which under the old scheduler
// could teleport a running thread past every other thread and reorder
// the whole simulation.
func TestResumeNoOpOnRunningThread(t *testing.T) {
	e := NewEngine(1)
	var worker *Thread
	var clocks []Time
	worker = e.Spawn("worker", func(th *Thread) {
		for i := 0; i < 5; i++ {
			th.Sync()
			clocks = append(clocks, th.Clock())
			th.Advance(10 * Nanosecond)
		}
	})
	e.Spawn("ctrl", func(th *Thread) {
		th.Sync()
		th.Advance(5 * Nanosecond)
		th.Sync()
		// The worker is running (never suspended); this must change
		// nothing even though `at` is far in the future.
		worker.Resume(Second)
		for i := 0; i < 5; i++ {
			th.Sync()
			th.Advance(10 * Nanosecond)
		}
	})
	e.Run()
	want := []Time{0, 10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond, 40 * Nanosecond}
	if !reflect.DeepEqual(clocks, want) {
		t.Errorf("worker clocks = %v, want %v (Resume on a running thread must be a no-op)", clocks, want)
	}
	if got := worker.Clock(); got != 50*Nanosecond {
		t.Errorf("worker final clock = %v, want 50ns", got)
	}
}

// TestResumeDoneThreadNoOp: resuming a finished thread must not mark it
// runnable or queue it.
func TestResumeDoneThreadNoOp(t *testing.T) {
	e := NewEngine(1)
	var short *Thread
	short = e.Spawn("short", func(th *Thread) { th.Sync() })
	e.Spawn("long", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Sync()
			th.Advance(Nanosecond)
		}
		short.Resume(0)
	})
	e.Run()
	if !short.done || short.Suspended() {
		t.Errorf("short: done=%v suspended=%v after Resume on a done thread", short.done, short.Suspended())
	}
}

// TestDeadlockReportSnapshot asserts the all-suspended panic carries a
// deterministic per-thread snapshot, so the harness's grid-cell panic
// wrapping yields an actionable report.
func TestDeadlockReportSnapshot(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("alpha", func(th *Thread) {
		th.Sync()
		th.Advance(7 * Nanosecond)
		th.Suspend()
		th.Sync()
	})
	e.Spawn("beta", func(th *Thread) {
		th.Sync()
		th.Advance(3 * Nanosecond)
		th.Suspend()
		th.Sync()
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on all-suspended deadlock")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("deadlock panic value is %T, want string", r)
		}
		for _, want := range []string{
			"all live threads suspended",
			`thread 0 "alpha" clock=7.000ns state=suspended`,
			`thread 1 "beta" clock=3.000ns state=suspended`,
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report missing %q:\n%s", want, msg)
			}
		}
	}()
	e.Run()
}

// TestDeadlockBeforeFirstDispatch: the snapshot must also cover the
// degenerate case where every thread is suspended before Run starts.
func TestDeadlockBeforeFirstDispatch(t *testing.T) {
	e := NewEngine(1)
	th := e.Spawn("stuck", func(th *Thread) { th.Sync() })
	th.Suspend()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic with every thread pre-suspended")
		}
		if msg, _ := r.(string); !strings.Contains(msg, `thread 0 "stuck"`) {
			t.Errorf("deadlock report missing thread snapshot: %v", r)
		}
	}()
	e.Run()
}

// TestBodyPanicSurfacesFromRun: a panic escaping a thread body must
// propagate out of Run on the caller's goroutine (where the harness
// wraps it), not kill the process from a bare goroutine.
func TestBodyPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("calm", func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Sync()
			th.Advance(Nanosecond)
		}
	})
	e.Spawn("bomb", func(th *Thread) {
		th.Sync()
		th.Advance(5 * Nanosecond)
		th.Sync()
		panic("boom at 5ns")
	})
	defer func() {
		if r := recover(); r != "boom at 5ns" {
			t.Errorf("recovered %v, want the body's panic value", r)
		}
	}()
	e.Run()
}

// TestSyncFastPathElision: a single-thread engine must elide virtually
// every handoff — each Sync after the first finds the thread alone and
// strictly minimal, so the token never moves.
func TestSyncFastPathElision(t *testing.T) {
	e := NewEngine(1)
	const steps = 1000
	e.Spawn("solo", func(th *Thread) {
		for i := 0; i < steps; i++ {
			th.Sync()
			th.Advance(Nanosecond)
		}
	})
	e.Run()
	// One dispatch to start the thread; everything else fast-paths.
	if e.Dispatches() != 1 {
		t.Errorf("Dispatches = %d, want 1 (start only)", e.Dispatches())
	}
}

// schedStressLog runs the randomized suspend/resume torture mix with the
// given seed and halt deadline (-1 for none) and returns the event log.
// Workers randomly advance, suspend their neighbor, or suspend
// themselves; a dedicated resumer thread (never suspended, so the
// engine cannot deadlock) wakes them back up until all workers finish.
func schedStressLog(seed int64, haltAt Time) (*Engine, []string) {
	e := NewEngine(seed)
	var log []string
	const nw = 6
	workers := make([]*Thread, nw)
	for i := 0; i < nw; i++ {
		i := i
		workers[i] = e.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
			for j := 0; j < 120; j++ {
				th.Sync()
				log = append(log, fmt.Sprintf("w%d step %d @%v", i, j, th.Clock()))
				r := e.Rand().Intn(12)
				th.Advance(Time(r+1) * Nanosecond)
				switch r {
				case 0:
					workers[(i+1)%nw].Suspend()
				case 1:
					th.Suspend() // takes effect at the next Sync
				case 2:
					// Resume a random worker; a no-op unless suspended.
					workers[e.Rand().Intn(nw)].Resume(th.Clock())
				case 3:
					// Cross-thread clock charge re-keys the queue.
					workers[e.Rand().Intn(nw)].Bump(Time(e.Rand().Intn(5)) * Nanosecond)
				}
			}
		})
	}
	e.Spawn("resumer", func(th *Thread) {
		for {
			th.Sync()
			log = append(log, fmt.Sprintf("resumer @%v", th.Clock()))
			allDone := true
			for _, w := range workers {
				if w.done {
					continue
				}
				allDone = false
				if w.Suspended() {
					w.Resume(th.Clock())
				}
			}
			if allDone {
				return
			}
			th.Advance(2 * Nanosecond)
		}
	})
	if haltAt >= 0 {
		e.HaltAt(haltAt)
	}
	e.Run()
	return e, log
}

// TestSchedulerStress is the randomized torture test: the full
// suspend/resume/bump mix must terminate, be deterministic for a given
// seed, and produce a monotone virtual-time order — under `go test
// -race` this also proves the token discipline keeps the engine
// single-threaded.
func TestSchedulerStress(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e, log := schedStressLog(seed, -1)
		for _, th := range e.Threads() {
			if !th.done {
				t.Fatalf("seed %d: thread %s not done", seed, th.Name())
			}
		}
		// Every log entry follows one Sync.
		if e.Dispatches() >= uint64(len(log)) {
			t.Errorf("seed %d: no fast-path elisions (%d dispatches for %d syncs)", seed, e.Dispatches(), len(log))
		}
		_, again := schedStressLog(seed, -1)
		if !reflect.DeepEqual(log, again) {
			t.Fatalf("seed %d: two runs diverged (%d vs %d events)", seed, len(log), len(again))
		}
	}
}

// TestSchedulerStressHalt runs the same mix against a mid-run HaltAt:
// every started thread must unwind, and the run must stay deterministic.
func TestSchedulerStressHalt(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		e, log := schedStressLog(seed, 200*Nanosecond)
		if !e.Halted() {
			t.Fatalf("seed %d: engine did not halt", seed)
		}
		for _, th := range e.Threads() {
			if th.started && !th.done {
				t.Fatalf("seed %d: started thread %s not unwound", seed, th.Name())
			}
		}
		_, again := schedStressLog(seed, 200*Nanosecond)
		if !reflect.DeepEqual(log, again) {
			t.Fatalf("seed %d: halted runs diverged", seed)
		}
	}
}

// TestRunQueueOrder drives the heap through pushes, pops, removes and
// re-keys and asserts dispatch order always matches a naive scan.
func TestRunQueueOrder(t *testing.T) {
	mk := func(id int, clock Time) *Thread { return &Thread{id: id, clock: clock, qi: -1} }
	var q runQueue
	ts := []*Thread{
		mk(0, 50), mk(1, 10), mk(2, 10), mk(3, 70), mk(4, 0), mk(5, 30),
	}
	for _, th := range ts {
		q.push(th)
	}
	if q.min() != ts[4] {
		t.Fatalf("min = thread %d, want 4", q.min().id)
	}
	q.remove(ts[4])
	if ts[4].qi != -1 {
		t.Fatalf("removed thread keeps qi %d", ts[4].qi)
	}
	ts[3].clock = 5 // re-key to the front
	q.fix(ts[3])
	ts[5].clock = 100 // re-key to the back
	q.fix(ts[5])
	want := []int{3, 1, 2, 0, 5} // (5,id3) (10,id1) (10,id2) (50,id0) (100,id5)
	for i, id := range want {
		th := q.pop()
		if th.id != id {
			t.Fatalf("pop %d = thread %d (clock %v), want thread %d", i, th.id, th.clock, id)
		}
		if th.qi != -1 {
			t.Fatalf("popped thread %d keeps qi %d", th.id, th.qi)
		}
	}
	if q.min() != nil {
		t.Fatal("queue not empty after popping everything")
	}
	// remove on an unqueued thread is a no-op.
	q.remove(ts[0])
}
