// Package sim provides the deterministic discrete-event engine that the
// UHTM reproduction runs on. It stands in for gem5's system-call
// emulation mode: every simulated hardware thread of a multi-thread run
// is a goroutine, but exactly one of them executes at any moment, and
// the scheduler always resumes the thread with the smallest virtual
// clock (ties broken by thread ID). Memory-system code called from a
// thread therefore needs no locking, interleavings are reproducible, and
// throughput numbers are a pure function of the workload, the
// configuration, and the seed. A run with a single live thread — a
// served request's batch, typically — has no one to hand the token to,
// so Run executes that thread's body on the goroutine that called Run
// instead.
//
// The protocol between a thread and the scheduler is:
//
//	t.Sync()        // yield; resume only when t is the min-clock thread
//	... perform an action against shared simulator state ...
//	t.Advance(lat)  // charge the action's latency to t's clock
//
// Actions thus occur in global virtual-time order.
//
// # The flat run queue
//
// Dispatch order is maintained incrementally in an indexed min-heap of
// runnable threads keyed by (clock, id) — see runQueue — instead of
// being rediscovered by an O(threads) scan on every yield. The thread
// holding the execution token is never queued; threads enter the queue
// when they yield or are Resumed and leave it when dispatched or
// Suspended, and Bump re-keys its target in place.
//
// Sync has a fast path: when the yielding thread is still strictly
// first in dispatch order (and no halt deadline intervenes), it keeps
// the token and returns immediately — no channel operation, no
// goroutine switch. This covers the long low-contention stretches of
// every workload, where one thread performs many consecutive actions
// before another catches up. The slow path hands the token directly to
// the next thread over that thread's own park channel; the goroutine
// running Engine.Run only wakes for termination, halt, deadlock or a
// propagated panic. Engine.Dispatches counts the slow path, so the
// fast-path elision rate is observable and benchmarked.
//
// # Engines are self-contained
//
// An Engine and everything hanging off it (threads, the machine, the
// store, allocators, its RNG) form one isolated world: neither this
// package nor any simulator package below it keeps package-level
// mutable state. Distinct engines may therefore run concurrently on
// separate OS goroutines with no synchronization — internal/harness
// relies on this to fan experiment grids out across cores. The
// invariant callers must keep is the converse: a single engine is NOT
// internally parallel (Run is single-threaded by construction and
// asserts against reentrant use), and objects reachable from one
// engine must never be touched from another engine's world.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"uhtm/internal/trace"
)

// Time is a point in (or span of) virtual time, in picoseconds. The
// picosecond base keeps Table III's 1.5 ns L1 latency integral.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a float count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the duration in the largest fitting unit (ms/us/ns/ps).
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// ErrHalted is delivered (via panic, recovered by the engine) to threads
// that are still live when the engine halts — e.g. at an injected power
// failure. Thread bodies should not catch it.
var ErrHalted = errors.New("sim: engine halted")

// Thread is one simulated hardware context. Thread methods must only be
// called from within the thread's own body function, except Suspend,
// Resume, Bump and Clock, which the (single) currently-running thread
// may call on any thread.
type Thread struct {
	id        int
	name      string
	index     int // >= 0: the thread is the index-th of batch name (SpawnIndexed)
	eng       *Engine
	clock     Time
	park      chan struct{} // capacity-1 token: one pending unpark; made at the first goroutine dispatch
	qi        int           // index in the engine run queue; -1 when unqueued
	started   bool
	done      bool
	suspended bool
	recycled  bool // slot reclaimed by Engine.Recycle; a stale handle
	body      func(*Thread)
}

// ID returns the thread's unique identifier (its core ID in the
// simulated machine).
func (t *Thread) ID() int { return t.id }

// Name returns the descriptive name given at spawn time; a thread from
// SpawnIndexed is named "name.index".
func (t *Thread) Name() string {
	if t.index < 0 {
		return t.name
	}
	return t.name + "." + strconv.Itoa(t.index)
}

// Clock returns the thread's current virtual time.
func (t *Thread) Clock() Time { return t.clock }

// Advance charges d of computation or latency to the thread's clock
// without yielding control. It must only be called by the thread on
// itself (cross-thread clock charges go through Bump, which re-keys the
// run queue).
func (t *Thread) Advance(d Time) {
	if d < 0 {
		panic("sim: negative advance")
	}
	t.clock += d
}

// before reports whether t precedes u in dispatch order.
func (t *Thread) before(u *Thread) bool {
	return t.clock < u.clock || (t.clock == u.clock && t.id < u.id)
}

// Sync yields to the scheduler and blocks until this thread is again the
// minimum-clock runnable thread. Every externally visible action (a
// memory access, a lock acquisition) must be preceded by Sync so that
// actions occur in virtual-time order.
//
// Fast path: when the thread is still strictly first in dispatch order,
// Sync keeps the execution token and returns without a handoff.
func (t *Thread) Sync() {
	e := t.eng
	if !t.suspended && !e.halted && (e.haltAt < 0 || t.clock < e.haltAt) {
		if m := e.runq.min(); m == nil || t.before(m) {
			e.now = t.clock
			return
		}
	}
	if e.halted {
		panic(haltSignal{})
	}
	if t.park == nil {
		// The lone thread Run executes on the caller's goroutine: nobody
		// else can take the token, so the slow path means either a
		// self-Suspend, which nothing can undo, or the halt deadline.
		if t.suspended {
			panic(e.deadlockReport())
		}
		e.halted = true
		panic(haltSignal{})
	}
	if !t.suspended {
		e.runq.push(t)
	}
	e.passToken()
	<-t.park
	if e.halted {
		panic(haltSignal{})
	}
}

// WaitUntil repeatedly evaluates cond at poll intervals of the thread's
// virtual time until it reports true. It models spin-waiting (e.g. the
// pause loop in Algorithm 1 of the paper). cond runs while the thread
// holds the execution token, so it may read shared simulator state.
func (t *Thread) WaitUntil(cond func() bool, poll Time) {
	if poll <= 0 {
		poll = 10 * Nanosecond
	}
	for {
		t.Sync()
		if cond() {
			return
		}
		t.Advance(poll)
	}
}

// Bump charges d to t's clock from *outside* the thread — e.g. the abort
// protocol charging rollback latency to a victim transaction's core. It
// does not change suspension state. If t is queued, its dispatch
// position is re-keyed in place.
func (t *Thread) Bump(d Time) {
	if d < 0 {
		panic("sim: negative bump")
	}
	t.clock += d
	if t.qi >= 0 {
		t.eng.runq.fix(t)
	}
}

// Suspend marks t as descheduled (a context switch taking it off-core);
// the scheduler will not resume it until Resume is called. Suspending
// the currently-running thread takes effect at its next Sync.
func (t *Thread) Suspend() {
	if t.suspended || t.done {
		return
	}
	t.suspended = true
	t.eng.runq.remove(t)
}

// Resume makes a suspended thread runnable again, no earlier than
// virtual time at. It is a no-op for threads that are not suspended —
// in particular it never moves a running thread's clock forward.
func (t *Thread) Resume(at Time) {
	if !t.suspended || t.done {
		return
	}
	t.suspended = false
	if t.clock < at {
		t.clock = at
	}
	// The current thread re-enters the queue at its next Sync; queued
	// membership for everyone else is restored here. Before Run, the
	// queue does not exist yet — Run enqueues every runnable thread.
	if t.eng.running && t != t.eng.cur {
		t.eng.runq.push(t)
	}
}

// Suspended reports whether the thread is currently descheduled.
func (t *Thread) Suspended() bool { return t.suspended }

type haltSignal struct{}

// wake is the reason a thread woke the goroutine running Engine.Run.
type wake uint8

const (
	wakeDone     wake = iota // every thread's body has returned
	wakeHalt                 // the next dispatch would cross the HaltAt deadline
	wakeDeadlock             // every live thread is suspended
	wakeAck                  // one thread finished unwinding after a halt
	wakePanicked             // a thread body panicked; Engine.panicVal holds the value
)

// Engine owns the simulated threads and the virtual-time scheduler.
type Engine struct {
	threads []*Thread
	runq    runQueue
	engCh   chan wake // threads -> Run goroutine; capacity 1, at most one in flight
	rng     *rand.Rand
	tracer  *trace.Recorder
	cur     *Thread
	halted  bool
	haltAt  Time
	now     Time
	running bool
	// panicVal carries a thread body's panic value to the Run goroutine,
	// so workload bugs surface on the caller's stack (where the harness
	// wraps them with the grid cell's identity) instead of killing the
	// process from a bare goroutine.
	panicVal any
	handoffs uint64 // slow-path dispatches: park/unpark goroutine switches
	// free holds thread IDs reclaimed by Recycle, ascending; Spawn
	// reuses them before growing the thread table, so a long-lived
	// engine serving many short-lived bodies keeps a bounded core count.
	free []int
}

// NewEngine returns an engine whose random decisions (backoff jitter,
// workload key choice) derive from seed. The same seed yields the same
// simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{
		engCh:  make(chan wake, 1),
		rng:    rand.New(rand.NewSource(seed)),
		haltAt: -1,
	}
}

// Rand returns the engine's deterministic random source. It must only be
// used from simulated threads (single-threaded access).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Now returns the clock of the most recently scheduled thread — the
// engine's notion of current virtual time.
func (e *Engine) Now() Time { return e.now }

// Dispatches returns the number of slow-path scheduler handoffs — Sync
// calls (plus thread starts and finishes) that transferred the
// execution token between goroutines. Every other Sync is a fast-path
// elision; dispatches per unit of work is a machine-independent measure
// of scheduler overhead.
func (e *Engine) Dispatches() uint64 { return e.handoffs }

// SetTracer installs (or, with nil, removes) the engine world's event
// recorder. Like the RNG, the recorder belongs to exactly one engine:
// it is written only while that engine's single running thread holds
// the execution token, so traces are deterministic and engine worlds
// stay isolated. Install before Run.
func (e *Engine) SetTracer(r *trace.Recorder) { e.tracer = r }

// Tracer returns the engine's event recorder; nil means tracing is
// disabled (the nil *Recorder is a valid no-op sink).
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// CurrentClock returns the live clock of the thread currently holding
// the execution token — finer than Now, which only advances at dispatch
// boundaries. Instrumentation uses it to stamp events with the exact
// virtual time a thread has accumulated mid-slice. Outside a dispatch
// it falls back to Now.
func (e *Engine) CurrentClock() Time {
	if e.cur != nil && !e.cur.done {
		return e.cur.clock
	}
	return e.now
}

// Spawn registers a new simulated thread. All threads must be spawned
// outside Run (an engine whose Run has returned may spawn again — see
// Recycle — before its next Run). IDs reclaimed by Recycle are reused,
// lowest first, before the thread table grows.
func (e *Engine) Spawn(name string, body func(*Thread)) *Thread {
	return e.SpawnIndexed(name, -1, body)
}

// SpawnIndexed is Spawn for the index-th body of a batch called name:
// the thread is named "name.index", a string built only when Name or a
// deadlock report reads it. A negative index names the thread name
// alone, as Spawn does.
func (e *Engine) SpawnIndexed(name string, index int, body func(*Thread)) *Thread {
	if e.running {
		panic("sim: Spawn after Run")
	}
	t := &Thread{
		name:  name,
		index: index,
		eng:   e,
		qi:    -1,
		body:  body,
	}
	if len(e.free) > 0 {
		t.id = e.free[0]
		// Shift rather than reslice, so the list keeps its capacity and
		// Recycle's appends stop allocating once it is warm.
		e.free = e.free[:copy(e.free, e.free[1:])]
		e.threads[t.id] = t
	} else {
		t.id = len(e.threads)
		e.threads = append(e.threads, t)
	}
	return t
}

// Recycle reclaims the slot (and therefore the ID) of every finished
// thread, making those IDs available to subsequent Spawns. It returns
// the number of slots reclaimed. This is what lets one long-lived
// engine serve an unbounded stream of short-lived bodies on a bounded
// set of simulated cores: between Runs, finished workers are recycled
// and fresh bodies take over their core IDs. Handles to recycled
// threads are stale — the engine no longer dispatches them, and
// Threads() reports the replacement once one is spawned. Must be
// called outside Run.
func (e *Engine) Recycle() int {
	if e.running {
		panic("sim: Recycle during Run")
	}
	n := 0
	for _, t := range e.threads {
		if t.done && !t.recycled {
			t.recycled = true
			e.free = append(e.free, t.id)
			n++
		}
	}
	if n > 0 {
		// Reclaimed IDs are handed out lowest-first for determinism.
		slices.Sort(e.free)
	}
	return n
}

// Cancel marks a thread that has never been dispatched as finished
// without running its body, so Recycle can reclaim its slot. After a
// halt unwinds a batch, the threads the scheduler never reached are
// exactly the ones Cancel is for — their work must not leak into the
// engine's next run. It is a no-op for started or already finished
// threads and must be called outside Run.
func (t *Thread) Cancel() {
	if t.eng.running {
		panic("sim: Cancel during Run")
	}
	if t.started || t.done {
		return
	}
	t.done = true
}

// Restart clears a halt so a stopped engine can run again — the
// simulated machine rebooting after a power failure (HaltNow or a
// HaltAt deadline). The halted run unwound every live thread, so
// post-restart work arrives as fresh bodies (typically spawned into
// Recycled slots); virtual time is preserved and keeps advancing from
// where the failure struck. Must be called outside Run.
func (e *Engine) Restart() {
	if e.running {
		panic("sim: Restart during Run")
	}
	e.halted = false
	e.haltAt = -1
}

// Threads returns the spawned threads in ID order.
func (e *Engine) Threads() []*Thread { return e.threads }

// HaltAt schedules a hard stop (e.g. a power failure) the first time the
// scheduler would dispatch a thread at or beyond virtual time at.
func (e *Engine) HaltAt(at Time) { e.haltAt = at }

// HaltNow halts the engine immediately from within the currently running
// thread — an injected power failure at an exact protocol point, in
// contrast to HaltAt's time-based stop at a dispatch boundary. It
// unwinds the calling thread via the halt signal (so no simulator state
// past the call site is mutated); Run then unwinds every other live
// thread and returns. Must be called from simulated-thread context.
func (e *Engine) HaltNow() {
	if !e.running {
		panic("sim: HaltNow outside Run")
	}
	e.halted = true
	panic(haltSignal{})
}

// Halted reports whether the engine stopped before all threads finished.
func (e *Engine) Halted() bool { return e.halted }

// Run drives the simulation until every thread's body has returned, or
// until a halt deadline fires. It returns the final virtual time: the
// maximum clock reached by any thread. Run is not reentrant: one engine
// simulates one world, serially (parallelism across *engines* is safe —
// see the package comment).
//
// A deadlock (every live thread suspended) or a panic escaping a thread
// body propagates as a panic from Run itself, on the caller's
// goroutine; the simulated threads parked at that moment are abandoned.
//
// When exactly one thread is runnable and no other is live, Run executes
// its body on the calling goroutine: a lone thread can never hand the
// token on, so the run needs no goroutine and no channel. It counts as
// one dispatch, and halts, deadlocks and body panics end it exactly as
// they end a multi-thread run. Every other run gives each thread its own
// goroutine.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Engine.Run is not reentrant — use one engine per concurrent simulation")
	}
	e.running = true
	e.runq = e.runq[:0]
	for _, t := range e.threads {
		t.qi = -1
		if !t.done && !t.suspended {
			e.runq.push(t)
		}
	}
	switch u := e.runq.min(); {
	case u == nil:
		if e.liveCount() > 0 {
			panic(e.deadlockReport())
		}
		// Nothing to run (no threads, or all already done).
	case e.haltAt >= 0 && u.clock >= e.haltAt:
		e.halted = true // deadline before the first dispatch: nothing to unwind
	case len(e.runq) == 1 && e.liveCount() == 1:
		e.runInline(e.runq.pop())
	default:
		e.dispatch(e.runq.pop())
	loop:
		for {
			switch <-e.engCh {
			case wakeDone:
				break loop
			case wakeHalt, wakeAck: // wakeAck here: the HaltNow caller unwound itself
				e.halt()
				break loop
			case wakeDeadlock:
				panic(e.deadlockReport())
			case wakePanicked:
				panic(e.panicVal)
			}
		}
	}
	e.running = false
	e.cur = nil
	for _, t := range e.threads {
		if t.clock > e.now {
			e.now = t.clock
		}
	}
	return e.now
}

// liveCount counts threads whose bodies have not returned.
func (e *Engine) liveCount() int {
	n := 0
	for _, t := range e.threads {
		if !t.done {
			n++
		}
	}
	return n
}

// deadlockReport builds the all-live-threads-suspended panic message: a
// deterministic per-thread snapshot (ID order), so the harness's
// grid-cell panic wrapping produces a report that names the stuck
// threads instead of a bare one-liner.
func (e *Engine) deadlockReport() string {
	var b strings.Builder
	b.WriteString("sim: all live threads suspended — deadlock")
	for _, t := range e.threads {
		state := "runnable"
		switch {
		case t.done:
			state = "done"
		case t.suspended:
			state = "suspended"
		}
		fmt.Fprintf(&b, "\n  thread %d %q clock=%v state=%s", t.id, t.Name(), t.clock, state)
	}
	return b.String()
}

// passToken hands the execution token to the next queued thread, or
// wakes the Run goroutine when the simulation has finished, deadlocked,
// or reached the halt deadline. It is called by the thread currently
// holding the token, which must immediately park (Sync) or return
// (thread exit).
func (e *Engine) passToken() {
	u := e.runq.min()
	if u == nil {
		if e.liveCount() > 0 {
			e.engCh <- wakeDeadlock
		} else {
			e.engCh <- wakeDone
		}
		return
	}
	if e.haltAt >= 0 && u.clock >= e.haltAt {
		// Leave u queued: halt unwinds threads directly, not via the queue.
		e.engCh <- wakeHalt
		return
	}
	e.dispatch(e.runq.pop())
}

// dispatch gives the execution token to t in a multi-thread run,
// starting its goroutine (and making its park channel) on first
// dispatch and unparking it otherwise. A lone thread goes to runInline
// instead.
func (e *Engine) dispatch(t *Thread) {
	e.handoffs++
	e.now = t.clock
	e.cur = t
	if !t.started {
		t.started = true
		t.park = make(chan struct{}, 1)
		go e.threadMain(t)
		return
	}
	t.park <- struct{}{}
}

// runInline runs the body of a lone thread on Run's goroutine. The
// thread has no park channel, which is how its Sync knows to end the
// run itself instead of passing the token. A halt unwinds the body and
// is recovered here; any other panic continues out of Run. Only a
// halted engine recovers at all, so an unrecovered body panic keeps the
// body's own frames in its stack trace.
func (e *Engine) runInline(t *Thread) {
	e.handoffs++
	e.now = t.clock
	e.cur = t
	t.started = true
	defer func() {
		t.done = true
		if e.halted {
			if r := recover(); r != nil && r != (haltSignal{}) {
				panic(r) // a body's defer failed while unwinding
			}
		}
	}()
	t.body(t)
}

// threadMain is the goroutine body of a simulated thread: it runs the
// user body and, on return (normal, halt unwind, or panic), passes the
// token on or reports to the Run goroutine.
func (e *Engine) threadMain(t *Thread) {
	defer func() {
		r := recover()
		if _, ok := r.(haltSignal); ok {
			r = nil
		}
		t.done = true
		e.runq.remove(t) // unwinding threads may still be queued
		switch {
		case r != nil:
			e.panicVal = r
			e.engCh <- wakePanicked
		case e.halted:
			e.engCh <- wakeAck
		default:
			e.passToken()
		}
	}()
	t.body(t)
}

// halt stops the engine: every live started thread is unparked once, in
// thread-ID order (threads are spawned in ID order, so no sort is
// needed), so it can unwind via the halt panic; halt waits for each
// unwind to finish before waking the next thread. Threads never started
// are left unstarted.
func (e *Engine) halt() {
	e.halted = true
	for _, t := range e.threads {
		if t.started && !t.done {
			t.park <- struct{}{}
			if <-e.engCh == wakePanicked {
				// A body panicked while unwinding (it must not catch the
				// halt signal, but its own defers can fail): surface the
				// value on the caller's goroutine like any other body
				// panic, abandoning the threads not yet unwound.
				panic(e.panicVal)
			}
		}
	}
}
