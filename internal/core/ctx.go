package core

import (
	"fmt"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
)

// Ctx binds a simulated thread to the machine and a conflict domain. It
// is the software-visible API: Run executes a durable transaction with
// the full Algorithm-1 retry/fallback discipline, and NT returns the
// accessor for non-transactional loads and stores (which still travel
// the hierarchy, pollute the LLC, and are checked against signatures —
// the background false-conflict source of Section IV-D).
type Ctx struct {
	m      *Machine
	th     *sim.Thread
	core   int
	domain int
	inTx   bool
	nt     Accessor // tx == nil
}

// NewCtx registers a thread with the machine. The thread's ID is its
// core; domain is the transaction group ID the modified pthread library
// of Section IV-D would assign (one per process).
func (m *Machine) NewCtx(th *sim.Thread, domain int) *Ctx {
	core := th.ID()
	if core >= m.cfg.Cores {
		panic(fmt.Sprintf("core: thread %d exceeds %d cores", core, m.cfg.Cores))
	}
	m.coreDomain[core] = domain
	return &Ctx{m: m, th: th, core: core, domain: domain, nt: Accessor{m: m, th: th, core: core}}
}

// Run executes body as one durable transaction, implementing Algorithm 1
// of the paper: fast-path attempts with exponential backoff, an
// immediate jump to the serialized slow path on a capacity abort (no
// retry — capacity overflows repeat), and the slow path after
// MaxRetries. body may run multiple times and must keep all of its state
// in simulated memory via the Tx it receives.
func (c *Ctx) Run(body func(*Tx)) {
	if c.inTx {
		panic("core: nested Ctx.Run")
	}
	c.inTx = true
	defer func() { c.inTx = false }()

	lock := c.m.lock(c.domain)
	for attempt := 0; attempt < c.m.opts.MaxRetries; attempt++ {
		// Lines 10–14: wait while a lock holder serializes the domain.
		waitStart := c.th.Clock()
		c.th.WaitUntil(func() bool { return !lock.held }, 50*sim.Nanosecond)
		c.m.noteSlowWait(c, c.th.Clock()-waitStart, false)
		tx := c.m.begin(c, attempt, false)
		ab := c.m.runBody(tx, body)
		if ab == nil {
			return
		}
		if ab.cause == stats.CauseCapacity {
			break // line 15–17: overflow ⇒ slow path without retrying
		}
		c.backoff(attempt)
	}

	// Slow path (line 22–24): serialize under the domain lock.
	c.m.acquireLock(c)
	tx := c.m.begin(c, c.m.opts.MaxRetries, true)
	if ab := c.m.runBody(tx, body); ab != nil {
		panic(fmt.Sprintf("core: slow-path transaction aborted (%v)", stats.AbortCause(ab.cause)))
	}
	c.m.releaseLock(c)
}

// runBody executes body and the commit protocol, converting the abort
// unwind into a result.
func (m *Machine) runBody(tx *Tx, body func(*Tx)) (ab *txAbort) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if a, ok := r.(*txAbort); ok {
			m.finishAbort(tx, *a)
			ab = a
			return
		}
		panic(r)
	}()
	body(tx)
	m.commit(tx)
	return nil
}

// backoff charges a randomized exponential delay before the next
// attempt (the paper's "random backoff delay to avoid subsequent
// aborts").
func (c *Ctx) backoff(attempt int) {
	shift := attempt
	if shift > 7 {
		shift = 7
	}
	d := c.m.lat.BackoffBase << uint(shift)
	d += sim.Time(c.m.eng.Rand().Int63n(int64(d) + 1))
	if d > c.m.lat.BackoffCap {
		d = c.m.lat.BackoffCap
	}
	c.th.Advance(d)
}

// acquireLock takes the domain's fallback lock. Acquiring it aborts
// every fast-path transaction in the domain — the hardware analogue of
// those transactions having the lock word in their read-sets.
func (m *Machine) acquireLock(c *Ctx) {
	l := m.lock(c.domain)
	waitStart := c.th.Clock()
	c.th.WaitUntil(func() bool { return !l.held }, 100*sim.Nanosecond)
	m.noteSlowWait(c, c.th.Clock()-waitStart, true)
	l.held = true
	l.holder = c.core
	for _, t := range m.activeInOrder() {
		if t.domain == c.domain && !t.slowPath && !t.status.abortFlag {
			m.abortVictim(t, stats.CauseLock, nil)
		}
	}
}

// releaseLock frees the domain lock.
func (m *Machine) releaseLock(c *Ctx) {
	l := m.lock(c.domain)
	if !l.held || l.holder != c.core {
		panic("core: releasing a lock not held by this core")
	}
	l.held = false
}

// NT returns the context's non-transactional accessor. It has the same
// loads and stores as Tx, so data structures parameterized over an
// accessor can run inside or outside transactions.
func (c *Ctx) NT() *Accessor { return &c.nt }

// ContextSwitchOut models descheduling the thread (Section IV-E): the
// modified private-cache contents are flushed to the LLC (so a later
// commit or abort can locate them without the core) and the thread is
// suspended. A live transaction stays live — its ID-based directory and
// signature state is unaffected.
func (c *Ctx) ContextSwitchOut() {
	flushed := 0
	c.m.l1[c.core].ForEach(func(a mem.Addr, dirty bool) {
		if !c.m.llc.Contains(a) {
			c.m.llc.Insert(a)
		}
		if dirty {
			c.m.llc.MarkDirty(a)
		}
		flushed++
	})
	c.m.l1[c.core].Reset()
	c.m.drainEvictions(c.m.byCore[c.core])
	c.th.Advance(sim.Time(flushed) * c.m.lat.FlushPerLine)
	c.th.Suspend()
}

// ContextSwitchIn reschedules the thread at virtual time at.
func (c *Ctx) ContextSwitchIn(at sim.Time) { c.th.Resume(at) }
