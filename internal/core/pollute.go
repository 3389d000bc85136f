package core

import (
	"math/rand"

	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

// polluteLookahead is how many lines ahead of the one being processed
// PolluteLLC prefetches the LLC set: enough lines for their work to
// cover a host memory miss on the set.
const polluteLookahead = 8

// PolluteLLC models one bandwidth-bound phase of a memory-intensive
// application (the paper's graph500 observation: a single such app can
// consume the whole shared LLC). n random lines of the private window
// [base, base+window) stream into the LLC in one batch — hardware
// prefetchers keep many fills in flight, so the per-line cost is a
// bandwidth figure (64 B / 1.5 ns ≈ 40 GB/s), not a miss latency.
//
// Each fill is LLC-miss traffic, so it is checked against the address
// signatures in scope exactly like any other miss: without signature
// isolation a saturated transaction signature in another conflict domain
// false-positively aborts on this traffic (the +17 % effect of Section
// IV-D); with isolation the pollution is invisible to other domains. The
// window must be private to this application (its own arena), so
// directory conflicts cannot arise and are not checked.
//
// Each missed line is filled as a stream line (cache.InsertStream): it
// was absent from the inclusive LLC, so no L1 and no directory entry
// holds it, and until a core touches it its eviction needs none of
// drainEvictions' work.
//
// The batch's addresses are drawn up front, which makes the same rng
// calls in the same order as drawing them one by one (nothing else in
// the batch uses rng). That lets the loop prefetch the LLC set of the
// line polluteLookahead ahead while it works on the current one, so the
// host overlaps the stream's set misses instead of taking them in turn.
func (c *Ctx) PolluteLLC(base mem.Addr, window, n int, perLine sim.Time, rng *rand.Rand) {
	m := c.m
	c.th.Sync()
	lines := window / mem.LineSize
	if cap(m.polluteAddrs) < n {
		m.polluteAddrs = make([]mem.Addr, n)
	}
	addrs := m.polluteAddrs[:n]
	for i := range addrs {
		addrs[i] = base + mem.Addr(rng.Intn(lines))*mem.LineSize
	}
	for _, la := range addrs[:min(polluteLookahead, n)] {
		m.llc.Prefetch(la)
	}
	// LLC-missed requests are checked against the signatures in scope.
	// The scope only shrinks within a batch, when a victim's rollback
	// retires it (no other thread runs until the batch ends), so it is
	// recomputed only after a probe found victims.
	var scope []*Tx
	if m.opts.Detect != DetectLLCBounded {
		scope = m.probeScope(c.domain)
	}
	for i, la := range addrs {
		if j := i + polluteLookahead; j < n {
			m.llc.Prefetch(addrs[j])
		}
		if m.llc.Touch(la) {
			continue
		}
		if len(scope) > 0 {
			vs, _ := m.probeOffChip(c.core, la, nil, false, scope)
			for _, v := range vs {
				if !v.tx.status.abortFlag && !v.tx.slowPath {
					m.abortVictim(v.tx, v.cause, nil)
				}
			}
			if len(vs) > 0 {
				scope = m.probeScope(c.domain)
			}
		}
		m.llc.InsertStream(la)
	}
	c.th.Advance(sim.Time(n) * perLine)
	m.drainEvictions(nil)
}
