package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
	"uhtm/internal/trace"
)

// polluteLLCPerLine is the reference PolluteLLC must match bit for bit:
// one rng draw, one LLC Touch and, on a miss, one signature probe over
// a probe scope computed afresh, per line, with no look-ahead and no
// batch scope.
func (c *Ctx) polluteLLCPerLine(base mem.Addr, window, n int, perLine sim.Time, rng *rand.Rand) {
	m := c.m
	c.th.Sync()
	lines := window / mem.LineSize
	for i := 0; i < n; i++ {
		la := base + mem.Addr(rng.Intn(lines))*mem.LineSize
		if !m.llc.Touch(la) {
			if m.opts.Detect != DetectLLCBounded {
				vs, _ := m.probeOffChip(c.core, la, nil, false, m.probeScope(c.domain))
				for _, v := range vs {
					if !v.tx.status.abortFlag && !v.tx.slowPath {
						m.abortVictim(v.tx, v.cause, nil)
					}
				}
			}
			m.llc.Insert(la)
		}
	}
	c.th.Advance(sim.Time(n) * perLine)
	m.drainEvictions(nil)
}

// pollutionSnapshot is everything a pollution batch can change that
// the simulation later observes.
type pollutionSnapshot struct {
	LLC      []string // resident lines in ForEach order
	Stats    stats.Stats
	Domains  map[int]stats.Stats
	NextDraw int64 // the polluter's next rng value
	Events   []trace.Event
	Live     int // live transactions
}

func snapshotPollution(m *Machine, rng *rand.Rand) pollutionSnapshot {
	s := pollutionSnapshot{Stats: *m.Stats(), Domains: map[int]stats.Stats{}, NextDraw: rng.Int63(), Live: len(m.activeInOrder())}
	m.llc.ForEach(func(a mem.Addr, dirty bool) { s.LLC = append(s.LLC, fmt.Sprintf("%#x/%v", uint64(a), dirty)) })
	for d, ds := range m.domainStats {
		s.Domains[d] = *ds
	}
	s.Events = append(s.Events, m.TraceEvents()...)
	return s
}

// sigChecks totals the signature probes of every domain.
func (s *pollutionSnapshot) sigChecks() uint64 {
	n := uint64(0)
	for _, d := range s.Domains {
		n += d.SigChecks
	}
	return n
}

type polluteFunc func(c *Ctx, base mem.Addr, window, n int, perLine sim.Time, rng *rand.Rand)

// runPollutionCase runs two pollution batches from core 3 while up to
// three transactions are live: a tiny one in domain 1 that starts
// first, then an overflowed one in domain 0 and a smaller overflowed
// one in domain 1. A transaction whose first attempt aborts before the
// batches (a saturated signature without isolation) commits empty on
// its retry. The machine is snapshotted before the batches, after each
// and at the end of the run.
func runPollutionCase(detect Detection, isolation bool, polluterDomain int, pollute polluteFunc) []pollutionSnapshot {
	eng := sim.NewEngine(1)
	eng.SetTracer(trace.NewRecorder())
	opts := DefaultOptions()
	opts.Detect = detect
	opts.Isolation = isolation
	opts.SigBits = signature.Bits512
	m := NewMachine(eng, testConfig(), opts)

	// LLC-bounded transactions must fit on chip until the pollution
	// evicts them.
	big := 3000
	if detect == DetectLLCBounded {
		big = 300
	}
	al := mem.NewAllocator(mem.DRAM)
	settled, done := 0, false
	for i, tc := range []struct{ domain, lines int }{{1, 2}, {0, big}, {1, big / 2}} {
		base := al.AllocLines(tc.lines)
		first, lines, domain := i == 0, tc.lines, tc.domain
		eng.Spawn(fmt.Sprintf("tx%d", i), func(th *sim.Thread) {
			c := m.NewCtx(th, domain)
			if !first {
				th.WaitUntil(func() bool { return settled > 0 }, sim.Microsecond)
			}
			mine := false
			settle := func() {
				if !mine {
					mine = true
					settled++
				}
			}
			c.Run(func(tx *Tx) {
				if tx.Attempt() > 0 || tx.SlowPath() {
					settle()
					return
				}
				for l := 0; l < lines; l++ {
					tx.WriteU64(base+mem.Addr(l)*mem.LineSize, 1)
				}
				settle()
				th.WaitUntil(func() bool { return done || tx.status.abortFlag }, sim.Microsecond)
				tx.checkAbortFlag()
			})
		})
	}
	const window = 128 << 10 // twice the test LLC: hits and misses
	wbase := al.AllocLines(window / mem.LineSize)
	var snaps []pollutionSnapshot
	var rng *rand.Rand
	eng.Spawn("polluter", func(th *sim.Thread) {
		c := m.NewCtx(th, polluterDomain)
		rng = rand.New(rand.NewSource(1001))
		th.WaitUntil(func() bool { return settled == 3 }, sim.Microsecond)
		snaps = append(snaps, snapshotPollution(m, rng))
		for batch := 0; batch < 2; batch++ {
			pollute(c, wbase, window, 4096, 1500*sim.Picosecond, rng)
			snaps = append(snaps, snapshotPollution(m, rng))
		}
		done = true
	})
	eng.Run()
	return append(snaps, snapshotPollution(m, rng))
}

// TestPolluteLLCMatchesPerLineReference checks that the pipelined
// pollution batch (addresses drawn up front, sets prefetched ahead, the
// probe scope computed once per batch and again after an abort) leaves
// the same LLC contents, counters, rng state and event stream as the
// per-line loop, across detection schemes, isolation on and off, and
// live transactions in and out of the polluting domain.
func TestPolluteLLCMatchesPerLineReference(t *testing.T) {
	midBatchAborts := 0
	for _, detect := range []Detection{DetectStaged, DetectIdeal, DetectSignatureOnly, DetectLLCBounded} {
		for _, isolation := range []bool{true, false} {
			for _, polluterDomain := range []int{0, 1, 2} {
				name := fmt.Sprintf("%v/isolation=%v/domain=%d", detect, isolation, polluterDomain)
				t.Run(name, func(t *testing.T) {
					got := runPollutionCase(detect, isolation, polluterDomain, (*Ctx).PolluteLLC)
					want := runPollutionCase(detect, isolation, polluterDomain, (*Ctx).polluteLLCPerLine)
					for i := range want {
						g, w := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
						for f := 0; f < g.NumField(); f++ {
							if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
								t.Errorf("snapshot %d: %s differs from the per-line reference", i, g.Type().Field(f).Name)
							}
						}
					}
					// Before the capacity aborts of its final drain, only a
					// probe abort retires a transaction during a batch.
					before, after := want[0], want[1]
					if detect != DetectLLCBounded {
						midBatchAborts += before.Live - after.Live
					}
					if (detect == DetectStaged || detect == DetectSignatureOnly) && !isolation && after.Live == before.Live {
						t.Errorf("%d live transactions survived a saturated-signature batch: no mid-batch abort covered", after.Live)
					}
					if isolation && polluterDomain == 2 && after.sigChecks() != before.sigChecks() {
						t.Errorf("a batch with no transaction in scope made %d signature probes", after.sigChecks()-before.sigChecks())
					}
				})
			}
		}
	}
	if midBatchAborts == 0 {
		t.Error("no case aborted a victim mid-batch")
	}
}

// TestStreamVictimsCarryNoTrackedState runs pollution batches beside
// live transactions that read and write lines of their own, on a
// Paranoid machine, whose eviction drain panics if a stream victim has
// an L1 copy or directory state. The batches evict the transactions'
// tracked lines too, so the drain sees both kinds of victim.
func TestStreamVictimsCarryNoTrackedState(t *testing.T) {
	for _, detect := range []Detection{DetectStaged, DetectLLCBounded} {
		t.Run(fmt.Sprint(detect), func(t *testing.T) {
			eng := sim.NewEngine(1)
			opts := DefaultOptions()
			opts.Detect = detect
			if !opts.Paranoid {
				t.Fatal("DefaultOptions is not Paranoid")
			}
			m := NewMachine(eng, testConfig(), opts)
			al := mem.NewAllocator(mem.DRAM)
			done := false
			for i := 0; i < 3; i++ {
				data, domain := al.AllocLines(32), i%2
				eng.Spawn(fmt.Sprintf("tx%d", i), func(th *sim.Thread) {
					c := m.NewCtx(th, domain)
					for k := 0; !done; k++ {
						c.Run(func(tx *Tx) {
							// Mostly reads: a read leaves its line clean
							// in the LLC and in this core's L1.
							for l := 0; l < 24; l++ {
								a := data + mem.Addr((k+l)%32)*mem.LineSize
								if l%6 == 0 {
									tx.WriteU64(a, uint64(k))
								} else {
									tx.ReadU64(a)
								}
							}
							th.Advance(2 * sim.Microsecond)
						})
					}
				})
			}
			const window = 128 << 10 // twice the test LLC
			wbase := al.AllocLines(window / mem.LineSize)
			eng.Spawn("polluter", func(th *sim.Thread) {
				c := m.NewCtx(th, 0)
				rng := rand.New(rand.NewSource(5))
				for b := 0; b < 40; b++ {
					c.PolluteLLC(wbase, window, 256, 1500*sim.Picosecond, rng)
					th.Advance(sim.Microsecond)
				}
				done = true
			})
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatal(r)
					}
				}()
				eng.Run()
			}()
			if m.Stats().Overflows == 0 {
				t.Error("no transaction overflowed: the batches evicted no tracked line")
			}
		})
	}
}
