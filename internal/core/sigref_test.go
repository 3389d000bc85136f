package core

import (
	"fmt"
	"math/rand"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/signature"
	"uhtm/internal/sim"
	"uhtm/internal/stats"
)

// shadowSets is one attempt's reference footprint: the lines inserted
// into its read and write signatures.
type shadowSets struct {
	id          uint64
	read, write map[mem.Addr]bool
}

// sigShadow is the reference model of the precise signature footprint
// the tracking flags fSigRead/fSigWrite hold: a map per attempt, filled
// wherever a signature insertion runs (Machine.sigRef's inserted) and
// emptied when the core begins a new attempt. At every probe it derives
// the verdict from the maps — conflict from the filters (or from the
// maps themselves under Ideal), true versus false positive from the
// maps — and compares it with what probeOffChip reported.
type sigShadow struct {
	t      *testing.T
	m      *Machine
	byCore []shadowSets

	probes   int
	errors   int
	verdicts [3]int // none, true, false positive
	matches  int    // matched without a conflict (the sticky signal)
	ntProbes int    // probes by non-transactional requesters
	ntHits   int    // of those, conflicts: a victim rolled back
}

// of returns t's sets, emptying them when t is a new attempt.
func (s *sigShadow) of(t *Tx) *shadowSets {
	sh := &s.byCore[t.core]
	if sh.id != t.id {
		sh.id = t.id
		clear(sh.read)
		clear(sh.write)
	}
	return sh
}

func (s *sigShadow) inserted(t *Tx, la mem.Addr, write bool) {
	sh := s.of(t)
	if write {
		sh.write[la] = true
	} else {
		sh.read[la] = true
	}
}

// errorf reports a mismatch; the sim threads run on their own
// goroutines, so it cannot stop the test, and it keeps quiet after a few.
func (s *sigShadow) errorf(format string, args ...any) {
	if s.errors++; s.errors <= 5 {
		s.t.Errorf(format, args...)
	}
}

func (s *sigShadow) probed(req, other *Tx, la mem.Addr, write bool, verdict uint64, matched bool) {
	if other.finished || other == req {
		s.errorf("probe of tx %d (finished=%v, requester=%v) on %#x", other.id, other.finished, other == req, uint64(la))
		return
	}
	sh := s.of(other)
	inR, inW := sh.read[la], sh.write[la]
	precise := inW || write && inR
	conflict, hit := precise, inR || inW
	if s.m.opts.Detect != DetectIdeal {
		k := signature.NewKey(la, s.m.opts.SigBits)
		conflict, hit = other.sig.Probe(&k, write)
	}
	want := uint64(0)
	if conflict {
		want = 2
		if precise {
			want = 1
		}
	}
	if verdict != want || matched != hit {
		s.errorf("probe of tx %d on %#x (write=%v, in read=%v, in write=%v): got (verdict %d, matched %v), reference (%d, %v)",
			other.id, uint64(la), write, inR, inW, verdict, matched, want, hit)
	}
	s.probes++
	s.verdicts[verdict]++
	if hit && !conflict {
		s.matches++
	}
	if req == nil {
		s.ntProbes++
		if conflict {
			s.ntHits++
		}
	}
}

// runSigRef drives a seeded overflow-heavy run with the reference
// shadow attached. Three transactional threads (cores 0 and 1 in domain
// 0, core 2 in domain 1) alternate transactions that overflow the LLC
// with a private NVM scan and small ones; all of them read and write
// their domain's shared DRAM+NVM region (domains share no data, as
// isolation requires). A non-transactional thread in domain 1 reads and
// writes that domain's region and streams pollution batches, so probes
// come from non-transactional requesters too and their conflicts roll
// victims back.
func runSigRef(t *testing.T, detect Detection, isolation bool) (*sigShadow, *stats.Stats) {
	eng := sim.NewEngine(1)
	opts := DefaultOptions()
	opts.Detect = detect
	opts.Isolation = isolation
	opts.SigBits = signature.Bits512
	cfg := testConfig()
	m := NewMachine(eng, cfg, opts)
	ref := &sigShadow{t: t, m: m, byCore: make([]shadowSets, cfg.Cores)}
	for i := range ref.byCore {
		ref.byCore[i] = shadowSets{read: map[mem.Addr]bool{}, write: map[mem.Addr]bool{}}
	}
	m.sigRef = ref

	d, n := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	const sharedLines, scanLines = 64, 1200 // the test LLC holds 1024 lines
	// Per domain: a DRAM and an NVM region.
	var shared [2][2]mem.Addr
	for i := range shared {
		shared[i] = [2]mem.Addr{d.AllocLines(sharedLines), n.AllocLines(sharedLines)}
	}
	pick := func(domain int, rng *rand.Rand) mem.Addr {
		return shared[domain][rng.Intn(2)] + mem.Addr(rng.Intn(sharedLines))*mem.LineSize
	}
	for core := 0; core < 3; core++ {
		domain := core / 2
		scan := n.AllocLines(scanLines)
		rng := rand.New(rand.NewSource(int64(core) + 1))
		eng.Spawn(fmt.Sprintf("tx%d", core), func(th *sim.Thread) {
			c := m.NewCtx(th, domain)
			for i := 0; i < 8; i++ {
				big := (i+core)%2 == 0
				c.Run(func(tx *Tx) {
					for k := 0; k < 48; k++ {
						if a := pick(domain, rng); rng.Intn(3) == 0 {
							tx.WriteU64(a, uint64(k))
						} else {
							tx.ReadU64(a)
						}
						if big && k%8 == 0 {
							for l := k / 8 * scanLines / 6; l < (k/8+1)*scanLines/6; l++ {
								tx.ReadU64(scan + mem.Addr(l)*mem.LineSize)
							}
						}
					}
				})
			}
		})
	}
	eng.Spawn("nt", func(th *sim.Thread) {
		c := m.NewCtx(th, 1)
		rng := rand.New(rand.NewSource(99))
		const window = 64 << 10
		polluted := d.AllocLines(window / mem.LineSize)
		for i := 0; i < 24; i++ {
			for k := 0; k < 8; k++ {
				if a := pick(1, rng); rng.Intn(2) == 0 {
					c.NT().WriteU64(a, 1)
				} else {
					c.NT().ReadU64(a)
				}
			}
			c.PolluteLLC(polluted, window, 128, 1500*sim.Picosecond, rng)
			th.Advance(2 * sim.Microsecond)
		}
	})
	eng.Run()
	return ref, m.Stats()
}

// TestSigFlagsMatchReferenceShadow checks the precise tracking flags
// against the map-based reference at every probe of overflow-heavy runs
// under staged detection (isolation on and off), signature-only and
// Ideal: each probed transaction's verdict and sticky match must equal
// the reference's, and no finished attempt may be probed.
func TestSigFlagsMatchReferenceShadow(t *testing.T) {
	for _, tc := range []struct {
		detect    Detection
		isolation bool
	}{
		{DetectStaged, false},
		{DetectStaged, true},
		{DetectSignatureOnly, false},
		{DetectIdeal, false},
	} {
		t.Run(fmt.Sprintf("%v/isolation=%v", tc.detect, tc.isolation), func(t *testing.T) {
			ref, st := runSigRef(t, tc.detect, tc.isolation)
			t.Logf("%d probes: verdicts %v, %d sticky-only matches, %d non-transactional (%d conflicts); %d overflows, aborts %v",
				ref.probes, ref.verdicts, ref.matches, ref.ntProbes, ref.ntHits, st.Overflows, st.AbortsBy)
			if st.Overflows == 0 && tc.detect != DetectSignatureOnly {
				t.Error("no transaction overflowed")
			}
			if ref.verdicts[1] == 0 || ref.matches == 0 || ref.ntProbes == 0 || ref.ntHits == 0 {
				t.Error("the run did not cover true conflicts, sticky-only matches and non-transactional conflicts")
			}
			if fp := ref.verdicts[2]; (fp == 0) != (tc.detect == DetectIdeal) {
				t.Errorf("%d false positives under %v", fp, tc.detect)
			}
		})
	}
}
