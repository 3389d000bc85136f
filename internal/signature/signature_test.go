package signature

import (
	"math/rand"
	"testing"
	"testing/quick"

	"uhtm/internal/mem"
)

func TestBadFilterSizePanics(t *testing.T) {
	for _, n := range []int{0, -64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFilter(%d) did not panic", n)
				}
			}()
			NewFilter(n)
		}()
	}
}

func TestInsertContain(t *testing.T) {
	f := NewFilter(Bits1K)
	a := mem.Addr(0x4240)
	if f.MayContain(a) {
		t.Error("empty filter matched")
	}
	f.Insert(a)
	if !f.MayContain(a) {
		t.Error("inserted address not matched")
	}
	// Sub-line addresses alias to the same line.
	if !f.MayContain(a + 63) {
		t.Error("sub-line alias not matched")
	}
}

func TestClear(t *testing.T) {
	f := NewFilter(Bits512)
	for i := 0; i < 100; i++ {
		f.Insert(mem.Addr(i * mem.LineSize))
	}
	f.Clear()
	if f.FillRatio() != 0 {
		t.Error("Clear left state")
	}
}

// TestNoFalseNegatives is the safety-critical property: a Bloom filter
// may over-report but must never miss an inserted line.
func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bitsz := range []int{Bits512, Bits1K, Bits4K, Bits16K} {
		f := NewFilter(bitsz)
		var addrs []mem.Addr
		for i := 0; i < 5000; i++ {
			a := mem.Addr(rng.Uint64() % (1 << 30))
			f.Insert(a)
			addrs = append(addrs, a)
		}
		for _, a := range addrs {
			if !f.MayContain(a) {
				t.Fatalf("%d-bit filter false negative for %#x", bitsz, uint64(a))
			}
		}
	}
}

// TestFalsePositiveRateOrdering verifies the core premise of Figure 7:
// larger signatures produce fewer false positives at durable-transaction
// footprints (hundreds of lines).
func TestFalsePositiveRateOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const inserted = 1600 // ~100 KB of lines, the paper's footprint
	fpRate := func(bitsz int) float64 {
		f := NewFilter(bitsz)
		in := map[mem.Addr]bool{}
		for i := 0; i < inserted; i++ {
			a := mem.LineOf(mem.Addr(rng.Uint64() % (1 << 28)))
			f.Insert(a)
			in[a] = true
		}
		fp, probes := 0, 0
		for i := 0; i < 20000; i++ {
			a := mem.LineOf(mem.Addr(rng.Uint64() % (1 << 28)))
			if in[a] {
				continue
			}
			probes++
			if f.MayContain(a) {
				fp++
			}
		}
		return float64(fp) / float64(probes)
	}
	r512, r4k, r16k := fpRate(Bits512), fpRate(Bits4K), fpRate(Bits16K)
	if !(r512 >= r4k && r4k >= r16k) {
		t.Errorf("false-positive rates not monotone: 512=%.3f 4k=%.3f 16k=%.3f", r512, r4k, r16k)
	}
	// At this footprint a 512-bit filter is saturated — the paper's
	// "more than 99% of transactions experience a false conflict".
	if r512 < 0.9 {
		t.Errorf("512-bit filter fp rate %.3f; expected near-saturation at %d lines", r512, inserted)
	}
}

func TestFillRatio(t *testing.T) {
	f := NewFilter(Bits512)
	if f.FillRatio() != 0 {
		t.Error("fresh filter not empty")
	}
	f.Insert(0)
	r := f.FillRatio()
	if r <= 0 || r > float64(numHashes)/float64(Bits512) {
		t.Errorf("FillRatio after one insert = %v", r)
	}
}

func TestPairChecks(t *testing.T) {
	p := NewPair(Bits16K) // large: negligible false positives here
	rd, wr := mem.Addr(0x10000), mem.Addr(0x20000)
	p.AddRead(rd)
	p.AddWrite(wr)

	probe := func(a mem.Addr, write bool) (bool, bool) {
		k := NewKey(a, Bits16K)
		return p.Probe(&k, write)
	}
	// Incoming write vs our read => conflict; vs our write => conflict.
	if c, m := probe(rd, true); !c || !m || !p.CheckWrite(rd) {
		t.Errorf("write vs read-set = (%v,%v)", c, m)
	}
	if c, m := probe(wr, true); !c || !m || !p.CheckWrite(wr) {
		t.Errorf("write vs write-set = (%v,%v)", c, m)
	}
	// Incoming read vs our read => no conflict, but a match (the sticky
	// signal); vs our write => conflict.
	if c, m := probe(rd, false); c || !m {
		t.Errorf("read vs read-set = (%v,%v)", c, m)
	}
	if c, m := probe(wr, false); !c || !m {
		t.Errorf("read vs write-set = (%v,%v)", c, m)
	}
	// Unrelated address: no conflict, no match.
	if c, m := probe(0x900000, true); c || m || p.CheckWrite(0x900000) {
		t.Errorf("unrelated = (%v,%v)", c, m)
	}
}

// TestPairFalsePositiveClassification drives a small filter to
// saturation and confirms that lines never inserted still conflict —
// the matches the simulator labels false positives, whose aborts follow
// the hardware regardless — and that Clear empties both filters.
func TestPairFalsePositiveClassification(t *testing.T) {
	p := NewPair(Bits512)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		p.AddWrite(mem.Addr(rng.Uint64() % (1 << 28)))
	}
	sawFP := false
	for i := 0; i < 1000 && !sawFP; i++ {
		a := mem.Addr(rng.Uint64()%(1<<28)) | (1 << 35) // disjoint range
		k := NewKey(a, Bits512)
		sawFP, _ = p.Probe(&k, false)
	}
	if !sawFP {
		t.Error("saturated 512-bit filter produced no false positives in 1000 probes")
	}
	p.Clear()
	if p.Read.FillRatio() != 0 || p.Write.FillRatio() != 0 {
		t.Error("Pair.Clear incomplete")
	}
}

// Property: the filters never contradict ground truth — a line inserted
// into either set always conflicts with a write request, and a line in
// the write set always conflicts with a read request. The ground truth
// is a map of the inserted lines.
func TestQuickCheckAgreesWithShadow(t *testing.T) {
	f := func(seeds []uint32, probe uint32) bool {
		p := NewPair(Bits512)
		inR, inW := map[mem.Addr]bool{}, map[mem.Addr]bool{}
		for i, s := range seeds {
			a := mem.Addr(s) * mem.LineSize
			if i%2 == 0 {
				p.AddWrite(a)
				inW[a] = true
			} else {
				p.AddRead(a)
				inR[a] = true
			}
		}
		a := mem.Addr(probe) * mem.LineSize
		k := NewKey(a, Bits512)
		cw, mw := p.Probe(&k, true)
		cr, mr := p.Probe(&k, false)
		if (inW[a] || inR[a]) && (!cw || !mw || !mr) {
			return false // false negative on a write check or a match
		}
		if inW[a] && !cr {
			return false // false negative on a read check
		}
		return cw == p.CheckWrite(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestProbeMatchesFilterRule: one key probed against several pairs
// gives, for each, the per-filter rule — a write conflicts on either
// filter, a read on the write filter, and either filter's match is
// reported — exactly as a fresh hash per call would. 576 bits exercises
// the non-power-of-two bit mapping.
func TestProbeMatchesFilterRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, nbits := range []int{Bits512, 576, Bits4K} {
		pairs := make([]*Pair, 3)
		for i := range pairs {
			pairs[i] = NewPair(nbits)
			for j := 0; j < 60; j++ {
				pairs[i].AddRead(mem.Addr(rng.Intn(4096)) * mem.LineSize)
				pairs[i].AddWrite(mem.Addr(rng.Intn(4096)) * mem.LineSize)
			}
		}
		var outcomes [3]int // no match, match without conflict, conflict
		for n := 0; n < 20000; n++ {
			a := mem.Addr(rng.Intn(4096))*mem.LineSize + mem.Addr(rng.Intn(mem.LineSize))
			write := rng.Intn(2) == 0
			k := NewKey(a, nbits)
			for _, p := range pairs {
				inR, inW := p.Read.MayContain(a), p.Write.MayContain(a)
				want := inW || (write && inR)
				got, hit := p.Probe(&k, write)
				if got != want || hit != (inR || inW) {
					t.Fatalf("%d bits: Probe(%#x, write=%v) = (%v,%v), want (%v,%v)", nbits, uint64(a), write, got, hit, want, inR || inW)
				}
				switch {
				case got:
					outcomes[2]++
				case hit:
					outcomes[1]++
				default:
					outcomes[0]++
				}
			}
		}
		if outcomes[0] == 0 || outcomes[1] == 0 || outcomes[2] == 0 {
			t.Fatalf("%d bits: probe mix produced %v (no match/match/conflict); want every outcome", nbits, outcomes)
		}
	}
}
