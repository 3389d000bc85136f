package crash

import (
	"reflect"
	"strings"
	"testing"

	"uhtm/internal/core"
	"uhtm/internal/mem"
)

// requiredPoints is the full set of injection points the small workload
// must reach: every step of the commit, abort and reclamation protocols
// plus the log-append and per-line persist points beneath them. The
// exhaustive sweep is only meaningful if all of them are visited.
var requiredPoints = []string{
	core.PointCommitBegin,
	core.PointCommitRecord,
	core.PointCommitMark,
	core.PointCommitFlush,
	core.PointCommitDRAM,
	core.PointCommitCleanup,
	core.PointAbortBegin,
	core.PointAbortUndo,
	core.PointAbortMark,
	core.PointAbortDone,
	core.PointReclaimBegin,
	core.PointReclaimImage,
	core.PointReclaimDrain,
	core.PointReclaimCkpt,
	core.PointReclaimRings,
	"wal.redo.append.record",
	"wal.redo.append.ctrl",
	"wal.redo.reclaim.ctrl",
	"wal.undo.append.record",
	"wal.undo.append.ctrl",
	"wal.undo.reclaim.ctrl",
	mem.PointPersistLine,
}

func TestInjectorCounting(t *testing.T) {
	in := NewCounter()
	in.Hit("a")
	in.Hit("b")
	in.Hit("a")
	if in.Fired() {
		t.Error("counting injector fired")
	}
	if got := in.Hits(); !reflect.DeepEqual(got, map[string]int{"a": 2, "b": 1}) {
		t.Errorf("Hits = %v", got)
	}
	injs := enumerate(in.Hits())
	want := []Injection{{"a", 1}, {"a", 2}, {"b", 1}}
	if !reflect.DeepEqual(injs, want) {
		t.Errorf("enumerate = %v, want %v", injs, want)
	}
}

func TestInjectorArming(t *testing.T) {
	in := Arm(Injection{Point: "p", Visit: 2})
	if in.Hit("p") || in.Fired() {
		t.Fatal("fired on visit 1, armed for visit 2")
	}
	if in.Hit("q") {
		t.Fatal("fired on an unarmed point")
	}
	if !in.Hit("p") || !in.Fired() {
		t.Fatal("did not fire on visit 2")
	}
	// Disarmed after firing: further hits are ignored.
	if in.Hit("p") {
		t.Fatal("fired again after firing")
	}
	if in.Hits()["p"] != 2 {
		t.Errorf("hits[p] = %d after disarm, want 2", in.Hits()["p"])
	}
}

// TestExhaustiveSmallSweep is the acceptance test for the framework:
// every (point, visit) pair of the small workload is injected, and
// recovery must satisfy the committed-prefix oracle at all of them.
func TestExhaustiveSmallSweep(t *testing.T) {
	w := SmallWorkload()
	injs, hits, err := Enumerate(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range requiredPoints {
		if hits[p] == 0 {
			t.Errorf("required injection point %s never visited", p)
		}
	}
	fails := 0
	for _, inj := range injs {
		o := RunInjection(w, inj)
		if o.Verdict != "ok" {
			fails++
			if fails <= 10 {
				t.Errorf("%s visit %d: %s", inj.Point, inj.Visit, o.Verdict)
			}
		}
	}
	if fails > 0 {
		t.Errorf("%d/%d injections violated recovery invariants", fails, len(injs))
	}
	t.Logf("verified %d injections across %d points", len(injs), len(hits))
}

// TestSampledLargeSweep checks the seeded-random mode on the large
// workload: a deterministic sample of its thousands of injection points.
func TestSampledLargeSweep(t *testing.T) {
	w := LargeWorkload()
	injs, hits, err := Enumerate(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(injs) < 1000 {
		t.Fatalf("large workload enumerated only %d injections", len(injs))
	}
	for _, p := range requiredPoints {
		if hits[p] == 0 {
			t.Errorf("required injection point %s never visited", p)
		}
	}
	n := 24
	if testing.Short() {
		n = 6
	}
	for _, inj := range Sample(injs, n, 1) {
		if o := RunInjection(w, inj); o.Verdict != "ok" {
			t.Errorf("%s visit %d: %s", inj.Point, inj.Visit, o.Verdict)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	injs := enumerate(map[string]int{"a": 5, "b": 5, "c": 5})
	s1 := Sample(injs, 4, 9)
	s2 := Sample(injs, 4, 9)
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("same seed, different samples: %v vs %v", s1, s2)
	}
	if len(s1) != 4 {
		t.Errorf("sample size = %d, want 4", len(s1))
	}
	all := Sample(injs, 100, 9)
	if !reflect.DeepEqual(all, injs) {
		t.Error("oversized sample should return all injections")
	}
}

// TestInjectionDeterministic: the same injection must produce the same
// crash state (virtual time, replay shape, verdict) on every run — the
// property that lets sweeps fan out across workers.
func TestInjectionDeterministic(t *testing.T) {
	w := SmallWorkload()
	inj := Injection{Point: core.PointCommitFlush, Visit: 7}
	a := RunInjection(w, inj)
	b := RunInjection(w, inj)
	if a.Verdict != b.Verdict || a.Elapsed != b.Elapsed || a.Replay != b.Replay {
		t.Errorf("nondeterministic injection: %+v vs %+v", a, b)
	}
	if a.Verdict != "ok" {
		t.Errorf("verdict: %s", a.Verdict)
	}
}

// corruptLine flips one byte of a durable NVM data line in place — a
// recovery that restored the wrong image.
func corruptLine(m *core.Machine, la mem.Addr) {
	st := m.Store()
	ln := st.PeekLine(la)
	ln[0] ^= 0xFF
	st.WriteLine(la, &ln)
	st.PersistLine(la, &ln)
}

// TestVerifyCatchesCorruptedLine is the oracle's negative test: the same
// recovered instance that verifies clean must fail once one recovered
// durable data line is corrupted.
func TestVerifyCatchesCorruptedLine(t *testing.T) {
	for _, w := range []Workload{SmallWorkload(), LargeWorkload()} {
		in := Arm(Injection{Point: core.PointCommitFlush, Visit: 3})
		run := w.Start(in)
		if !in.Fired() {
			t.Fatalf("%s: injection never fired", w.Name)
		}
		run.Recover()
		if d := run.Verify(); d != "" {
			t.Fatalf("%s: clean recovery failed verification: %s", w.Name, d)
		}
		st := run.(*runState)
		corruptLine(st.m, st.nvmPool[0])
		if d := run.Verify(); !strings.HasPrefix(d, "line ") {
			t.Errorf("%s: corrupted line verified as %q, want a line mismatch", w.Name, d)
		}
	}
}

// TestUnknownPointNeverReached: an injection naming a point the
// workload never visits is reported, not panicked on.
func TestUnknownPointNeverReached(t *testing.T) {
	o := RunInjection(SmallWorkload(), Injection{Point: "no.such.point", Visit: 1})
	if !strings.HasPrefix(o.Verdict, "fail: point no.such.point visit 1 never reached") {
		t.Errorf("verdict = %q", o.Verdict)
	}
}
