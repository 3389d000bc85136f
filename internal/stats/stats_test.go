package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"uhtm/internal/sim"
)

func TestAbortAccounting(t *testing.T) {
	var s Stats
	s.Commits = 90
	s.AbortsBy[CauseTrueConflict] = 4
	s.AbortsBy[CauseFalsePositive] = 5
	s.AbortsBy[CauseCapacity] = 1
	if s.Aborts() != 10 {
		t.Errorf("Aborts = %d", s.Aborts())
	}
	if s.Attempts() != 100 {
		t.Errorf("Attempts = %d", s.Attempts())
	}
	if got := s.AbortRate(); got != 0.10 {
		t.Errorf("AbortRate = %v", got)
	}
	if got := s.CauseShare(CauseFalsePositive); got != 0.05 {
		t.Errorf("CauseShare(fp) = %v", got)
	}
}

func TestEmptyStats(t *testing.T) {
	var s Stats
	if s.AbortRate() != 0 || s.CauseShare(CauseLock) != 0 {
		t.Error("zero stats produced non-zero rates")
	}
}

func TestAdd(t *testing.T) {
	a := Stats{Commits: 10, Elapsed: 5 * sim.Microsecond, SigChecks: 3}
	a.AbortsBy[CauseLock] = 2
	b := Stats{Commits: 20, Elapsed: 9 * sim.Microsecond, Overflows: 7}
	b.AbortsBy[CauseLock] = 1
	a.Add(&b)
	if a.Commits != 30 || a.AbortsBy[CauseLock] != 3 || a.Overflows != 7 || a.SigChecks != 3 {
		t.Errorf("Add result: %+v", a)
	}
	if a.Elapsed != 9*sim.Microsecond {
		t.Errorf("Elapsed = %v, want max", a.Elapsed)
	}
}

func TestCauseStrings(t *testing.T) {
	want := map[AbortCause]string{
		CauseTrueConflict:  "true-conflict",
		CauseFalsePositive: "false-positive",
		CauseCapacity:      "capacity",
		CauseLock:          "lock",
		CauseExplicit:      "explicit",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), w)
		}
	}
	if len(Causes()) != int(numCauses) {
		t.Errorf("Causes() lists %d of %d causes", len(Causes()), int(numCauses))
	}
}

func TestStatsString(t *testing.T) {
	var s Stats
	s.Commits = 3
	s.AbortsBy[CauseCapacity] = 1
	out := s.String()
	for _, frag := range []string{"commits=3", "cap=1", "rate=25.0%"} {
		if !strings.Contains(out, frag) {
			t.Errorf("String() = %q missing %q", out, frag)
		}
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	s := Stats{
		Commits:    40,
		SlowPath:   2,
		Overflows:  5,
		ReadLines:  100,
		WriteLines: 60,
		SigChecks:  9,
		Elapsed:    3 * sim.Microsecond,
	}
	s.AbortsBy[CauseTrueConflict] = 1
	s.AbortsBy[CauseFalsePositive] = 7
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"commits":40`, `"aborts":8`, `"false-positive":7`, `"abort_rate":`, `"elapsed_ps":3000000`} {
		if !strings.Contains(string(b), frag) {
			t.Errorf("JSON %s missing %q", b, frag)
		}
	}
	// Zero causes are omitted from the decomposition.
	if strings.Contains(string(b), "capacity") {
		t.Errorf("JSON %s includes zero-valued cause", b)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round-trip mismatch:\n in  %+v\n out %+v", s, back)
	}
}

// TestStatsJSONDeterministic: identical stats marshal to identical
// bytes — the property the -par determinism guarantee rests on.
func TestStatsJSONDeterministic(t *testing.T) {
	mk := func() Stats {
		var s Stats
		s.Commits = 11
		s.AbortsBy[CauseLock] = 2
		s.AbortsBy[CauseExplicit] = 3
		s.Elapsed = sim.Millisecond
		return s
	}
	a, _ := json.Marshal(mk())
	b, _ := json.Marshal(mk())
	if !bytes.Equal(a, b) {
		t.Errorf("same stats marshalled differently:\n%s\n%s", a, b)
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("a-much-longer-name", "22")
	out := tbl.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[2]) && len(lines[2]) != len(lines[3]) {
		t.Errorf("misaligned table:\n%s", out)
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("missing separator: %q", lines[1])
	}
}
