// Package stats collects and formats the metrics the paper's evaluation
// reports: commit/abort counts with abort-cause decomposition (true
// conflict, signature false positive, capacity overflow — the stacked
// bars of Figure 7), overflow counts, slow-path serializations, and
// throughput.
package stats

import (
	"encoding/json"
	"fmt"
	"strings"

	"uhtm/internal/sim"
)

// AbortCause classifies why a transaction aborted.
type AbortCause int

const (
	// CauseTrueConflict: a real data conflict (directory hit, or a
	// signature hit confirmed by ground truth).
	CauseTrueConflict AbortCause = iota
	// CauseFalsePositive: a signature hit refuted by ground truth — the
	// aborts UHTM's staged detection and isolation exist to eliminate.
	CauseFalsePositive
	// CauseCapacity: an LLC capacity overflow in a bounded HTM.
	CauseCapacity
	// CauseLock: aborted because the fallback lock of the conflict
	// domain was acquired (Algorithm 1 serialization).
	CauseLock
	// CauseExplicit: the body requested an abort (xabort-style).
	CauseExplicit
	numCauses
)

// String names the abort cause; it is the key used in JSON records.
func (c AbortCause) String() string {
	switch c {
	case CauseTrueConflict:
		return "true-conflict"
	case CauseFalsePositive:
		return "false-positive"
	case CauseCapacity:
		return "capacity"
	case CauseLock:
		return "lock"
	case CauseExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("AbortCause(%d)", int(c))
	}
}

// Causes lists all abort causes in presentation order.
func Causes() []AbortCause {
	return []AbortCause{CauseTrueConflict, CauseFalsePositive, CauseCapacity, CauseLock, CauseExplicit}
}

// Stats accumulates transaction-level metrics.
type Stats struct {
	Commits  uint64
	AbortsBy [numCauses]uint64

	SlowPath  uint64 // transactions that ran serialized under the lock
	Overflows uint64 // transaction attempts that overflowed the LLC

	ReadLines  uint64 // distinct lines read by committed transactions
	WriteLines uint64 // distinct lines written by committed transactions

	SigChecks uint64 // signature probe count (bus traffic proxy)

	// SigOccupancy histograms the write-signature fill ratio of
	// overflowed transactions sampled when each finishes: bucket i
	// covers [i*10%, (i+1)*10%). High buckets mean the configured
	// signature size is saturating (false positives follow).
	SigOccupancy [10]uint64

	// AbortChain histograms commits by the abort-chain depth that
	// preceded them on their core: bucket 0 = committed with no
	// preceding abort cascade, bucket d = a chain of d cascading aborts
	// (a victim whose aborter itself was aborted counts one deeper);
	// bucket 7 aggregates depth >= 7. AbortChainMax is the deepest chain
	// observed.
	AbortChain    [8]uint64
	AbortChainMax uint64

	// SlowPathWait totals virtual time threads spent waiting on fallback
	// locks (both pausing while a holder drains and acquiring the lock).
	SlowPathWait sim.Time

	Elapsed sim.Time // simulated wall-clock covered by this Stats
}

// Aborts returns the total abort count across causes.
func (s *Stats) Aborts() uint64 {
	var n uint64
	for _, v := range s.AbortsBy {
		n += v
	}
	return n
}

// Attempts returns commits + aborts (each retry counts once).
func (s *Stats) Attempts() uint64 { return s.Commits + s.Aborts() }

// AbortRate returns aborts / attempts, the y-axis of Figure 7.
func (s *Stats) AbortRate() float64 {
	a := s.Attempts()
	if a == 0 {
		return 0
	}
	return float64(s.Aborts()) / float64(a)
}

// CauseShare returns the fraction of attempts aborted for cause c.
func (s *Stats) CauseShare(c AbortCause) float64 {
	a := s.Attempts()
	if a == 0 {
		return 0
	}
	return float64(s.AbortsBy[c]) / float64(a)
}

// Add merges o into s (Elapsed takes the max: parallel threads).
func (s *Stats) Add(o *Stats) {
	s.Commits += o.Commits
	for i := range s.AbortsBy {
		s.AbortsBy[i] += o.AbortsBy[i]
	}
	s.SlowPath += o.SlowPath
	s.Overflows += o.Overflows
	s.ReadLines += o.ReadLines
	s.WriteLines += o.WriteLines
	s.SigChecks += o.SigChecks
	for i := range s.SigOccupancy {
		s.SigOccupancy[i] += o.SigOccupancy[i]
	}
	for i := range s.AbortChain {
		s.AbortChain[i] += o.AbortChain[i]
	}
	if o.AbortChainMax > s.AbortChainMax {
		s.AbortChainMax = o.AbortChainMax
	}
	s.SlowPathWait += o.SlowPathWait
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

// statsJSON is the wire form of Stats: the abort decomposition keyed by
// cause name rather than array position, plus the derived totals the
// paper's figures report. Map keys are emitted sorted by encoding/json,
// so identical Stats marshal to identical bytes.
type statsJSON struct {
	Commits    uint64            `json:"commits"`
	Aborts     uint64            `json:"aborts"`
	AbortsBy   map[string]uint64 `json:"aborts_by"`
	AbortRate  float64           `json:"abort_rate"`
	SlowPath   uint64            `json:"slow_path"`
	Overflows  uint64            `json:"overflows"`
	ReadLines  uint64            `json:"read_lines"`
	WriteLines uint64            `json:"write_lines"`
	SigChecks  uint64            `json:"sig_checks"`

	SigOccupancy   [10]uint64 `json:"sig_occupancy"`
	AbortChain     [8]uint64  `json:"abort_chain"`
	AbortChainMax  uint64     `json:"abort_chain_max"`
	SlowPathWaitPS int64      `json:"slow_path_wait_ps"`

	ElapsedPS int64 `json:"elapsed_ps"`
}

// MarshalJSON emits the named-cause wire form (see statsJSON).
func (s Stats) MarshalJSON() ([]byte, error) {
	by := make(map[string]uint64, len(s.AbortsBy))
	for _, c := range Causes() {
		if v := s.AbortsBy[c]; v != 0 {
			by[c.String()] = v
		}
	}
	return json.Marshal(statsJSON{
		Commits:        s.Commits,
		Aborts:         s.Aborts(),
		AbortsBy:       by,
		AbortRate:      s.AbortRate(),
		SlowPath:       s.SlowPath,
		Overflows:      s.Overflows,
		ReadLines:      s.ReadLines,
		WriteLines:     s.WriteLines,
		SigChecks:      s.SigChecks,
		SigOccupancy:   s.SigOccupancy,
		AbortChain:     s.AbortChain,
		AbortChainMax:  s.AbortChainMax,
		SlowPathWaitPS: int64(s.SlowPathWait),
		ElapsedPS:      int64(s.Elapsed),
	})
}

// UnmarshalJSON reverses MarshalJSON; derived fields (aborts,
// abort_rate) are recomputed from the decomposition, not trusted.
func (s *Stats) UnmarshalJSON(b []byte) error {
	var w statsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Stats{
		Commits:       w.Commits,
		SlowPath:      w.SlowPath,
		Overflows:     w.Overflows,
		ReadLines:     w.ReadLines,
		WriteLines:    w.WriteLines,
		SigChecks:     w.SigChecks,
		SigOccupancy:  w.SigOccupancy,
		AbortChain:    w.AbortChain,
		AbortChainMax: w.AbortChainMax,
		SlowPathWait:  sim.Time(w.SlowPathWaitPS),
		Elapsed:       sim.Time(w.ElapsedPS),
	}
	for _, c := range Causes() {
		s.AbortsBy[c] = w.AbortsBy[c.String()]
	}
	return nil
}

// String is a one-line human-readable summary of the counters.
func (s *Stats) String() string {
	return fmt.Sprintf("commits=%d aborts=%d (true=%d fp=%d cap=%d lock=%d) slow=%d ovf=%d rate=%.1f%%",
		s.Commits, s.Aborts(),
		s.AbortsBy[CauseTrueConflict], s.AbortsBy[CauseFalsePositive],
		s.AbortsBy[CauseCapacity], s.AbortsBy[CauseLock],
		s.SlowPath, s.Overflows, 100*s.AbortRate())
}

// Table renders rows of labelled values as an aligned text table; the
// CLI uses it to print each figure's series.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table with right-aligned columns (first column
// left-aligned).
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i == 0 {
			b.WriteString(strings.Repeat("-", w))
		} else {
			b.WriteString("  " + strings.Repeat("-", w))
		}
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
