package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilRecorderIsInert: the disabled state is a nil pointer — every
// method must be a safe no-op.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(1, 0, EvTxBegin, 1, 0, 0, 0)
	if r.Len() != 0 || r.Events() != nil {
		t.Errorf("nil recorder holds events: len=%d", r.Len())
	}
	r.Reset() // must not panic
}

// TestEmitDisabledAllocatesNothing: the whole point of the nil-receiver
// design is that instrumentation left wired into hot paths costs one
// pointer test and zero allocations when tracing is off.
func TestEmitDisabledAllocatesNothing(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(42, 3, EvTxRead, 7, 0x1000, 0, 0)
	})
	if allocs != 0 {
		t.Errorf("disabled Emit allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkEmitDisabled quantifies the per-call cost of disabled
// tracing (the guard for the <3% fig2 overhead budget: one predictable
// branch, no allocation).
func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(int64(i), 0, EvTxRead, 1, 0x40, 0, 0)
	}
}

// BenchmarkEmitEnabled is the enabled-path counterpart (amortized
// append).
func BenchmarkEmitEnabled(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(int64(i), 0, EvTxRead, 1, 0x40, 0, 0)
	}
}

// TestRecorderOrderAndReset: events come back in emission order; Reset
// empties without disabling.
func TestRecorderOrderAndReset(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		r.Emit(int64(i*10), i, EvTxBegin, uint64(i+1), 0, 1, 0)
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.TS != int64(i*10) || e.TxID != uint64(i+1) || int(e.Core) != i {
			t.Errorf("event %d out of order: %+v", i, e)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Errorf("after Reset: len=%d", r.Len())
	}
}

// TestKindStrings: every kind has a distinct, non-empty name (the trace
// schema's human-readable vocabulary).
func TestKindStrings(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
	if Kind(250).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}

// sampleEvents builds a small, two-transaction lifecycle: tx1 commits,
// tx2 overflows and is aborted by tx1.
func sampleEvents() []Event {
	return []Event{
		{TS: 100, Core: 0, Kind: EvTxBegin, TxID: 1, Arg: 1, Arg2: 2<<1 | 0},
		{TS: 110, Core: 1, Kind: EvTxBegin, TxID: 2, Arg: 2, Arg2: 2<<1 | 1},
		{TS: 120, Core: 0, Kind: EvTxRead, TxID: 1, Addr: 0x40},
		{TS: 130, Core: 0, Kind: EvTxWrite, TxID: 1, Addr: 0x80},
		{TS: 140, Core: 1, Kind: EvTxOverflow, TxID: 2},
		{TS: 150, Core: 0, Kind: EvWALAppend, TxID: 1, Addr: 0x80, Arg: 1 | 1<<8, Arg2: 3},
		{TS: 160, Core: 1, Kind: EvTxAbort, TxID: 2, Addr: 0 + 1, Arg: 5, Arg2: 1},
		{TS: 170, Core: 0, Kind: EvTxCommitBegin, TxID: 1},
		{TS: 180, Core: 0, Kind: EvTxCommitMark, TxID: 1, Arg: 9},
		{TS: 190, Core: 0, Kind: EvTxCommitDone, TxID: 1},
	}
}

// TestSummarize folds the sample lifecycle into per-transaction rows.
func TestSummarize(t *testing.T) {
	sums := Summarize(sampleEvents())
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	tx1, tx2 := sums[0], sums[1]
	if tx1.ID != 1 || !tx1.Committed || tx1.Reads != 1 || tx1.Writes != 1 || tx1.WALAppends != 1 {
		t.Errorf("tx1 summary wrong: %+v", tx1)
	}
	if tx1.Domain != 2 || tx1.SlowPath || tx1.Attempt != 1 {
		t.Errorf("tx1 identity wrong: %+v", tx1)
	}
	if tx1.Start != 100 || tx1.End != 190 {
		t.Errorf("tx1 span = [%d,%d], want [100,190]", tx1.Start, tx1.End)
	}
	if tx2.ID != 2 || tx2.Committed || !tx2.Overflowed || tx2.OverflowTS != 140 {
		t.Errorf("tx2 summary wrong: %+v", tx2)
	}
	if tx2.CauseCode != 5 || tx2.Enemy != 1 || tx2.EnemyCore != 0 {
		t.Errorf("tx2 abort fields wrong: %+v", tx2)
	}
	if !tx2.SlowPath || tx2.Attempt != 2 {
		t.Errorf("tx2 identity wrong: %+v", tx2)
	}
}

// TestWriteChrome: the output is a valid Chrome trace-event JSON object
// with process/thread metadata, one X slice per transaction, abort flow
// arrows, and deterministic bytes.
func TestWriteChrome(t *testing.T) {
	runs := []Run{{Label: "unit/run", Events: sampleEvents()}}
	name := func(c uint64) string { return "cause" }

	var buf bytes.Buffer
	if err := WriteChrome(&buf, runs, name); err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if file.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var slices, flows, metas int
	for _, raw := range file.TraceEvents {
		var e struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		switch {
		case e.Ph == "X" && e.Cat == "tx":
			slices++
		case e.Ph == "s" || e.Ph == "f":
			flows++
		case e.Ph == "M":
			metas++
		}
	}
	if slices != 2 {
		t.Errorf("got %d tx slices, want 2", slices)
	}
	if flows != 2 {
		t.Errorf("got %d flow endpoints, want 2 (s+f)", flows)
	}
	if metas < 3 { // process_name + >=2 thread_name
		t.Errorf("got %d metadata events, want >= 3", metas)
	}
	if !strings.Contains(buf.String(), `"abort:cause"`) {
		t.Error("abort outcome does not use the injected cause name")
	}

	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, runs, name); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two renders of the same events differ")
	}
}

// TestReadChromeTxs round-trips the transaction slices through the file
// format.
func TestReadChromeTxs(t *testing.T) {
	runs := []Run{{Label: "unit/run", Events: sampleEvents()}}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, runs, nil); err != nil {
		t.Fatal(err)
	}
	txs, err := ReadChromeTxs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 {
		t.Fatalf("got %d txs, want 2", len(txs))
	}
	if txs[0].Run != "unit/run" || txs[0].Name != "tx1" || txs[0].Outcome != "commit" {
		t.Errorf("tx1 row wrong: %+v", txs[0])
	}
	if txs[1].Name != "tx2" || !strings.HasPrefix(txs[1].Outcome, "abort:") || txs[1].Enemy != 1 {
		t.Errorf("tx2 row wrong: %+v", txs[1])
	}
	if !txs[1].Slow || txs[1].Attempt != 2 {
		t.Errorf("tx2 identity lost in round trip: %+v", txs[1])
	}
}

// TestReadChromeTxsRejectsGarbage: a non-trace file errors out rather
// than returning an empty summary.
func TestReadChromeTxsRejectsGarbage(t *testing.T) {
	if _, err := ReadChromeTxs(strings.NewReader("not json")); err == nil {
		t.Error("garbage input did not error")
	}
}
