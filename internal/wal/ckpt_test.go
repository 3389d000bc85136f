package wal

import (
	"testing"

	"uhtm/internal/mem"
)

// ckpt builds a small fuzzy checkpoint for the tests below.
func ckpt(seq, low uint64, active ...CkptActive) Checkpoint {
	return Checkpoint{Seq: seq, LowWater: low, DirtyLines: int(seq * 3), Active: active}
}

// sameCkpt compares everything but BeginSeq (assigned at append time).
func sameCkpt(a, b Checkpoint) bool {
	if a.Seq != b.Seq || a.LowWater != b.LowWater || a.DirtyLines != b.DirtyLines || len(a.Active) != len(b.Active) {
		return false
	}
	for i := range a.Active {
		if a.Active[i] != b.Active[i] {
			return false
		}
	}
	return true
}

// TestCheckpointRoundTrip: a checkpoint group decodes back exactly from
// the durable window, via the cell-style direct lookup and the scanning
// fallback.
func TestCheckpointRoundTrip(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	want := ckpt(1, 42, CkptActive{TxID: 7, CommitLSN: 43}, CkptActive{TxID: 9})
	begin := l.AppendCheckpoint(want)

	got, ok := l.Window().CheckpointAt(begin)
	if !ok || !sameCkpt(got, want) || got.BeginSeq != begin {
		t.Errorf("CheckpointAt = %+v, %v; want %+v", got, ok, want)
	}
	got, ok = l.Window().LatestCheckpoint()
	if !ok || !sameCkpt(got, want) {
		t.Errorf("LatestCheckpoint = %+v, %v; want %+v", got, ok, want)
	}

	// CheckpointAt on a non-begin record must fail, not mis-decode.
	if _, ok := l.Window().CheckpointAt(begin + 1); ok {
		t.Error("CheckpointAt on a RecCkptActive record succeeded")
	}
}

// TestLatestCheckpointPicksNewest: with two complete groups on the ring
// the newest wins, and truncating the older one keeps the answer.
func TestLatestCheckpointPicksNewest(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	b1 := l.AppendCheckpoint(ckpt(1, 10))
	want := ckpt(2, 20, CkptActive{TxID: 5, CommitLSN: 21})
	l.AppendCheckpoint(want)

	got, ok := l.Window().LatestCheckpoint()
	if !ok || !sameCkpt(got, want) {
		t.Fatalf("LatestCheckpoint = %+v, %v; want %+v", got, ok, want)
	}
	l.Reclaim(b1 + 2) // drop group 1 (begin + end, no actives)
	if got, ok := l.Window().LatestCheckpoint(); !ok || !sameCkpt(got, want) {
		t.Errorf("after truncating group 1: LatestCheckpoint = %+v, %v", got, ok)
	}
}

// TestTornCheckpointFallsBack: a power failure can persist only some
// cache lines of a multi-record checkpoint group. Whatever part of the
// newest group is torn — begin, an active entry, or the end record —
// recovery must fall back to the previous complete checkpoint, and a
// direct cell-style lookup of the torn group must fail.
func TestTornCheckpointFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record uint64 // offset from the newest group's begin seq to corrupt
	}{
		{"torn-begin", 0},
		{"torn-active", 1},
		{"torn-end", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore()
			l := NewLog(s, mem.NVMLogBase, 1<<20, true)
			prev := ckpt(1, 10, CkptActive{TxID: 3, CommitLSN: 11})
			l.AppendCheckpoint(prev)
			b2 := l.AppendCheckpoint(ckpt(2, 20, CkptActive{TxID: 8}))
			corruptDurable(s, l.slotAddr(b2+tc.record)+16)
			s.Crash()

			if _, ok := l.Window().CheckpointAt(b2); ok {
				t.Error("CheckpointAt on the torn group succeeded")
			}
			got, ok := l.Window().LatestCheckpoint()
			if !ok || !sameCkpt(got, prev) {
				t.Errorf("LatestCheckpoint = %+v, %v; want fallback to %+v", got, ok, prev)
			}
		})
	}
}

// TestTruncatedCheckpointFallsBack: the tail of a checkpoint group never
// reached durability at all — the control block advanced only past the
// begin record (crash between per-record appends). The durable window
// then ends mid-group; the previous complete checkpoint must win.
func TestTruncatedCheckpointFallsBack(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	prev := ckpt(1, 10)
	l.AppendCheckpoint(prev)
	// Hand-append only the begin record of checkpoint 2, exactly as a
	// crash after the first append of AppendCheckpoint would leave it.
	var data mem.Line
	data[0] = 2 // two active entries that will never arrive
	b2 := l.Append(Record{Type: RecCkptBegin, TxID: 2, LSN: 20, Data: data})
	s.Crash()

	if _, ok := l.Window().CheckpointAt(b2); ok {
		t.Error("CheckpointAt on the truncated group succeeded")
	}
	got, ok := l.Window().LatestCheckpoint()
	if !ok || !sameCkpt(got, prev) {
		t.Errorf("LatestCheckpoint = %+v, %v; want fallback to %+v", got, ok, prev)
	}
}
