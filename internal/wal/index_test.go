package wal

import (
	"slices"
	"testing"

	"uhtm/internal/mem"
)

// groups lists the ring's group index, oldest first.
func groups(l *Log) []Group {
	out := make([]Group, l.Groups())
	for i := range out {
		out[i] = l.Group(i)
	}
	return out
}

// TestGroupIndexFates pins what the index records: one group per run of
// same-TxID records, fates set from the marks, an apply mark stamping
// its earlier prepare group, and Reclaim dropping exactly the groups it
// passes.
func TestGroupIndexFates(t *testing.T) {
	l := NewLog(newStore(), mem.NVMLogBase, 8<<10, true)
	const gid = 1<<63 | 7
	l.Append(Record{Type: RecWrite, TxID: 1})
	l.Append(Record{Type: RecCommit, TxID: 1, LSN: 1}) // group [0,2) committed
	l.Append(Record{Type: RecWrite, TxID: gid})        // prepare group [2,4)
	l.Append(Record{Type: RecPrepare, TxID: gid})
	l.Append(Record{Type: RecAbort, TxID: 2}) // lone abort [4,5)
	l.Append(Record{Type: RecWrite, TxID: 3}) // open group [5,6)
	want := []Group{
		{End: 2, TxID: 1, LSN: 1, Fate: FateCommitted},
		{End: 4, TxID: gid, Fate: FatePrepared},
		{End: 5, TxID: 2, Fate: FateAborted},
		{End: 6, TxID: 3, Fate: FateOpen},
	}
	if got := groups(l); !slices.Equal(got, want) {
		t.Fatalf("index = %+v, want %+v", got, want)
	}
	l.Append(Record{Type: RecCommit, TxID: 3, LSN: 2})   // closes [5,7)
	l.Append(Record{Type: RecCommit, TxID: gid, LSN: 3}) // apply mark [7,8)
	want[1] = Group{End: 4, TxID: gid, LSN: 3, Fate: FateCommitted}
	want[3] = Group{End: 7, TxID: 3, LSN: 2, Fate: FateCommitted}
	want = append(want, Group{End: 8, TxID: gid, LSN: 3, Fate: FateCommitted})
	if got := groups(l); !slices.Equal(got, want) {
		t.Fatalf("after marks index = %+v, want %+v", got, want)
	}
	l.Reclaim(3) // cuts through the prepare group, which stays
	if got := groups(l); !slices.Equal(got, want[1:]) {
		t.Fatalf("after Reclaim(3) index = %+v, want %+v", got, want[1:])
	}
	l.Reclaim(l.Head())
	if l.Groups() != 0 {
		t.Fatalf("after Reclaim(Head) index holds %d groups", l.Groups())
	}
	// A prepare group reclaimed before its mark leaves no stale lookup:
	// the late mark forms its own group only.
	l.Append(Record{Type: RecPrepare, TxID: gid + 1})
	l.Reclaim(l.Head())
	l.Append(Record{Type: RecCommit, TxID: gid + 1, LSN: 4})
	if got, want := groups(l), []Group{{End: l.Head(), TxID: gid + 1, LSN: 4, Fate: FateCommitted}}; !slices.Equal(got, want) {
		t.Fatalf("late mark index = %+v, want %+v", got, want)
	}
	if len(l.unmarked) != 0 {
		t.Fatalf("unmarked lookup kept %d reclaimed prepare groups", len(l.unmarked))
	}
}

// TestGroupIndexAllocatesNothing: a ring that wraps while taking commit
// groups, a prepare group and its later apply mark, and a reclamation
// pass over its group index allocates nothing in steady state.
func TestGroupIndexAllocatesNothing(t *testing.T) {
	l := NewLog(newStore(), mem.NVMLogBase, 8<<10, true) // 78 slots
	var tx, lsn uint64
	commit := func(writes int) {
		tx++
		for w := 0; w < writes; w++ {
			l.Append(Record{Type: RecWrite, TxID: tx, Addr: mem.NVMBase})
		}
		lsn++
		l.Append(Record{Type: RecCommit, TxID: tx, LSN: lsn})
	}
	op := func() {
		commit(2)
		commit(1)
		tx++
		gid := 1<<63 | tx
		l.Append(Record{Type: RecWrite, TxID: gid, Addr: mem.NVMBase})
		l.Append(Record{Type: RecPrepare, TxID: gid})
		commit(3)
		lsn++
		l.Append(Record{Type: RecCommit, TxID: gid, LSN: lsn})
		commit(1)
		stop := l.Tail()
		for i, n := 0, l.Groups(); i < n; i++ {
			g := l.Group(i)
			if g.Fate != FateCommitted || g.LSN+2 > lsn {
				break // the newest commits stay, as above a low-water mark
			}
			stop = g.End
		}
		l.Reclaim(stop)
	}
	for i := uint64(0); i < 2*l.Slots(); i++ {
		op()
	}
	if a := testing.AllocsPerRun(1000, op); a != 0 {
		t.Errorf("group index allocates %v times per op, want 0", a)
	}
	if l.Head() < 20*l.Slots() {
		t.Fatalf("ring wrapped only %d times", l.Head()/l.Slots())
	}
}
