package wal

import (
	"testing"

	"uhtm/internal/mem"
)

// appendReclaiming appends one redo record and reclaims the whole ring
// once it is half full, the steady state of a log under checkpointing.
func appendReclaiming(l *Log) {
	l.Append(Record{Type: RecWrite, TxID: 1, Addr: mem.NVMBase})
	if l.Len() > l.Slots()/2 {
		l.Reclaim(l.Head())
	}
}

// BenchmarkRedoLogAppend measures hardware redo-log appends into
// simulated NVM.
func BenchmarkRedoLogAppend(b *testing.B) {
	l := NewLog(newStore(), mem.NVMLogBase, 32<<20, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendReclaiming(l)
	}
}

// TestRedoLogAppendAllocatesNothing: once every slot of the ring has
// been written (so its store pages exist), an append allocates nothing.
func TestRedoLogAppendAllocatesNothing(t *testing.T) {
	l := NewLog(newStore(), mem.NVMLogBase, 64<<10, true)
	for i := uint64(0); i < 2*l.Slots(); i++ {
		appendReclaiming(l)
	}
	if a := testing.AllocsPerRun(1000, func() { appendReclaiming(l) }); a != 0 {
		t.Errorf("redo-log append allocates %v times per record, want 0", a)
	}
}

// replayLog returns a crashed log holding 100 committed transactions of
// 16 line writes each.
func replayLog() *Log {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 32<<20, true)
	var data mem.Line
	for tx := uint64(1); tx <= 100; tx++ {
		for j := 0; j < 16; j++ {
			l.Append(Record{Type: RecWrite, TxID: tx, Addr: mem.NVMBase + mem.Addr(j)*64, Data: data})
		}
		l.Append(Record{Type: RecCommit, TxID: tx, LSN: tx})
	}
	s.Crash()
	return l
}

// BenchmarkLogReplay measures crash recovery over a populated log.
func BenchmarkLogReplay(b *testing.B) {
	l := replayLog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Replay()
	}
}

// logReplayAllocCeiling bounds the heap allocations of one replay of
// replayLog: 19 measured, plus 25% and 64 for runtime and toolchain
// drift. Replay builds per-transaction maps, so a change that allocates
// per record (1700 of them) crosses it.
const logReplayAllocCeiling = 87

func TestLogReplayAllocBudget(t *testing.T) {
	l := replayLog()
	if a := testing.AllocsPerRun(20, func() { l.Replay() }); a > logReplayAllocCeiling {
		t.Errorf("log replay allocates %v times, want <= %d", a, logReplayAllocCeiling)
	}
}

// TestRecoverReusesItsWindow: a ring decodes its durable window into a
// buffer of its own, so a second Recover of the ring allocates nothing;
// a slot torn since the buffer last held a record there decodes as the
// zero Record, not as that record.
func TestRecoverReusesItsWindow(t *testing.T) {
	l := replayLog()
	l.Recover()
	if a := testing.AllocsPerRun(20, func() { l.Recover() }); a != 0 {
		t.Errorf("a second Recover allocates %v times, want 0", a)
	}
	if w := l.Window(); w.Torn != 0 || w.Recs[3].Type != RecWrite {
		t.Fatalf("intact window decodes %d torn slots, slot 3 type %d", w.Torn, w.Recs[3].Type)
	}
	corruptDurable(l.store, l.slotAddr(l.tail+3)+24)
	if w := l.Window(); w.Torn != 1 || w.Recs[3] != (Record{}) {
		t.Errorf("torn slot 3 decodes as %+v with %d torn slots, want the zero Record and 1", w.Recs[3], w.Torn)
	}
}
