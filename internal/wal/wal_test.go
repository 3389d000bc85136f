package wal

import (
	"testing"
	"testing/quick"

	"uhtm/internal/mem"
)

func newStore() *mem.Store { return mem.NewStore(mem.DefaultConfig()) }

// durableLine returns the durable NVM contents of the line containing a.
func durableLine(s *mem.Store, a mem.Addr) mem.Line {
	var l mem.Line
	s.DurableInto(mem.LineOf(a), l[:])
	return l
}

func lineWith(b byte) mem.Line {
	var l mem.Line
	for i := range l {
		l[i] = b
	}
	return l
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(typ uint8, txID uint64, addr uint64, fill byte, lsn uint64) bool {
		r := Record{
			Type: RecordType(typ%3 + 1),
			TxID: txID,
			Addr: mem.Addr(addr &^ 63),
			Data: lineWith(fill),
			LSN:  lsn,
		}
		var buf [RecordSize]byte
		encode(r, &buf)
		got, ok := decode(&buf)
		return ok && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	var buf [RecordSize]byte
	if _, ok := decode(&buf); ok {
		t.Error("decoded zero buffer")
	}
}

func TestAppendRead(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	r := Record{Type: RecWrite, TxID: 7, Addr: mem.NVMBase + 128, Data: lineWith(0x5A)}
	seq := l.Append(r)
	got, ok := l.Read(seq)
	if !ok || got != r {
		t.Fatalf("Read(%d) = %+v ok=%v", seq, got, ok)
	}
	if l.Len() != 1 || l.Appends != 1 {
		t.Errorf("Len=%d Appends=%d", l.Len(), l.Appends)
	}
}

func TestReadOutOfWindow(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.DRAMLogBase, 1<<20, false)
	if _, ok := l.Read(0); ok {
		t.Error("read from empty log")
	}
	l.Append(Record{Type: RecCommit, TxID: 1})
	l.Reclaim(1)
	if _, ok := l.Read(0); ok {
		t.Error("read of reclaimed record")
	}
}

func TestReclaimPastHeadPanics(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.DRAMLogBase, 1<<20, false)
	defer func() {
		if recover() == nil {
			t.Error("reclaim past head did not panic")
		}
	}()
	l.Reclaim(5)
}

func TestRingWrapAround(t *testing.T) {
	s := newStore()
	// Small ring: a handful of slots.
	size := mem.Addr(mem.LineSize + 4*RecordSize)
	l := NewLog(s, mem.DRAMLogBase, size, false)
	if l.Slots() != 4 {
		t.Fatalf("Slots = %d, want 4", l.Slots())
	}
	for i := uint64(0); i < 10; i++ {
		l.Append(Record{Type: RecWrite, TxID: i, Addr: mem.DRAMBase, Data: lineWith(byte(i))})
		l.Reclaim(i) // keep ≤2 live
		if r, ok := l.Read(i); !ok || r.TxID != i {
			t.Fatalf("after wrap, Read(%d) = %+v ok=%v", i, r, ok)
		}
	}
}

func TestFullRingPanics(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.DRAMLogBase, mem.Addr(mem.LineSize+2*RecordSize), false)
	l.Append(Record{Type: RecCommit})
	l.Append(Record{Type: RecCommit})
	defer func() {
		if recover() == nil {
			t.Error("full ring did not panic")
		}
	}()
	l.Append(Record{Type: RecCommit})
}

// TestReplayAppliesOnlyCommitted is the crash-recovery core: write
// records for two transactions, commit only one, crash, replay, and
// check the durable outcome.
func TestReplayAppliesOnlyCommitted(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	a1, a2 := mem.NVMBase+0x100*64, mem.NVMBase+0x200*64

	l.Append(Record{Type: RecWrite, TxID: 1, Addr: a1, Data: lineWith(0x11)})
	l.Append(Record{Type: RecCommit, TxID: 1})
	l.Append(Record{Type: RecWrite, TxID: 2, Addr: a2, Data: lineWith(0x22)})
	// no commit for tx 2 — crash now
	s.Crash()

	st := l.Replay()
	if st.CommittedTx != 1 || st.AppliedLines != 1 {
		t.Errorf("replay stats = %+v", st)
	}
	if st.DiscardedTx != 1 || st.DiscardedRecs != 1 {
		t.Errorf("discard stats = %+v", st)
	}
	want := lineWith(0x11)
	if got := s.PeekLine(a1); got != want {
		t.Error("committed line not recovered")
	}
	if got := s.PeekLine(a2); got != (mem.Line{}) {
		t.Error("uncommitted line leaked into recovered state")
	}
	// Recovery must itself be durable (replay persists).
	if got := durableLine(s, a1); got != want {
		t.Error("recovered line not persisted")
	}
}

func TestReplayDiscardsAborted(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	a := mem.NVMBase + 64
	l.Append(Record{Type: RecWrite, TxID: 3, Addr: a, Data: lineWith(0x33)})
	l.Append(Record{Type: RecCommit, TxID: 3})
	l.Append(Record{Type: RecAbort, TxID: 3}) // abort wins (deferred log deletion)
	s.Crash()
	st := l.Replay()
	if st.AppliedLines != 0 {
		t.Errorf("aborted tx applied: %+v", st)
	}
	if got := s.PeekLine(a); got != (mem.Line{}) {
		t.Error("aborted write recovered")
	}
}

// corruptDurable flips one durable byte at a — the footprint of a torn
// write where one of a record's cache lines holds stale data.
func corruptDurable(s *mem.Store, a mem.Addr) {
	la := mem.LineOf(a)
	line := durableLine(s, la)
	line[mem.LineOffset(a)] ^= 0xFF
	s.PersistLine(la, &line)
}

// TestReplaySkipsCorruptRecord: a record whose durable bytes were torn
// must fail its checksum and be skipped (counted in TornRecs), while
// intact records on the same ring still replay. Without the checksum,
// replay would write tx 2's corrupted line image straight into data
// NVM.
func TestReplaySkipsCorruptRecord(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	a1, a2 := mem.NVMBase+0x100*64, mem.NVMBase+0x200*64
	l.Append(Record{Type: RecWrite, TxID: 1, Addr: a1, Data: lineWith(0x11)})
	l.Append(Record{Type: RecCommit, TxID: 1, LSN: 1})
	seq := l.Append(Record{Type: RecWrite, TxID: 2, Addr: a2, Data: lineWith(0x22)})
	l.Append(Record{Type: RecCommit, TxID: 2, LSN: 2})
	corruptDurable(s, l.slotAddr(seq)+24) // inside tx 2's line image
	s.Crash()

	st := l.Replay()
	if st.TornRecs != 1 {
		t.Errorf("TornRecs = %d, want 1", st.TornRecs)
	}
	if st.CommittedTx != 1 || st.AppliedLines != 1 {
		t.Errorf("replay stats = %+v", st)
	}
	if got := durableLine(s, a1); got != lineWith(0x11) {
		t.Error("intact committed record not recovered")
	}
	if got := durableLine(s, a2); got != (mem.Line{}) {
		t.Error("torn record's line image leaked into recovered state")
	}
}

// TestReplaySkipsTruncatedTrailingRecord: appends persist a record line
// by line, so a power cut mid-append can leave a prefix of the record
// durable. Model the cut after the first line: the truncated trailing
// record must fail validation and be skipped, with no effect on earlier
// records.
func TestReplaySkipsTruncatedTrailingRecord(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	a1, a2 := mem.NVMBase+0x100*64, mem.NVMBase+0x200*64
	l.Append(Record{Type: RecWrite, TxID: 1, Addr: a1, Data: lineWith(0x11)})
	l.Append(Record{Type: RecCommit, TxID: 1, LSN: 1})
	seq := l.Append(Record{Type: RecWrite, TxID: 2, Addr: a2, Data: lineWith(0x22)})
	start := l.slotAddr(seq)
	// Zero every durable line of the record after its first — those
	// writes "never reached" NVM. (Later slots are unwritten, so the
	// zeroed lines hold only this record's bytes.)
	var zero mem.Line
	for a := mem.LineOf(start) + mem.LineSize; a < start+RecordSize; a += mem.LineSize {
		s.PersistLine(a, &zero)
	}
	s.Crash()

	st := l.Replay()
	if st.TornRecs != 1 {
		t.Errorf("TornRecs = %d, want 1", st.TornRecs)
	}
	if st.CommittedTx != 1 || st.AppliedLines != 1 || st.DiscardedRecs != 0 {
		t.Errorf("replay stats = %+v", st)
	}
	if got := durableLine(s, a2); got != (mem.Line{}) {
		t.Error("truncated record's line image leaked into recovered state")
	}
}

// TestReplayAllCountsTorn: the cross-ring replay path reports torn
// slots too, and a torn commit mark demotes its transaction to
// uncommitted (its writes are discarded, not applied).
func TestReplayAllCountsTorn(t *testing.T) {
	s := newStore()
	rs := NewRings(s, mem.NVMLogBase, mem.LogAreaSize, 2, true)
	a := mem.NVMBase + 64
	rs.ForCore(0).Append(Record{Type: RecWrite, TxID: 1, Addr: a, Data: lineWith(0x11)})
	seq := rs.ForCore(0).Append(Record{Type: RecCommit, TxID: 1, LSN: 1})
	corruptDurable(s, rs.ForCore(0).slotAddr(seq))
	s.Crash()

	st, _ := rs.Recover(0)
	if st.TornRecs != 1 {
		t.Errorf("TornRecs = %d, want 1", st.TornRecs)
	}
	if st.CommittedTx != 0 || st.DiscardedTx != 1 {
		t.Errorf("replay stats = %+v", st)
	}
	if got := durableLine(s, a); got != (mem.Line{}) {
		t.Error("write with torn commit mark was applied")
	}
}

// TestUndoRingNotDurable checks DRAM undo-log records do not survive a
// crash — the durable window after crash must be empty or garbage.
func TestUndoRingNotDurable(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.DRAMLogBase, 1<<20, false)
	l.Append(Record{Type: RecWrite, TxID: 9, Addr: mem.DRAMBase, Data: lineWith(0x99)})
	s.Crash()
	if recs := l.Records(); len(recs) != 0 {
		t.Errorf("DRAM log yielded %d records after crash", len(recs))
	}
}

func TestRecoverWindowSurvivesCrash(t *testing.T) {
	s := newStore()
	l := NewLog(s, mem.NVMLogBase, 1<<20, true)
	for i := 0; i < 5; i++ {
		l.Append(Record{Type: RecCommit, TxID: uint64(i)})
	}
	l.Reclaim(2)
	s.Crash()
	head, tail := l.RecoverWindow()
	if head != 5 || tail != 2 {
		t.Errorf("RecoverWindow = (%d,%d), want (5,2)", head, tail)
	}
}

func TestRings(t *testing.T) {
	s := newStore()
	rs := NewRings(s, mem.NVMLogBase, mem.LogAreaSize, 16, true)
	if rs.Count() != 16 {
		t.Fatalf("Count = %d", rs.Count())
	}
	for i := 0; i < 16; i++ {
		rs.ForCore(i).Append(Record{Type: RecWrite, TxID: uint64(i), Addr: mem.NVMBase + mem.Addr(i*64), Data: lineWith(byte(i))})
		// LSNs start at 1: LSN 0 would sit at the initial checkpoint and
		// be skipped as a stale truncation leftover.
		rs.ForCore(i).Append(Record{Type: RecCommit, TxID: uint64(i), LSN: uint64(i + 1)})
	}
	var appends uint64
	for i := 0; i < rs.Count(); i++ {
		appends += rs.ForCore(i).Appends
	}
	if appends != 32 {
		t.Errorf("Appends = %d", appends)
	}
	s.Crash()
	st, _ := rs.Recover(0)
	if st.CommittedTx != 16 || st.AppliedLines != 16 {
		t.Errorf("Recover = %+v", st)
	}
}

// TestReplayAllCrossRingOrder is the regression test for the recovery
// ordering bug: two committed transactions on different cores' rings
// write the same line; replay must apply them in global commit (LSN)
// order, not ring order.
func TestReplayAllCrossRingOrder(t *testing.T) {
	s := newStore()
	rs := NewRings(s, mem.NVMLogBase, mem.LogAreaSize, 2, true)
	a := mem.NVMBase + 64
	// Tx 1 on core 1 commits FIRST (LSN 1) writing 0x11; tx 2 on core 0
	// commits SECOND (LSN 2) writing 0x22. Naive ring-order replay
	// (core 0 then core 1) would leave 0x11.
	rs.ForCore(1).Append(Record{Type: RecWrite, TxID: 1, Addr: a, Data: lineWith(0x11)})
	rs.ForCore(1).Append(Record{Type: RecCommit, TxID: 1, LSN: 1})
	rs.ForCore(0).Append(Record{Type: RecWrite, TxID: 2, Addr: a, Data: lineWith(0x22)})
	rs.ForCore(0).Append(Record{Type: RecCommit, TxID: 2, LSN: 2})
	s.Crash()
	st, _ := rs.Recover(0)
	if st.CommittedTx != 2 {
		t.Fatalf("replay stats = %+v", st)
	}
	if got := s.PeekLine(a); got != lineWith(0x22) {
		t.Errorf("line = %#x..., want the later commit (0x22)", got[0])
	}
}

// Property: replay is idempotent — replaying twice leaves the same
// durable state.
func TestQuickReplayIdempotent(t *testing.T) {
	f := func(ops []uint16, commitMask uint8) bool {
		s := newStore()
		l := NewLog(s, mem.NVMLogBase, 1<<20, true)
		for i, op := range ops {
			if i >= 16 {
				break
			}
			tx := uint64(op%4) + 1
			a := mem.NVMBase + mem.Addr(op%64)*64
			l.Append(Record{Type: RecWrite, TxID: tx, Addr: a, Data: lineWith(byte(op))})
		}
		for tx := uint64(1); tx <= 4; tx++ {
			if commitMask&(1<<tx) != 0 {
				l.Append(Record{Type: RecCommit, TxID: tx})
			}
		}
		s.Crash()
		l.Replay()
		snap1 := s.SnapshotLive()
		l.Replay()
		snap2 := s.SnapshotLive()
		if len(snap1) != len(snap2) {
			return false
		}
		for a, v := range snap1 {
			if snap2[a] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
