package coherence

import (
	"testing"
	"testing/quick"

	"uhtm/internal/mem"
)

const (
	lineA = mem.Addr(0x1000)
	lineB = mem.Addr(0x2000)
)

func TestNoConflictOnCleanLine(t *testing.T) {
	d := NewDirectory()
	if cs := d.CheckWrite(lineA, 1); cs != nil {
		t.Errorf("CheckWrite on empty dir = %v", cs)
	}
	if cs := d.CheckRead(lineA, 1); cs != nil {
		t.Errorf("CheckRead on empty dir = %v", cs)
	}
}

func TestWAWConflict(t *testing.T) {
	d := NewDirectory()
	d.AddWrite(lineA, 1)
	cs := d.CheckWrite(lineA, 2)
	if len(cs) != 1 || cs[0].With != 1 || cs[0].Kind != WriteAfterWrite {
		t.Errorf("CheckWrite = %v, want WAW with tx1", cs)
	}
}

func TestWARConflict(t *testing.T) {
	d := NewDirectory()
	d.AddRead(lineA, 1)
	d.AddRead(lineA, 3)
	cs := d.CheckWrite(lineA, 2)
	if len(cs) != 2 {
		t.Fatalf("CheckWrite = %v, want two WAR conflicts", cs)
	}
	if cs[0].With != 1 || cs[1].With != 3 || cs[0].Kind != WriteAfterRead {
		t.Errorf("CheckWrite = %v", cs)
	}
}

func TestRAWConflict(t *testing.T) {
	d := NewDirectory()
	d.AddWrite(lineA, 5)
	cs := d.CheckRead(lineA, 6)
	if len(cs) != 1 || cs[0].With != 5 || cs[0].Kind != ReadAfterWrite {
		t.Errorf("CheckRead = %v, want RAW with tx5", cs)
	}
}

func TestSelfAccessIsNotConflict(t *testing.T) {
	d := NewDirectory()
	d.AddWrite(lineA, 1)
	d.AddRead(lineB, 1)
	if cs := d.CheckWrite(lineA, 1); cs != nil {
		t.Errorf("own write-set conflicts: %v", cs)
	}
	if cs := d.CheckRead(lineA, 1); cs != nil {
		t.Errorf("own write-set conflicts on read: %v", cs)
	}
	if cs := d.CheckWrite(lineB, 1); cs != nil {
		t.Errorf("own read-set conflicts: %v", cs)
	}
}

func TestSharedReadersNoConflict(t *testing.T) {
	d := NewDirectory()
	d.AddRead(lineA, 1)
	d.AddRead(lineA, 2)
	if cs := d.CheckRead(lineA, 3); cs != nil {
		t.Errorf("readers conflict with readers: %v", cs)
	}
}

func TestNonTransactionalRequester(t *testing.T) {
	d := NewDirectory()
	d.AddWrite(lineA, 1)
	// A non-transactional write (self=0) still conflicts with tx1 — it
	// must abort the transaction to proceed safely.
	cs := d.CheckWrite(lineA, 0)
	if len(cs) != 1 || cs[0].With != 1 {
		t.Errorf("non-tx requester conflicts = %v", cs)
	}
}

func TestPromotionReaderToOwner(t *testing.T) {
	d := NewDirectory()
	d.AddRead(lineA, 1)
	d.AddWrite(lineA, 1)
	owner, sharers := d.TxInfo(lineA)
	if owner != 1 || len(sharers) != 0 {
		t.Errorf("TxInfo = (%d, %v), want (1, [])", owner, sharers)
	}
	// Owner's subsequent reads don't re-add it as a sharer.
	d.AddRead(lineA, 1)
	if _, sharers = d.TxInfo(lineA); len(sharers) != 0 {
		t.Errorf("owner re-listed as sharer: %v", sharers)
	}
}

func TestDoubleOwnerPanics(t *testing.T) {
	d := NewDirectory()
	d.AddWrite(lineA, 1)
	defer func() {
		if recover() == nil {
			t.Error("second owner did not panic")
		}
	}()
	d.AddWrite(lineA, 2)
}

func TestSurrenderLine(t *testing.T) {
	d := NewDirectory()
	d.AddWrite(lineA, 1)
	d.AddRead(lineA, 2)
	owner, sharers := d.SurrenderLine(lineA)
	if owner != 1 || len(sharers) != 1 || sharers[0] != 2 {
		t.Errorf("SurrenderLine = (%d, %v)", owner, sharers)
	}
	// After surrender the directory no longer reports conflicts.
	if cs := d.CheckWrite(lineA, 3); cs != nil {
		t.Errorf("conflicts after surrender: %v", cs)
	}
	if d.entries() != 0 {
		t.Errorf("Entries = %d after surrender", d.entries())
	}
	// And the reverse index is clean: clearing the txs returns nothing.
	if owned := d.ClearTx(1); len(owned) != 0 {
		t.Errorf("ClearTx(1) = %v after surrender", owned)
	}
}

func TestClearTxReturnsWriteSet(t *testing.T) {
	d := NewDirectory()
	d.AddWrite(lineA, 1)
	d.AddWrite(lineB, 1)
	d.AddRead(0x3000, 1)
	owned := d.ClearTx(1)
	if len(owned) != 2 || owned[0] != lineA || owned[1] != lineB {
		t.Errorf("ClearTx = %v, want [lineA lineB]", owned)
	}
	if d.entries() != 0 {
		t.Errorf("entries remain: %d", d.entries())
	}
}

func TestClearTxLeavesOthers(t *testing.T) {
	d := NewDirectory()
	d.AddRead(lineA, 1)
	d.AddRead(lineA, 2)
	d.ClearTx(1)
	cs := d.CheckWrite(lineA, 3)
	if len(cs) != 1 || cs[0].With != 2 {
		t.Errorf("after ClearTx(1), conflicts = %v, want tx2 only", cs)
	}
}

func TestConflictKindString(t *testing.T) {
	if WriteAfterWrite.String() != "WAW" || WriteAfterRead.String() != "WAR" || ReadAfterWrite.String() != "RAW" {
		t.Error("ConflictKind strings wrong")
	}
}

// Property: after any sequence of reads/writes (with per-line owner
// uniqueness respected) followed by ClearTx of every tx, the directory
// is empty — no leaked entries or index residue.
func TestQuickClearLeavesEmpty(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDirectory()
		owners := map[mem.Addr]uint64{}
		for _, op := range ops {
			tx := uint64(op%7) + 1
			a := mem.Addr(op%32) * mem.LineSize
			if op%2 == 0 {
				if o, ok := owners[a]; ok && o != tx {
					continue // respect single-owner invariant
				}
				d.AddWrite(a, tx)
				owners[a] = tx
			} else {
				d.AddRead(a, tx)
			}
		}
		for tx := uint64(1); tx <= 7; tx++ {
			d.ClearTx(tx)
		}
		return d.entries() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: CheckWrite reports exactly the other transactions present on
// the line.
func TestQuickCheckWriteComplete(t *testing.T) {
	f := func(readers []uint8, ownerSel uint8) bool {
		d := NewDirectory()
		a := lineA
		want := map[uint64]bool{}
		owner := uint64(ownerSel%5) + 10
		d.AddWrite(a, owner)
		want[owner] = true
		for _, r := range readers {
			tx := uint64(r%5) + 1 // disjoint from owner range
			d.AddRead(a, tx)
			want[tx] = true
		}
		self := uint64(3)
		delete(want, self)
		got := map[uint64]bool{}
		for _, c := range d.CheckWrite(a, self) {
			got[c.With] = true
		}
		if len(got) != len(want) {
			return false
		}
		for tx := range want {
			if !got[tx] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
