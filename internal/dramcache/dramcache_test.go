package dramcache

import (
	"testing"

	"uhtm/internal/mem"
)

// tiny returns a 2-set, 2-way DRAM cache.
func tiny() *Cache { return New(2*2*mem.LineSize, 2) }

func nvmLine(i int) mem.Addr { return mem.NVMBase + mem.Addr(i)*mem.LineSize }

func TestInsertLookup(t *testing.T) {
	c := tiny()
	a := nvmLine(0)
	c.Insert(a, 1)
	if !c.Lookup(a) || !c.Contains(a) {
		t.Error("inserted line not found")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCommittedEvictionCountsAsDrain(t *testing.T) {
	c := tiny()
	a := nvmLine(0) // set 0
	c.Insert(a, 1)
	c.CommitTx(1)
	// Fill set 0 (lines 0, 2, 4 map to set 0) to force eviction.
	c.Insert(nvmLine(2), 0)
	c.Insert(nvmLine(4), 0)
	if c.Drains != 1 {
		t.Fatalf("Drains = %d, want 1", c.Drains)
	}
	if c.Contains(a) {
		t.Error("evicted line still present")
	}
}

func TestUncommittedEvictionCountsAsDrop(t *testing.T) {
	c := tiny()
	a := nvmLine(0)
	c.Insert(a, 1) // never committed
	c.Insert(nvmLine(2), 0)
	c.Insert(nvmLine(4), 0)
	if c.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", c.Drops)
	}
}

func TestInvalidateTx(t *testing.T) {
	c := tiny()
	a, b := nvmLine(0), nvmLine(1)
	c.Insert(a, 7)
	c.Insert(b, 7)
	if n := c.InvalidateTx(7); n != 2 {
		t.Fatalf("InvalidateTx = %d, want 2", n)
	}
	if c.Contains(a) || c.Contains(b) || c.Len() != 0 {
		t.Error("lines survive invalidation")
	}
	// Invalidation is not a drain.
	if c.Drains != 0 {
		t.Errorf("Drains = %d after invalidate", c.Drains)
	}
}

func TestCommitTxCount(t *testing.T) {
	c := tiny()
	c.Insert(nvmLine(0), 3)
	c.Insert(nvmLine(1), 3)
	c.Insert(nvmLine(2), 4)
	if n := c.CommitTx(3); n != 2 {
		t.Errorf("CommitTx(3) = %d, want 2", n)
	}
	if n := c.CommitTx(99); n != 0 {
		t.Errorf("CommitTx(99) = %d, want 0", n)
	}
}

func TestDrainAllKeepsUncommitted(t *testing.T) {
	c := tiny()
	a, b := nvmLine(0), nvmLine(1)
	c.Insert(a, 1)
	c.Insert(b, 2)
	c.CommitTx(1)
	c.DrainAll()
	if c.Contains(a) {
		t.Error("committed line not drained")
	}
	if !c.Contains(b) {
		t.Error("uncommitted line drained")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after DrainAll, want 1", c.Len())
	}
}

func TestReinsertAdoptsNewOwner(t *testing.T) {
	c := tiny()
	a := nvmLine(0)
	c.Insert(a, 1)
	c.Insert(a, 2) // bounced back under a new transaction
	if n := c.InvalidateTx(1); n != 0 {
		t.Errorf("old owner still indexed: %d", n)
	}
	if n := c.CommitTx(2); n != 1 {
		t.Errorf("new owner not indexed: %d", n)
	}
}

func TestNonTransactionalInsertCommitted(t *testing.T) {
	c := tiny()
	a := nvmLine(1)
	c.Insert(a, 0)
	c.DrainAll()
	if c.Contains(a) {
		t.Error("non-transactional line should be drain-eligible immediately")
	}
}

// TestStaleWayEntriesSkipped: a transaction's index holds the ways it
// filled. A way refilled for another transaction, or indexed twice,
// must not be counted (or committed) for it.
func TestStaleWayEntriesSkipped(t *testing.T) {
	c := tiny()
	c.Insert(nvmLine(0), 5) // set 0, way 0
	c.Insert(nvmLine(2), 6) // set 0, way 1
	c.Insert(nvmLine(4), 6) // evicts line 0: way 0 now tx 6's
	c.Insert(nvmLine(0), 5) // evicts line 2: way 1 now tx 5's
	c.Insert(nvmLine(0), 5) // refresh: way 1 indexed again
	if n := c.CommitTx(5); n != 1 {
		t.Errorf("CommitTx(5) = %d, want 1 (line 0 once, not tx 6's way)", n)
	}
	if n := c.InvalidateTx(6); n != 1 {
		t.Errorf("InvalidateTx(6) = %d, want 1 (line 4; line 2 was evicted)", n)
	}
	if !c.Contains(nvmLine(0)) || c.Contains(nvmLine(4)) {
		t.Error("wrong lines left after commit of 5 and abort of 6")
	}
}
