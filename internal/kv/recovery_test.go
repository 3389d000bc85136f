package kv

import (
	"testing"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
	"uhtm/internal/txds"
)

// TestEchoCrashRecovery is the application-level durability test: an
// Echo store takes batched updates through durable transactions, the
// machine loses power mid-run, and after redo-log replay the re-attached
// table contains a consistent prefix — every recovered batch is complete
// (batches are transactions, so no partial batch may surface).
func TestEchoCrashRecovery(t *testing.T) {
	eng, m := newMachine()
	dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	e := NewEcho(m.Store(), dal, nal, 256, 1, 64, 16)
	tableHead := e.Table.Head()
	m.Store().PersistLiveNVM() // initialization durability

	// Master applies batches of 4; each batch writes keys
	// {b*4+1..b*4+4} with the batch number as value. Batch b is only
	// durable if ALL four keys recover.
	eng.Spawn("master", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for b := 0; b < 200; b++ {
			b := b
			c.Run(func(tx *core.Tx) {
				for j := 0; j < 4; j++ {
					e.Table.Put(tx, uint64(b*4+j+1), []byte{byte(b)})
				}
			})
		}
	})
	eng.HaltAt(150 * sim.Microsecond)
	eng.Run()
	if !eng.Halted() {
		t.Skip("workload finished before the injected failure")
	}

	m.Crash()
	st := m.Recover()
	if st.CommittedTx == 0 {
		t.Fatal("nothing recovered; crash landed before any commit")
	}

	// Re-attach the table by its (recovered) header address.
	table := txds.AttachHashMap(tableHead, nal)
	s := m.Store()
	present := map[int]int{} // batch → keys present
	for _, k := range table.Keys(s) {
		present[int((k-1)/4)]++
	}
	for b, n := range present {
		if n != 4 {
			t.Errorf("batch %d recovered partially: %d/4 keys (atomicity violated)", b, n)
		}
	}
	if len(present) == 0 {
		t.Error("no batches recovered")
	}
}

// TestHybridIndexCrashLosesOnlyDRAMIndex: after a crash the NVM table
// survives (via replay) while the DRAM B-Tree index is gone — the
// documented recovery contract: "programmers' responsibility is to place
// data structures in NVM if they are necessary for data recovery". The
// index is rebuildable from the table.
func TestHybridIndexCrashLosesOnlyDRAMIndex(t *testing.T) {
	eng, m := newMachine()
	dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	h := NewHybridIndex(m.Store(), dal, nal, 64, 1)
	m.Store().PersistLiveNVM()
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		var batch []KV
		for k := uint64(1); k <= 20; k++ {
			batch = append(batch, KV{Key: k, Val: []byte{byte(k)}})
		}
		h.PutBatch(c, 0, batch)
	})
	eng.Run()
	m.Crash()
	m.Recover()
	s := m.Store()
	if got := h.Parts[0].Table.Len(s); got != 20 {
		t.Errorf("NVM table lost data: %d/20 keys", got)
	}
	// Rebuild the volatile index from the recovered table — the
	// AutoPersist/Go-pmem style bootstrap.
	h.Parts[0].RebuildIndex(s, dal)
	if got := h.Parts[0].Index.Scan(s, 0, func(uint64, mem.Addr) bool { return true }); got != 20 {
		t.Errorf("rebuilt index has %d keys", got)
	}
}
