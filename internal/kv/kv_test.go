package kv

import (
	"bytes"
	"fmt"
	"testing"

	"uhtm/internal/core"
	"uhtm/internal/mem"
	"uhtm/internal/sim"
)

func testConfig() mem.Config {
	c := mem.DefaultConfig()
	c.Cores = 4
	c.L1Size = 2 << 10
	c.LLCSize = 64 << 10
	c.DRAMCacheSize = 128 << 10
	return c
}

func newMachine() (*sim.Engine, *core.Machine) {
	eng := sim.NewEngine(3)
	return eng, core.NewMachine(eng, testConfig(), core.DefaultOptions())
}

func TestOpRing(t *testing.T) {
	st := mem.NewStore(mem.DefaultConfig())
	al := mem.NewAllocator(mem.DRAM)
	r := NewOpRing(st, al, 4, 32)
	if _, ok := r.TryPop(st); ok {
		t.Error("pop from empty ring")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(st, KV{Key: uint64(i), Val: []byte(fmt.Sprintf("v%d", i))}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.TryPush(st, KV{Key: 9}) {
		t.Error("push into full ring succeeded")
	}
	if r.Len(st) != 4 {
		t.Errorf("Len = %d", r.Len(st))
	}
	for i := 0; i < 4; i++ {
		p, ok := r.TryPop(st)
		if !ok || p.Key != uint64(i) || !bytes.Equal(p.Val, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("pop %d = %+v ok=%v", i, p, ok)
		}
	}
	// Wrap-around.
	for round := 0; round < 3; round++ {
		r.TryPush(st, KV{Key: 100 + uint64(round)})
		p, ok := r.TryPop(st)
		if !ok || p.Key != 100+uint64(round) {
			t.Fatalf("wrap round %d: %+v", round, p)
		}
	}
}

func TestOpRingOversizePanics(t *testing.T) {
	st := mem.NewStore(mem.DefaultConfig())
	al := mem.NewAllocator(mem.DRAM)
	r := NewOpRing(st, al, 2, 8)
	defer func() {
		if recover() == nil {
			t.Error("oversize value did not panic")
		}
	}()
	r.TryPush(st, KV{Key: 1, Val: make([]byte, 9)})
}

// TestHybridIndexConsistency: concurrent batched puts; afterwards the
// DRAM index and the NVM table must agree exactly.
func TestHybridIndexConsistency(t *testing.T) {
	eng, m := newMachine()
	dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	h := NewHybridIndex(m.Store(), dal, nal, 64, 2)
	for i := 0; i < 2; i++ {
		id := i
		eng.Spawn("put", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for b := 0; b < 10; b++ {
				var batch []KV
				for j := 0; j < 5; j++ {
					k := uint64(id*1000 + b*10 + j + 1)
					batch = append(batch, KV{Key: k, Val: []byte(fmt.Sprintf("v%d", k))})
				}
				h.PutBatch(c, id, batch)
			}
		})
	}
	eng.Run()
	// Index and table agree (checked against the raw store).
	st := m.Store()
	totalIdx, totalTbl := 0, 0
	for _, p := range h.Parts {
		idxKeys := map[uint64]bool{}
		p.Index.Scan(st, 0, func(k uint64, _ mem.Addr) bool { idxKeys[k] = true; return true })
		tblKeys := p.Table.Keys(st)
		totalIdx += len(idxKeys)
		totalTbl += len(tblKeys)
		for _, k := range tblKeys {
			if !idxKeys[k] {
				t.Errorf("key %d in table but not index", k)
			}
		}
	}
	if totalIdx != 100 || totalTbl != 100 {
		t.Fatalf("index=%d table=%d, want 100 each", totalIdx, totalTbl)
	}
}

// TestHybridIndexScan: scans see inserted keys in order through the
// DRAM index.
func TestHybridIndexScan(t *testing.T) {
	eng, m := newMachine()
	dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	h := NewHybridIndex(m.Store(), dal, nal, 64, 1)
	var got []uint64
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		var batch []KV
		for k := uint64(1); k <= 50; k++ {
			batch = append(batch, KV{Key: k, Val: []byte("x")})
		}
		h.PutBatch(c, 0, batch)
		got = h.Scan(c, 0, 10, 20)
	})
	eng.Run()
	if len(got) != 20 || got[0] != 10 || got[19] != 29 {
		t.Errorf("scan = %v", got)
	}
}

// TestDualConvergence: after the backend drains the cross-referencing
// log, front and back maps hold the same data.
func TestDualConvergence(t *testing.T) {
	eng, m := newMachine()
	dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	d := NewDual(m.Store(), dal, nal, 64, 1, 256, 32)
	done := false
	eng.Spawn("front", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for b := 0; b < 20; b++ {
			var batch []KV
			for j := 0; j < 5; j++ {
				k := uint64(b*5 + j + 1)
				batch = append(batch, KV{Key: k, Val: []byte(fmt.Sprintf("d%d", k))})
			}
			if n := d.FrontPut(c, 0, batch); n != 0 {
				t.Errorf("dropped %d log entries", n)
			}
		}
		done = true
	})
	eng.Spawn("back", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for {
			n := d.BackendStep(c, 0, 8)
			if n == 0 {
				if done && d.Parts[0].XLog.Len(c.NT()) == 0 {
					return
				}
				th.Advance(sim.Microsecond)
				th.Sync()
			}
		}
	})
	eng.Run()
	st := m.Store()
	if f, b := d.Parts[0].Front.Len(st), d.Parts[0].Back.Len(st); f != 100 || b != 100 {
		t.Fatalf("front=%d back=%d", f, b)
	}
	for k := uint64(1); k <= 100; k++ {
		fv, _ := d.Parts[0].Front.Get(st, k)
		bv, ok := d.Parts[0].Back.Get(st, k)
		if !ok || !bytes.Equal(fv, bv) {
			t.Fatalf("key %d: front %q back %q ok=%v", k, fv, bv, ok)
		}
	}
}

// TestEchoMasterClients: two clients stream batches through rings; the
// master applies them transactionally; the table ends complete.
func TestEchoMasterClients(t *testing.T) {
	eng, m := newMachine()
	dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	e := NewEcho(m.Store(), dal, nal, 64, 2, 128, 32)
	clientsDone := 0
	for i := 0; i < 2; i++ {
		id := i
		eng.Spawn("client", func(th *sim.Thread) {
			c := m.NewCtx(th, 0)
			for b := 0; b < 10; b++ {
				var batch []KV
				for j := 0; j < 4; j++ {
					k := uint64(id*1000 + b*4 + j + 1)
					batch = append(batch, KV{Key: k, Val: []byte("e")})
				}
				for publish(c, e.Rings[id], batch) > 0 {
					th.Advance(sim.Microsecond)
					th.Sync()
				}
			}
			clientsDone++
		})
	}
	eng.Spawn("master", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		for {
			total := 0
			for id := 0; id < 2; id++ {
				total += e.MasterStep(c, id, 16)
			}
			if total == 0 {
				if clientsDone == 2 && e.Rings[0].Len(c.NT()) == 0 && e.Rings[1].Len(c.NT()) == 0 {
					return
				}
				th.Advance(sim.Microsecond)
				th.Sync()
			}
		}
	})
	eng.Run()
	if n := e.Table.Len(m.Store()); n != 80 {
		t.Errorf("table has %d entries, want 80", n)
	}
}

// TestEchoReadOnlyBatch: a read-only batch finds exactly the inserted
// keys.
func TestEchoReadOnlyBatch(t *testing.T) {
	eng, m := newMachine()
	dal, nal := mem.NewAllocator(mem.DRAM), mem.NewAllocator(mem.NVM)
	e := NewEcho(m.Store(), dal, nal, 64, 1, 64, 32)
	var found int
	eng.Spawn("t", func(th *sim.Thread) {
		c := m.NewCtx(th, 0)
		c.Run(func(tx *core.Tx) {
			for k := uint64(1); k <= 30; k++ {
				e.Table.Put(tx, k, []byte("r"))
			}
		})
		keys := []uint64{1, 5, 30, 99, 100}
		found = e.ReadOnlyBatch(c, keys)
	})
	eng.Run()
	if found != 3 {
		t.Errorf("found = %d, want 3", found)
	}
}
