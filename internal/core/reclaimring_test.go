package core

import (
	"math/rand"
	"testing"

	"uhtm/internal/mem"
	"uhtm/internal/wal"
)

// decodeFate summarizes one transaction's marks on one redo ring, built
// per pass by reclaimRingDecode.
type decodeFate struct {
	commitLSN uint64
	committed bool
	aborted   bool
	prepared  bool
}

// reclaimRingDecode is the reference reclaimRing must match bit for
// bit: it decodes the ring's window (a persistent ring's durable window
// is its live one) and walks it twice, first to build a per-TxID fate
// table, then from the tail to stop at the first record whose
// transaction must survive. dead holds the transactions a power failure
// cut short, which recovery closes as aborted.
func (m *Machine) reclaimRingDecode(ring *wal.Log, low uint64, dead map[uint64]bool) {
	fates := make(map[uint64]decodeFate)
	w := ring.Window()
	for _, r := range w.Recs {
		if r.Type == 0 {
			continue // undecodable slot
		}
		f := fates[r.TxID]
		switch r.Type {
		case wal.RecCommit:
			f.committed = true
			f.commitLSN = r.LSN
		case wal.RecAbort:
			f.aborted = true
		case wal.RecPrepare:
			f.prepared = true
		}
		f.aborted = f.aborted || dead[r.TxID]
		fates[r.TxID] = f
	}
	stop := w.Tail
	for i, r := range w.Recs {
		if r.Type == 0 {
			break // undecodable slot: keep everything from here on
		}
		f := fates[r.TxID]
		disposable := false
		switch {
		case f.aborted && !f.committed:
			disposable = true
		case f.committed:
			disposable = f.commitLSN <= low
		case f.prepared:
			disposable = m.prepareResolver != nil && m.prepareResolver(r.TxID)
		}
		if !disposable {
			break
		}
		stop = w.Tail + uint64(i) + 1
	}
	ring.Reclaim(stop)
}

// TestReclaimRingMatchesDecodeWalk drives two identical small redo rings
// through a seeded mix of local commit groups, lone abort marks, 2PC
// prepare groups whose apply mark lands after other groups, prepares
// decided abort (resolver true, no mark), undecided prepares, a commit
// left open across reclamation passes, full truncations and crashes
// with recovery. One ring is reclaimed from its group index, the other
// by the decoding reference; after every pass both must keep the same
// tail.
func TestReclaimRingMatchesDecodeWalk(t *testing.T) {
	const gidBase = 1 << 63
	for seed := int64(1); seed <= 6; seed++ {
		_, m := newTestMachine(DefaultOptions())
		const ringBytes = 4 << 10 // 38 record slots: wraps every few dozen ops
		redoBase := mem.NVMLogBase + mem.LineSize + ckptRingBytes(m.cfg.Cores)
		m.redoRings = wal.NewRings(m.store, redoBase, mem.Addr(ringBytes*m.cfg.Cores), m.cfg.Cores, true)
		ring := m.RedoLog(0)
		refStore := mem.NewStore(mem.DefaultConfig())
		ref := wal.NewLog(refStore, redoBase, ringBytes, true)

		decided := map[uint64]bool{}
		dead := map[uint64]bool{}
		m.SetPrepareResolver(func(id uint64) bool { return decided[id] })
		rng := rand.New(rand.NewSource(seed))
		lines := mem.NewAllocator(mem.NVM).AllocLines(8)
		var prepared []uint64 // prepare groups without an apply mark yet
		var txID, gid uint64
		var open uint64 // TxID of the commit group left open, 0 if none
		passes := 0

		both := func(r wal.Record) {
			ring.Append(r)
			ref.Append(r)
		}
		// room truncates both rings outright when n more records would
		// not fit, as a quiescent full pass would.
		room := func(n uint64) {
			if ring.Len()+n > ring.Slots() {
				ring.Reclaim(ring.Head())
				ref.Reclaim(ref.Head())
				open = 0
			}
		}
		writes := func(id uint64, n int) {
			for w := 0; w < n; w++ {
				a := lines + mem.Addr(rng.Intn(8))*mem.LineSize
				both(wal.Record{Type: wal.RecWrite, TxID: id, Addr: a, Data: mem.Line{byte(id), byte(w)}})
			}
		}
		for op := 0; op < 4000; op++ {
			if open != 0 {
				// The open commit group closes with its mark before any
				// other append: a core's records are contiguous.
				if rng.Intn(3) == 0 {
					both(wal.Record{Type: wal.RecCommit, TxID: open, LSN: m.NextLSN()})
					open = 0
				}
			}
			switch k := rng.Intn(20); {
			case k < 6 && open == 0: // local commit group
				n := 1 + rng.Intn(3)
				room(uint64(n) + 1)
				txID++
				writes(txID, n)
				both(wal.Record{Type: wal.RecCommit, TxID: txID, LSN: m.NextLSN()})
			case k < 8 && open == 0: // lone abort mark
				room(1)
				txID++
				both(wal.Record{Type: wal.RecAbort, TxID: txID})
			case k < 10 && open == 0: // 2PC prepare group
				n := 1 + rng.Intn(3)
				room(uint64(n) + 1)
				gid++
				writes(gidBase|gid, n)
				both(wal.Record{Type: wal.RecPrepare, TxID: gidBase | gid})
				prepared = append(prepared, gidBase|gid)
			case k < 12 && open == 0 && len(prepared) > 0: // apply mark
				i := rng.Intn(len(prepared))
				g := prepared[i]
				prepared = append(prepared[:i], prepared[i+1:]...)
				room(1)
				both(wal.Record{Type: wal.RecCommit, TxID: g, LSN: m.NextLSN()})
			case k < 13 && len(prepared) > 0: // decided abort, or resolved everywhere
				i := rng.Intn(len(prepared))
				decided[prepared[i]] = true
				prepared = append(prepared[:i], prepared[i+1:]...)
			case k < 14 && open == 0: // commit group left open across passes
				n := 1 + rng.Intn(3)
				room(uint64(n) + 1)
				txID++
				writes(txID, n)
				open = txID
			case k < 18: // reclamation pass, low-water mark below some commits
				low := m.lsnCounter
				if d := uint64(rng.Intn(6)); d <= low {
					low -= d
				}
				m.reclaimRing(ring, low)
				m.reclaimRingDecode(ref, low, dead)
				passes++
				if ring.Tail() != ref.Tail() {
					t.Fatalf("seed %d op %d: index reclaimed to %d, decode walk to %d (low %d, head %d)",
						seed, op, ring.Tail(), ref.Tail(), low, ring.Head())
				}
			case k < 19: // quiescent full truncation
				ring.Reclaim(ring.Head())
				ref.Reclaim(ref.Head())
				open = 0
			default: // power failure and recovery; an open group dies
				m.Crash()
				m.Recover()
				refStore.Crash()
				dead[open] = true
				open = 0
			}
		}
		if passes < 100 || ref.Head() < 10*ref.Slots() {
			t.Fatalf("seed %d: %d passes over %d appends; the mix no longer exercises the ring", seed, passes, ref.Head())
		}
	}
}
