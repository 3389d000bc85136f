package txds

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"uhtm/internal/mem"
)

// env returns a raw store (which satisfies Mem) and an NVM allocator —
// structures are exercised here without the simulator in the loop.
func env() (*mem.Store, *mem.Allocator) {
	return mem.NewStore(mem.DefaultConfig()), mem.NewAllocator(mem.NVM)
}

func v(s string) []byte { return []byte(s) }

// kvStructure abstracts the four structures for shared tests.
type kvStructure interface {
	Put(m Mem, k uint64, v []byte)
	Get(m Mem, k uint64) ([]byte, bool)
	Len(m Mem) int
}

func structures(m Mem, al *mem.Allocator) map[string]kvStructure {
	return map[string]kvStructure{
		"hashmap":  NewHashMap(m, al, 64),
		"btree":    NewBTree(m, al),
		"rbtree":   NewRBTree(m, al),
		"skiplist": NewSkipList(m, al),
	}
}

func TestPutGetBasics(t *testing.T) {
	st, al := env()
	for name, ds := range structures(st, al) {
		t.Run(name, func(t *testing.T) {
			if _, ok := ds.Get(st, 42); ok {
				t.Error("empty structure returned a value")
			}
			ds.Put(st, 42, v("hello"))
			got, ok := ds.Get(st, 42)
			if !ok || !bytes.Equal(got, v("hello")) {
				t.Errorf("Get = %q, %v", got, ok)
			}
			ds.Put(st, 42, v("world")) // same-size update
			got, _ = ds.Get(st, 42)
			if !bytes.Equal(got, v("world")) {
				t.Errorf("after update, Get = %q", got)
			}
			ds.Put(st, 42, v("a much longer value forcing reallocation"))
			got, _ = ds.Get(st, 42)
			if !bytes.Equal(got, v("a much longer value forcing reallocation")) {
				t.Errorf("after grow, Get = %q", got)
			}
			if ds.Len(st) != 1 {
				t.Errorf("Len = %d", ds.Len(st))
			}
		})
	}
}

func TestOracleComparison(t *testing.T) {
	st, al := env()
	for name, ds := range structures(st, al) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			oracle := map[uint64][]byte{}
			for i := 0; i < 2000; i++ {
				k := uint64(rng.Intn(500)) + 1 // collisions guaranteed
				val := []byte(fmt.Sprintf("v%d-%d", k, i))
				ds.Put(st, k, val)
				oracle[k] = val
			}
			if ds.Len(st) != len(oracle) {
				t.Fatalf("Len = %d, oracle %d", ds.Len(st), len(oracle))
			}
			for k, want := range oracle {
				got, ok := ds.Get(st, k)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("key %d: got %q ok=%v, want %q", k, got, ok, want)
				}
			}
			// Absent keys.
			for i := 0; i < 100; i++ {
				k := uint64(rng.Intn(500)) + 10000
				if _, ok := ds.Get(st, k); ok {
					t.Fatalf("absent key %d found", k)
				}
			}
		})
	}
}

func TestHashMapDelete(t *testing.T) {
	st, al := env()
	h := NewHashMap(st, al, 16)
	for k := uint64(1); k <= 100; k++ {
		h.Put(st, k, v("x"))
	}
	for k := uint64(1); k <= 100; k += 2 {
		if !h.Delete(st, k) {
			t.Fatalf("Delete(%d) = false", k)
		}
	}
	if h.Delete(st, 1) {
		t.Error("double delete succeeded")
	}
	if h.Len(st) != 50 {
		t.Errorf("Len = %d", h.Len(st))
	}
	for k := uint64(2); k <= 100; k += 2 {
		if _, ok := h.Get(st, k); !ok {
			t.Fatalf("surviving key %d missing", k)
		}
	}
}

func TestOrderedScan(t *testing.T) {
	st, al := env()
	scanners := map[string]interface {
		Put(m Mem, k uint64, v []byte)
		Scan(m Mem, from uint64, fn func(uint64, mem.Addr) bool) int
	}{
		"btree":    NewBTree(st, al),
		"rbtree":   NewRBTree(st, al),
		"skiplist": NewSkipList(st, al),
	}
	rng := rand.New(rand.NewSource(9))
	keys := rng.Perm(500)
	for name, ds := range scanners {
		t.Run(name, func(t *testing.T) {
			for _, k := range keys {
				ds.Put(st, uint64(k)+1, v("s"))
			}
			var got []uint64
			ds.Scan(st, 100, func(k uint64, _ mem.Addr) bool {
				got = append(got, k)
				return true
			})
			if len(got) != 401 { // keys 100..500
				t.Fatalf("scan visited %d keys, want 401", len(got))
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Error("scan out of order")
			}
			if got[0] != 100 || got[len(got)-1] != 500 {
				t.Errorf("scan range [%d,%d]", got[0], got[len(got)-1])
			}
		})
	}
}

func TestScanEarlyStop(t *testing.T) {
	st, al := env()
	b := NewBTree(st, al)
	for k := uint64(1); k <= 100; k++ {
		b.Put(st, k, v("x"))
	}
	n := 0
	b.Scan(st, 0, func(uint64, mem.Addr) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRBTreeInvariantsUnderLoad(t *testing.T) {
	st, al := env()
	r := NewRBTree(st, al)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		r.Put(st, rng.Uint64()%10000+1, v("z"))
		if i%250 == 0 {
			r.CheckInvariants(st)
		}
	}
	r.CheckInvariants(st)
	// Sequential (adversarial for naive BSTs).
	r2 := NewRBTree(st, al)
	for k := uint64(1); k <= 2000; k++ {
		r2.Put(st, k, v("z"))
	}
	if h := r2.CheckInvariants(st); h > 16 {
		t.Errorf("black height %d too large for 2000 sequential keys", h)
	}
}

func TestBTreeSplitsDeep(t *testing.T) {
	st, al := env()
	b := NewBTree(st, al)
	// Enough keys to force several levels (fanout 8 → 8^4 = 4096).
	for k := uint64(1); k <= 5000; k++ {
		b.Put(st, k, v("d"))
	}
	if b.Len(st) != 5000 {
		t.Fatalf("Len = %d", b.Len(st))
	}
	for _, k := range []uint64{1, 7, 8, 63, 64, 512, 4999, 5000} {
		if _, ok := b.Get(st, k); !ok {
			t.Fatalf("key %d lost after splits", k)
		}
	}
}

func TestLargeValues(t *testing.T) {
	st, al := env()
	h := NewHashMap(st, al, 16)
	big := make([]byte, 4096) // 64 lines
	for i := range big {
		big[i] = byte(i)
	}
	h.Put(st, 7, big)
	got, ok := h.Get(st, 7)
	if !ok || !bytes.Equal(got, big) {
		t.Error("4KB value round-trip failed")
	}
}

func TestDeterministicSkipListLevels(t *testing.T) {
	counts := make([]int, slMaxLevel+1)
	for k := uint64(0); k < 100000; k++ {
		counts[levelFor(k)]++
	}
	// Roughly geometric: level 1 ≈ 50%, level 2 ≈ 25%...
	if counts[1] < 40000 || counts[1] > 60000 {
		t.Errorf("level-1 fraction off: %d", counts[1])
	}
	if counts[2] < 20000 || counts[2] > 30000 {
		t.Errorf("level-2 fraction off: %d", counts[2])
	}
}

// Property: every structure agrees with a Go map oracle under random
// put/get interleavings.
func TestQuickOracle(t *testing.T) {
	f := func(ops []uint16) bool {
		st, al := env()
		for _, ds := range structures(st, al) {
			oracle := map[uint64][]byte{}
			for i, op := range ops {
				k := uint64(op%97) + 1
				if op%3 == 0 {
					got, ok := ds.Get(st, k)
					want, wantOK := oracle[k]
					if ok != wantOK || (ok && !bytes.Equal(got, want)) {
						return false
					}
				} else {
					val := []byte(fmt.Sprintf("%d:%d", k, i))
					ds.Put(st, k, val)
					oracle[k] = val
				}
			}
			if ds.Len(st) != len(oracle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
