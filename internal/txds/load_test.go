package txds

import (
	"math/rand"
	"slices"
	"testing"

	"uhtm/internal/mem"
)

// btShape walks the tree below n and checks the bulk load's shape: no
// node is full, every non-root node holds at least 3 keys, and every
// leaf sits at one depth. It returns the leaf depth.
func btShape(t *testing.T, m Mem, n mem.Addr, depth int, root bool) int {
	cnt := nkeys(m, n)
	if cnt >= btMaxKeys || !root && cnt < btMinDeg-1 {
		t.Fatalf("node %#x at depth %d holds %d keys, want %d–%d", uint64(n), depth, cnt, btMinDeg-1, btMaxKeys-1)
	}
	if isLeaf(m, n) {
		return depth
	}
	leaf := btShape(t, m, kid(m, n, 0), depth+1, false)
	for i := 1; i <= cnt; i++ {
		if d := btShape(t, m, kid(m, n, i), depth+1, false); d != leaf {
			t.Fatalf("leaves at depths %d and %d", leaf, d)
		}
	}
	return leaf
}

// scanKeys collects up to max keys ≥ from in scan order.
func scanKeys(m Mem, b *BTree, from uint64, max int) []uint64 {
	var out []uint64
	b.Scan(m, from, func(k uint64, _ mem.Addr) bool {
		out = append(out, k)
		return len(out) < max
	})
	return out
}

// loadKeySpace bounds the test's keys, so scans also start between
// them and fresh keys are easy to draw.
const loadKeySpace = 1 << 22

// hashOrder fills a table of buckets buckets with n random keys, no two
// in one bucket, and returns them in the table's own order. With one key
// per bucket, the table's first i keys in that order are the order of a
// table holding only those i.
func hashOrder(m Mem, al *mem.Allocator, rng *rand.Rand, buckets, n int) []uint64 {
	table := NewHashMap(m, al, buckets)
	used := map[uint64]bool{}
	for len(used) < n {
		k := rng.Uint64()%loadKeySpace + 1
		if b := hashKey(k) & uint64(buckets-1); !used[b] {
			used[b] = true
			table.Put(m, k, nil)
		}
	}
	return table.Keys(m)
}

// TestLoadBTreeMatchesPutReference checks LoadBTree against the tree the
// index rebuild built before it: one Put per key, in a hash table's own
// order. It covers every key count from 0 to 3,000 and one 16,384-key
// partition of the served store: scans from random keys match the
// reference's, gets and Len are right, the shape has no full node,
// updating a loaded key allocates nothing (no split), and fresh inserts
// keep scans in order.
func TestLoadBTreeMatchesPutReference(t *testing.T) {
	st := mem.NewStore(mem.DefaultConfig())
	nal := mem.NewAllocator(mem.NVM)
	rng := rand.New(rand.NewSource(25))
	arenas := mem.SplitRegion(mem.DRAM, 3, 0)

	// Every small count's table is a prefix of one table with a key per
	// bucket, so one reference grown by a Put per count is, at each
	// count, the tree a per-key rebuild of that count's table builds.
	small := hashOrder(st, nal, rng, 4096, 3000)
	ref := NewBTree(st, arenas[0])
	var sorted []uint64
	for n := 0; n <= len(small); n++ {
		if n > 0 {
			k := small[n-1]
			ref.Put(st, k, nil)
			i, _ := slices.BinarySearch(sorted, k)
			sorted = slices.Insert(sorted, i, k)
		}
		checkLoad(t, st, rng, ref, sorted, 16)
	}
	if got := scanKeys(st, ref, 0, len(sorted)+1); !slices.Equal(got, sorted) {
		t.Fatalf("reference scan has %d keys, want %d in order", len(got), len(sorted))
	}

	big := hashOrder(st, nal, rng, 1<<15, 1<<14)
	ref = NewBTree(st, arenas[1])
	for _, k := range big {
		ref.Put(st, k, nil)
	}
	sorted = slices.Clone(big)
	slices.Sort(sorted)
	checkLoad(t, st, rng, ref, sorted, len(sorted))
}

// checkLoad loads sorted into a fresh DRAM arena and checks the tree
// against ref, getting and then updating probes of the loaded keys.
func checkLoad(t *testing.T, st *mem.Store, rng *rand.Rand, ref *BTree, sorted []uint64, probes int) {
	t.Helper()
	n := len(sorted)
	al := mem.SplitRegion(mem.DRAM, 3, 0)[2]
	b := LoadBTree(st, al, sorted)
	if got := b.Len(st); got != n {
		t.Fatalf("n=%d: Len = %d", n, got)
	}
	btShape(t, st, mem.Addr(st.ReadU64(b.Head())), 0, true)
	for i := 0; i < 4; i++ {
		from := rng.Uint64() % (loadKeySpace + 2)
		if got, want := scanKeys(st, b, from, 64), scanKeys(st, ref, from, 64); !slices.Equal(got, want) {
			t.Fatalf("n=%d: scan from %d = %v, reference %v", n, from, got, want)
		}
	}

	var probe []uint64
	if n > 0 {
		for i := 0; i < probes; i++ {
			probe = append(probe, sorted[rng.Intn(n)])
		}
	}
	for _, k := range probe {
		if v, ok := b.Get(st, k); !ok || len(v) != 0 {
			t.Fatalf("n=%d: Get(%d) = %q, %v, want the empty value", n, k, v, ok)
		}
	}
	if _, ok := b.Get(st, loadKeySpace+1); ok {
		t.Fatalf("n=%d: Get of an absent key found it", n)
	}
	// Updating a loaded key reuses its empty blob and splits no node,
	// so the allocator hands out nothing.
	before := *al
	for _, k := range probe {
		b.Put(st, k, nil)
	}
	if *al != before {
		t.Fatalf("n=%d: updating loaded keys allocated (a split)", n)
	}

	all := slices.Clone(sorted)
	for i := 0; i < 16; i++ {
		k := rng.Uint64()%loadKeySpace + 1
		if j, found := slices.BinarySearch(all, k); !found {
			all = slices.Insert(all, j, k)
			b.Put(st, k, []byte{byte(k)})
		}
	}
	if got := scanKeys(st, b, 0, len(all)+1); !slices.Equal(got, all) {
		t.Fatalf("n=%d: scan after inserts has %d keys, want %d in order", n, len(got), len(all))
	}
}
