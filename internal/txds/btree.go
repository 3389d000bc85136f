package txds

import (
	"encoding/binary"

	"uhtm/internal/mem"
)

// BTree is a B-tree with minimum degree 4 (up to 7 keys / 8 children per
// node), the PMDK btree benchmark shape. It supports insert/update, point
// lookup, and ordered scans — the operation the paper places the DRAM
// copy of the hybrid index there for. Layout (all u64 words):
//
//	header: [root u64]
//	node:   [nkeys][leaf][keys×7][vals×7][children×8]
type BTree struct {
	head mem.Addr
	al   *mem.Allocator
}

const (
	btMinDeg   = 4
	btMaxKeys  = 2*btMinDeg - 1 // 7
	btMaxChild = 2 * btMinDeg   // 8

	btNKeys = 0
	btLeaf  = 8
	btKeys  = 16
	btVals  = btKeys + 8*btMaxKeys
	btKids  = btVals + 8*btMaxKeys
	btSize  = btKids + 8*btMaxChild
)

// NewBTree allocates an empty tree.
func NewBTree(m Mem, al *mem.Allocator) *BTree {
	t := &BTree{head: al.Alloc(8, mem.LineSize), al: al}
	root := t.newNode(m, true)
	m.WriteU64(t.head, uint64(root))
	return t
}

// btLoadFill is the most keys LoadBTree puts in one node: one short of
// full, because Put splits every full node on its way down, even when
// it only updates a key that node already holds.
const btLoadFill = btMaxKeys - 1

// LoadBTree builds a tree holding keys, which must be ascending and
// distinct, each with the empty value blob Put(k, nil) would give it.
// It builds bottom-up and writes each node once: a level of n keys
// becomes ceil((n+1)/(btLoadFill+1)) nodes that share the level's keys
// evenly, and the key between two neighbours moves up to the next
// level, until one node — the root — is left. Every non-root node thus
// holds 3–6 keys, all leaves sit at one depth, and no node is full, so
// a later Put of a loaded key splits nothing.
func LoadBTree(m Mem, al *mem.Allocator, keys []uint64) *BTree {
	t := &BTree{head: al.Alloc(8, mem.LineSize), al: al}
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(writeValue(m, al, nil))
	}
	var kids []mem.Addr // the level below's nodes; nil at the leaves
	for {
		nodes := (len(keys) + btLoadFill + 1) / (btLoadFill + 1)
		if nodes <= 1 {
			m.WriteU64(t.head, uint64(t.writeNode(m, keys, vals, kids)))
			return t
		}
		held := len(keys) - (nodes - 1) // the rest move up
		upKeys := make([]uint64, 0, nodes-1)
		upVals := make([]uint64, 0, nodes-1)
		upKids := make([]mem.Addr, 0, nodes)
		for i := 0; i < nodes; i++ {
			c := held / nodes
			if i < held%nodes {
				c++
			}
			var below []mem.Addr
			if kids != nil {
				below, kids = kids[:c+1], kids[c+1:]
			}
			upKids = append(upKids, t.writeNode(m, keys[:c], vals[:c], below))
			keys, vals = keys[c:], vals[c:]
			if i < nodes-1 {
				upKeys, upVals = append(upKeys, keys[0]), append(upVals, vals[0])
				keys, vals = keys[1:], vals[1:]
			}
		}
		keys, vals, kids = upKeys, upVals, upKids
	}
}

// writeNode allocates one node holding keys and vals (and kids, one
// more than keys, for an inner node) and writes it in a single call.
func (t *BTree) writeNode(m Mem, keys, vals []uint64, kids []mem.Addr) mem.Addr {
	var b [btSize]byte
	le := binary.LittleEndian
	le.PutUint64(b[btNKeys:], uint64(len(keys)))
	if kids == nil {
		le.PutUint64(b[btLeaf:], 1)
	}
	for i := range keys {
		le.PutUint64(b[btKeys+8*i:], keys[i])
		le.PutUint64(b[btVals+8*i:], vals[i])
	}
	for i, c := range kids {
		le.PutUint64(b[btKids+8*i:], uint64(c))
	}
	n := t.al.Alloc(btSize, mem.LineSize)
	m.WriteBytes(n, b[:])
	return n
}

// AttachBTree re-binds an existing tree by its header address.
func AttachBTree(head mem.Addr, al *mem.Allocator) *BTree {
	return &BTree{head: head, al: al}
}

// Head returns the header address.
func (t *BTree) Head() mem.Addr { return t.head }

// Allocator returns the allocator the tree's nodes and value blobs
// come from.
func (t *BTree) Allocator() *mem.Allocator { return t.al }

func (t *BTree) newNode(m Mem, leaf bool) mem.Addr {
	n := t.al.Alloc(btSize, mem.LineSize)
	m.WriteU64(n+btNKeys, 0)
	if leaf {
		m.WriteU64(n+btLeaf, 1)
	} else {
		m.WriteU64(n+btLeaf, 0)
	}
	return n
}

func key(m Mem, n mem.Addr, i int) uint64       { return m.ReadU64(n + btKeys + mem.Addr(i)*8) }
func setKey(m Mem, n mem.Addr, i int, k uint64) { m.WriteU64(n+btKeys+mem.Addr(i)*8, k) }
func val(m Mem, n mem.Addr, i int) uint64       { return m.ReadU64(n + btVals + mem.Addr(i)*8) }
func setVal(m Mem, n mem.Addr, i int, v uint64) { m.WriteU64(n+btVals+mem.Addr(i)*8, v) }
func kid(m Mem, n mem.Addr, i int) mem.Addr     { return mem.Addr(m.ReadU64(n + btKids + mem.Addr(i)*8)) }
func setKid(m Mem, n mem.Addr, i int, c mem.Addr) {
	m.WriteU64(n+btKids+mem.Addr(i)*8, uint64(c))
}
func nkeys(m Mem, n mem.Addr) int       { return int(m.ReadU64(n + btNKeys)) }
func setNKeys(m Mem, n mem.Addr, k int) { m.WriteU64(n+btNKeys, uint64(k)) }
func isLeaf(m Mem, n mem.Addr) bool     { return m.ReadU64(n+btLeaf) == 1 }

// Get returns the value for key k, or (nil, false).
func (t *BTree) Get(m Mem, k uint64) ([]byte, bool) {
	n := mem.Addr(m.ReadU64(t.head))
	for {
		cnt := nkeys(m, n)
		i := 0
		for i < cnt && k > key(m, n, i) {
			i++
		}
		if i < cnt && k == key(m, n, i) {
			return readValue(m, mem.Addr(val(m, n, i))), true
		}
		if isLeaf(m, n) {
			return nil, false
		}
		n = kid(m, n, i)
	}
}

// Put inserts or updates k with value v.
func (t *BTree) Put(m Mem, k uint64, v []byte) {
	root := mem.Addr(m.ReadU64(t.head))
	if nkeys(m, root) == btMaxKeys {
		nr := t.newNode(m, false)
		setKid(m, nr, 0, root)
		t.splitChild(m, nr, 0)
		m.WriteU64(t.head, uint64(nr))
		root = nr
	}
	t.insertNonFull(m, root, k, v)
}

// splitChild splits the full i-th child of parent p.
func (t *BTree) splitChild(m Mem, p mem.Addr, i int) {
	c := kid(m, p, i)
	leaf := isLeaf(m, c)
	nn := t.newNode(m, leaf)
	// Move the upper t-1 keys (and children) of c into nn.
	for j := 0; j < btMinDeg-1; j++ {
		setKey(m, nn, j, key(m, c, j+btMinDeg))
		setVal(m, nn, j, val(m, c, j+btMinDeg))
	}
	if !leaf {
		for j := 0; j < btMinDeg; j++ {
			setKid(m, nn, j, kid(m, c, j+btMinDeg))
		}
	}
	setNKeys(m, nn, btMinDeg-1)
	setNKeys(m, c, btMinDeg-1)
	// Shift parent entries right and hook in the median.
	pc := nkeys(m, p)
	for j := pc; j > i; j-- {
		setKid(m, p, j+1, kid(m, p, j))
	}
	setKid(m, p, i+1, nn)
	for j := pc - 1; j >= i; j-- {
		setKey(m, p, j+1, key(m, p, j))
		setVal(m, p, j+1, val(m, p, j))
	}
	setKey(m, p, i, key(m, c, btMinDeg-1))
	setVal(m, p, i, val(m, c, btMinDeg-1))
	setNKeys(m, p, pc+1)
}

func (t *BTree) insertNonFull(m Mem, n mem.Addr, k uint64, v []byte) {
	for {
		cnt := nkeys(m, n)
		// Update in place if the key exists at this node.
		i := 0
		for i < cnt && k > key(m, n, i) {
			i++
		}
		if i < cnt && k == key(m, n, i) {
			vp := mem.Addr(val(m, n, i))
			nv := updateValue(m, t.al, vp, v)
			if nv != vp {
				setVal(m, n, i, uint64(nv))
			}
			return
		}
		if isLeaf(m, n) {
			// Shift and insert.
			for j := cnt - 1; j >= i; j-- {
				setKey(m, n, j+1, key(m, n, j))
				setVal(m, n, j+1, val(m, n, j))
			}
			setKey(m, n, i, k)
			setVal(m, n, i, uint64(writeValue(m, t.al, v)))
			setNKeys(m, n, cnt+1)
			return
		}
		if nkeys(m, kid(m, n, i)) == btMaxKeys {
			t.splitChild(m, n, i)
			switch {
			case k == key(m, n, i):
				vp := mem.Addr(val(m, n, i))
				nv := updateValue(m, t.al, vp, v)
				if nv != vp {
					setVal(m, n, i, uint64(nv))
				}
				return
			case k > key(m, n, i):
				i++
			}
		}
		n = kid(m, n, i)
	}
}

// Scan visits keys ≥ from in ascending order until fn returns false or
// the tree is exhausted. It returns the number of entries visited — the
// long-running read-only operation of Section VI-B.
func (t *BTree) Scan(m Mem, from uint64, fn func(k uint64, valAddr mem.Addr) bool) int {
	visited := 0
	t.scan(m, mem.Addr(m.ReadU64(t.head)), from, fn, &visited)
	return visited
}

func (t *BTree) scan(m Mem, n mem.Addr, from uint64, fn func(uint64, mem.Addr) bool, visited *int) bool {
	cnt := nkeys(m, n)
	leaf := isLeaf(m, n)
	i := 0
	for i < cnt && key(m, n, i) < from {
		i++
	}
	if !leaf {
		if !t.scan(m, kid(m, n, i), from, fn, visited) {
			return false
		}
	}
	for ; i < cnt; i++ {
		*visited++
		if !fn(key(m, n, i), mem.Addr(val(m, n, i))) {
			return false
		}
		if !leaf {
			if !t.scan(m, kid(m, n, i+1), from, fn, visited) {
				return false
			}
		}
	}
	return true
}

// Len counts entries (test/checker use).
func (t *BTree) Len(m Mem) int {
	n := 0
	t.Scan(m, 0, func(uint64, mem.Addr) bool { n++; return true })
	return n
}
