package txds

import "uhtm/internal/mem"

// The readers below are the tests' reference views of the structures.
// Production code only writes the structures, apart from the B-Tree's
// Scan and the HashMap's readers.

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

// Len counts entries.
func (t *BTree) Len(m Mem) int {
	n := 0
	t.Scan(m, 0, func(uint64, mem.Addr) bool { n++; return true })
	return n
}

// Get returns the value for key k, or (nil, false).
func (t *RBTree) Get(m Mem, k uint64) ([]byte, bool) {
	n := t.root(m)
	for n != nilPtr {
		nk := rbF(m, n, rbKey)
		switch {
		case k == nk:
			return readValue(m, mem.Addr(rbF(m, n, rbVal))), true
		case k < nk:
			n = rbF(m, n, rbLeft)
		default:
			n = rbF(m, n, rbRight)
		}
	}
	return nil, false
}

// Scan visits keys ≥ from ascending until fn returns false; it returns
// the number visited.
func (t *RBTree) Scan(m Mem, from uint64, fn func(k uint64, valAddr mem.Addr) bool) int {
	visited := 0
	t.scan(m, t.root(m), from, fn, &visited)
	return visited
}

func (t *RBTree) scan(m Mem, n uint64, from uint64, fn func(uint64, mem.Addr) bool, visited *int) bool {
	if n == nilPtr {
		return true
	}
	k := rbF(m, n, rbKey)
	if k >= from {
		if !t.scan(m, rbF(m, n, rbLeft), from, fn, visited) {
			return false
		}
		*visited++
		if !fn(k, mem.Addr(rbF(m, n, rbVal))) {
			return false
		}
	}
	return t.scan(m, rbF(m, n, rbRight), from, fn, visited)
}

// Len counts entries.
func (t *RBTree) Len(m Mem) int {
	return t.Scan(m, 0, func(uint64, mem.Addr) bool { return true })
}

// CheckInvariants verifies the red-black properties against m: root is
// black, no red node has a red child, and every root-to-nil path has
// the same black height. It returns the black height or panics with a
// description.
func (t *RBTree) CheckInvariants(m Mem) int {
	root := t.root(m)
	if root != nilPtr && rbColorOf(m, root) != black {
		panic("rbtree: red root")
	}
	return t.checkNode(m, root, 0, ^uint64(0))
}

func (t *RBTree) checkNode(m Mem, n uint64, lo, hi uint64) int {
	if n == nilPtr {
		return 1
	}
	k := rbF(m, n, rbKey)
	if k < lo || k > hi {
		panic("rbtree: BST order violated")
	}
	if rbColorOf(m, n) == red {
		if rbColorOf(m, rbF(m, n, rbLeft)) == red || rbColorOf(m, rbF(m, n, rbRight)) == red {
			panic("rbtree: red node with red child")
		}
	}
	var hiL, loR uint64
	if k > 0 {
		hiL = k - 1
	}
	loR = k + 1
	lh := t.checkNode(m, rbF(m, n, rbLeft), lo, hiL)
	rh := t.checkNode(m, rbF(m, n, rbRight), loR, hi)
	if lh != rh {
		panic("rbtree: black-height mismatch")
	}
	if rbColorOf(m, n) == black {
		return lh + 1
	}
	return lh
}

// Get returns the value for key k, or (nil, false).
func (s *SkipList) Get(m Mem, k uint64) ([]byte, bool) {
	n := s.headNode(m)
	for lvl := slMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			next := m.ReadU64(mem.Addr(n) + slNext + mem.Addr(lvl)*8)
			if next == nilPtr || m.ReadU64(mem.Addr(next)+slKey) > k {
				break
			}
			n = next
		}
	}
	if n != s.headNode(m) && m.ReadU64(mem.Addr(n)+slKey) == k {
		return readValue(m, mem.Addr(m.ReadU64(mem.Addr(n)+slVal))), true
	}
	return nil, false
}

// Scan visits keys ≥ from ascending (bottom-level walk) until fn returns
// false; it returns the number visited.
func (s *SkipList) Scan(m Mem, from uint64, fn func(k uint64, valAddr mem.Addr) bool) int {
	n := s.headNode(m)
	for lvl := slMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			next := m.ReadU64(mem.Addr(n) + slNext + mem.Addr(lvl)*8)
			if next == nilPtr || m.ReadU64(mem.Addr(next)+slKey) >= from {
				break
			}
			n = next
		}
	}
	visited := 0
	for p := m.ReadU64(mem.Addr(n) + slNext); p != nilPtr; p = m.ReadU64(mem.Addr(p) + slNext) {
		visited++
		if !fn(m.ReadU64(mem.Addr(p)+slKey), mem.Addr(m.ReadU64(mem.Addr(p)+slVal))) {
			break
		}
	}
	return visited
}

// Len counts entries.
func (s *SkipList) Len(m Mem) int {
	n := 0
	s.Scan(m, 0, func(uint64, mem.Addr) bool { n++; return true })
	return n
}
