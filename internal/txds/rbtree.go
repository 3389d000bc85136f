package txds

import "uhtm/internal/mem"

// RBTree is a classic red-black tree with parent pointers (the PMDK
// rbtree benchmark shape): insert/update, lookup, ordered scan. Layout
// (u64 words):
//
//	header: [root u64]
//	node:   [key][valPtr][left][right][parent][color]  (red=1, black=0)
type RBTree struct {
	head mem.Addr
	al   *mem.Allocator
}

const (
	rbKey    = 0
	rbVal    = 8
	rbLeft   = 16
	rbRight  = 24
	rbParent = 32
	rbColor  = 40
	rbSize   = 48

	red   = 1
	black = 0
)

// NewRBTree allocates an empty tree.
func NewRBTree(m Mem, al *mem.Allocator) *RBTree {
	t := &RBTree{head: al.Alloc(8, mem.LineSize), al: al}
	m.WriteU64(t.head, nilPtr)
	return t
}

// AttachRBTree re-binds an existing tree by its header address.
func AttachRBTree(head mem.Addr, al *mem.Allocator) *RBTree {
	return &RBTree{head: head, al: al}
}

// Head returns the header address.
func (t *RBTree) Head() mem.Addr { return t.head }

func (t *RBTree) root(m Mem) uint64       { return m.ReadU64(t.head) }
func (t *RBTree) setRoot(m Mem, n uint64) { m.WriteU64(t.head, n) }

func rbF(m Mem, n uint64, off mem.Addr) uint64      { return m.ReadU64(mem.Addr(n) + off) }
func rbSet(m Mem, n uint64, off mem.Addr, v uint64) { m.WriteU64(mem.Addr(n)+off, v) }
func rbColorOf(m Mem, n uint64) uint64 {
	if n == nilPtr {
		return black // nil leaves are black
	}
	return rbF(m, n, rbColor)
}

// Put inserts or updates k with value v.
func (t *RBTree) Put(m Mem, k uint64, v []byte) {
	// Standard BST insert.
	parent := nilPtr
	n := t.root(m)
	for n != nilPtr {
		nk := rbF(m, n, rbKey)
		if k == nk {
			vp := mem.Addr(rbF(m, n, rbVal))
			nv := updateValue(m, t.al, vp, v)
			if nv != vp {
				rbSet(m, n, rbVal, uint64(nv))
			}
			return
		}
		parent = n
		if k < nk {
			n = rbF(m, n, rbLeft)
		} else {
			n = rbF(m, n, rbRight)
		}
	}
	node := uint64(t.al.Alloc(rbSize, mem.LineSize))
	rbSet(m, node, rbKey, k)
	rbSet(m, node, rbVal, uint64(writeValue(m, t.al, v)))
	rbSet(m, node, rbLeft, nilPtr)
	rbSet(m, node, rbRight, nilPtr)
	rbSet(m, node, rbParent, parent)
	rbSet(m, node, rbColor, red)
	switch {
	case parent == nilPtr:
		t.setRoot(m, node)
	case k < rbF(m, parent, rbKey):
		rbSet(m, parent, rbLeft, node)
	default:
		rbSet(m, parent, rbRight, node)
	}
	t.fixInsert(m, node)
}

func (t *RBTree) rotateLeft(m Mem, x uint64) {
	y := rbF(m, x, rbRight)
	yl := rbF(m, y, rbLeft)
	rbSet(m, x, rbRight, yl)
	if yl != nilPtr {
		rbSet(m, yl, rbParent, x)
	}
	p := rbF(m, x, rbParent)
	rbSet(m, y, rbParent, p)
	switch {
	case p == nilPtr:
		t.setRoot(m, y)
	case x == rbF(m, p, rbLeft):
		rbSet(m, p, rbLeft, y)
	default:
		rbSet(m, p, rbRight, y)
	}
	rbSet(m, y, rbLeft, x)
	rbSet(m, x, rbParent, y)
}

func (t *RBTree) rotateRight(m Mem, x uint64) {
	y := rbF(m, x, rbLeft)
	yr := rbF(m, y, rbRight)
	rbSet(m, x, rbLeft, yr)
	if yr != nilPtr {
		rbSet(m, yr, rbParent, x)
	}
	p := rbF(m, x, rbParent)
	rbSet(m, y, rbParent, p)
	switch {
	case p == nilPtr:
		t.setRoot(m, y)
	case x == rbF(m, p, rbRight):
		rbSet(m, p, rbRight, y)
	default:
		rbSet(m, p, rbLeft, y)
	}
	rbSet(m, y, rbRight, x)
	rbSet(m, x, rbParent, y)
}

func (t *RBTree) fixInsert(m Mem, z uint64) {
	for {
		p := rbF(m, z, rbParent)
		if p == nilPtr || rbColorOf(m, p) == black {
			break
		}
		g := rbF(m, p, rbParent) // grandparent exists: p is red, root is black
		if p == rbF(m, g, rbLeft) {
			u := rbF(m, g, rbRight)
			if rbColorOf(m, u) == red {
				rbSet(m, p, rbColor, black)
				rbSet(m, u, rbColor, black)
				rbSet(m, g, rbColor, red)
				z = g
				continue
			}
			if z == rbF(m, p, rbRight) {
				z = p
				t.rotateLeft(m, z)
				p = rbF(m, z, rbParent)
				g = rbF(m, p, rbParent)
			}
			rbSet(m, p, rbColor, black)
			rbSet(m, g, rbColor, red)
			t.rotateRight(m, g)
		} else {
			u := rbF(m, g, rbLeft)
			if rbColorOf(m, u) == red {
				rbSet(m, p, rbColor, black)
				rbSet(m, u, rbColor, black)
				rbSet(m, g, rbColor, red)
				z = g
				continue
			}
			if z == rbF(m, p, rbLeft) {
				z = p
				t.rotateRight(m, z)
				p = rbF(m, z, rbParent)
				g = rbF(m, p, rbParent)
			}
			rbSet(m, p, rbColor, black)
			rbSet(m, g, rbColor, red)
			t.rotateLeft(m, g)
		}
	}
	root := t.root(m)
	if rbColorOf(m, root) != black {
		rbSet(m, root, rbColor, black)
	}
}
