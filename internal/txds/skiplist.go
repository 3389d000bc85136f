package txds

import "uhtm/internal/mem"

// SkipList is a deterministic-height skip list (the PMDK skiplist
// benchmark shape). Its long forward-pointer chases make it the most
// signature-hostile structure in the suite — the paper singles it out as
// the benchmark where false positives cost UHTM the most (Section VI-A).
// Layout (u64 words):
//
//	header: [maxLevel u64][head node]
//	node:   [key][valPtr][level][next×level]
type SkipList struct {
	head mem.Addr // header
	al   *mem.Allocator
}

const (
	slMaxLevel = 16

	slKey   = 0
	slVal   = 8
	slLevel = 16
	slNext  = 24
)

// NewSkipList allocates an empty list.
func NewSkipList(m Mem, al *mem.Allocator) *SkipList {
	s := &SkipList{head: al.Alloc(16, mem.LineSize), al: al}
	hn := al.Alloc(slNext+8*slMaxLevel, mem.LineSize)
	m.WriteU64(s.head, slMaxLevel)
	m.WriteU64(s.head+8, uint64(hn))
	m.WriteU64(hn+slKey, 0)
	m.WriteU64(hn+slVal, nilPtr)
	m.WriteU64(hn+slLevel, slMaxLevel)
	for i := 0; i < slMaxLevel; i++ {
		m.WriteU64(hn+slNext+mem.Addr(i)*8, nilPtr)
	}
	return s
}

// AttachSkipList re-binds an existing list by its header address.
func AttachSkipList(head mem.Addr, al *mem.Allocator) *SkipList {
	return &SkipList{head: head, al: al}
}

// Head returns the header address.
func (s *SkipList) Head() mem.Addr { return s.head }

func (s *SkipList) headNode(m Mem) uint64 { return m.ReadU64(s.head + 8) }

// levelFor derives a deterministic height from the key so behaviour is
// reproducible across runs and retries (hardware randomness would break
// the simulator's determinism guarantees).
func levelFor(k uint64) int {
	h := hashKey(k)
	lvl := 1
	for h&1 == 1 && lvl < slMaxLevel {
		lvl++
		h >>= 1
	}
	return lvl
}

// Put inserts or updates k with value v.
func (s *SkipList) Put(m Mem, k uint64, v []byte) {
	var update [slMaxLevel]uint64
	n := s.headNode(m)
	for lvl := slMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			next := m.ReadU64(mem.Addr(n) + slNext + mem.Addr(lvl)*8)
			if next == nilPtr || m.ReadU64(mem.Addr(next)+slKey) >= k {
				break
			}
			n = next
		}
		update[lvl] = n
	}
	cand := m.ReadU64(mem.Addr(n) + slNext)
	if cand != nilPtr && m.ReadU64(mem.Addr(cand)+slKey) == k {
		vp := mem.Addr(m.ReadU64(mem.Addr(cand) + slVal))
		nv := updateValue(m, s.al, vp, v)
		if nv != vp {
			m.WriteU64(mem.Addr(cand)+slVal, uint64(nv))
		}
		return
	}
	lvl := levelFor(k)
	node := uint64(s.al.Alloc(slNext+8*lvl, mem.LineSize))
	m.WriteU64(mem.Addr(node)+slKey, k)
	m.WriteU64(mem.Addr(node)+slVal, uint64(writeValue(m, s.al, v)))
	m.WriteU64(mem.Addr(node)+slLevel, uint64(lvl))
	for i := 0; i < lvl; i++ {
		prev := update[i]
		m.WriteU64(mem.Addr(node)+slNext+mem.Addr(i)*8, m.ReadU64(mem.Addr(prev)+slNext+mem.Addr(i)*8))
		m.WriteU64(mem.Addr(prev)+slNext+mem.Addr(i)*8, node)
	}
}
