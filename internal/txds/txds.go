// Package txds provides the transactional data structures the paper's
// evaluation uses (Table IV): a chained HashMap, a B-Tree, a Red-Black
// Tree and a SkipList — the PMDK micro-benchmark structures — all living
// *inside the simulated address space*. Every field access goes through
// a Mem accessor, so the same structure code runs transactionally (with
// a *core.Tx), non-transactionally (the *core.Accessor that Ctx.NT
// returns), or directly against the store in unit tests.
//
// Persistent instances allocate from the NVM region, volatile ones from
// DRAM; the paper's hybrid key-value stores combine one of each.
package txds

import (
	"uhtm/internal/mem"
)

// Mem is the memory-accessor interface: *core.Tx, *core.Accessor and
// *mem.Store all satisfy it.
type Mem interface {
	ReadU64(a mem.Addr) uint64
	WriteU64(a mem.Addr, v uint64)
	ReadBytes(a mem.Addr, n int) []byte
	WriteBytes(a mem.Addr, b []byte)
}

// nilPtr is the in-memory null pointer (address 0 is valid DRAM, so a
// sentinel is used instead).
const nilPtr = ^uint64(0)

// hashKey mixes a key for bucket selection (splitmix64 finalizer).
func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

// writeValue allocates and fills a fresh value blob ([len u64][bytes…];
// writing one touches ceil(len/64)+1 lines — the footprint knob of the
// evaluation), returning its address.
func writeValue(m Mem, al *mem.Allocator, v []byte) mem.Addr {
	a := al.Alloc(8+len(v), mem.LineSize)
	m.WriteU64(a, uint64(len(v)))
	if len(v) > 0 {
		m.WriteBytes(a+8, v)
	}
	return a
}

// readValue loads a value blob.
func readValue(m Mem, a mem.Addr) []byte {
	n := m.ReadU64(a)
	if n == 0 {
		return nil
	}
	return m.ReadBytes(a+8, int(n))
}

// updateValue overwrites a value blob in place when the new value fits,
// otherwise allocates a fresh blob; it returns the (possibly new)
// address.
func updateValue(m Mem, al *mem.Allocator, a mem.Addr, v []byte) mem.Addr {
	oldLen := m.ReadU64(a)
	if uint64(len(v)) <= oldLen {
		m.WriteU64(a, uint64(len(v)))
		if len(v) > 0 {
			m.WriteBytes(a+8, v)
		}
		return a
	}
	return writeValue(m, al, v)
}
