//go:build amd64

package cache

import "math/bits"

// prefetch issues PREFETCHT0 for the host cache lines holding *tags and
// *stack (host_amd64.s). Unlike a plain load, a prefetch does not hold
// up the instructions after it, so the miss overlaps their work.
//
//go:noescape
func prefetch(tags *uint32, stack *uint64)

// scanSSE2 compares the ways of a set of n ways, n a positive multiple
// of 4, with tag (the dirty and stream bits masked) and with zero, four
// ways per SSE2 instruction (host_amd64.s). Way i's result is bits
// 4i..4i+3 of hits and of frees, all set on a match. SSE2 is part of
// the amd64 baseline, so no CPU check is needed.
//
//go:noescape
func scanSSE2(set *uint32, n int, tag uint32) (hits, frees uint64)

// scanSet returns what scanLoop does, from scanSSE2 for sets of 4 or
// more ways.
func scanSet(set []uint32, tag uint32) (hit, free int) {
	if len(set) < 4 {
		return scanLoop(set, tag)
	}
	hits, frees := scanSSE2(&set[0], len(set), tag)
	hit, free = -1, -1
	if hits != 0 {
		hit = bits.TrailingZeros64(hits) >> 2
	}
	if frees != 0 {
		free = bits.TrailingZeros64(frees) >> 2
	}
	return hit, free
}
