//go:build amd64

package cache

// prefetch issues PREFETCHT0 for the host cache lines holding *tags and
// *stack (prefetch_amd64.s). Unlike a plain load, a prefetch does not
// hold up the instructions after it, so the miss overlaps their work.
//
//go:noescape
func prefetch(tags *uint32, stack *uint64)
