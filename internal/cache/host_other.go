//go:build !amd64

package cache

// prefetch is a no-op on architectures without a prefetch stub; the
// cache behaves the same, only without the overlap.
func prefetch(*uint32, *uint64) {}

// scanSet is scanLoop on architectures without a vector stub.
func scanSet(set []uint32, tag uint32) (hit, free int) { return scanLoop(set, tag) }
