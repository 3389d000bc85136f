// Package signature implements the per-transaction hardware address
// signatures of the paper: Bloom filters over cache-line addresses that
// encode the read- and write-sets of LLC-overflowed blocks. Filters are
// bit-exact models of the hardware (512-bit to 16k-bit arrays, H3-style
// hashing), so their false-positive behaviour — the phenomenon Figures
// 6–9 revolve around — is reproduced rather than approximated.
//
// Like the hardware, the package keeps no precise set: a filter match
// only says "maybe". The simulator labels a match as a true or
// false-positive conflict from its own per-line tracking table, outside
// this package.
package signature

import (
	"math/bits"

	"uhtm/internal/mem"
)

// Standard signature sizes evaluated in the paper.
const (
	Bits512 = 512
	Bits1K  = 1024
	Bits4K  = 4096
	Bits16K = 16384
)

// numHashes is the number of H3 hash functions per filter; four is the
// usual choice for LogTM-SE-style signatures.
const numHashes = 4

// splitmix64 seeds, one per hash function, fixed so signatures are
// deterministic across runs.
var hashSeeds = [numHashes]uint64{
	0x9E3779B97F4A7C15,
	0xBF58476D1CE4E5B9,
	0x94D049BB133111EB,
	0xD6E8FEB86659FD93,
}

// hash returns the idx-th hash of a line address.
func hash(a mem.Addr, idx int) uint64 {
	x := uint64(a) >> 6 // line-granular
	x += hashSeeds[idx]
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// bitOf maps a hash to a bit position of an nbits-bit filter.
func bitOf(h uint64, nbits int) uint64 {
	if n := uint64(nbits); n&(n-1) == 0 {
		return h & (n - 1) // the paper's sizes: no division
	}
	return h % uint64(nbits)
}

// Filter is one hardware Bloom filter.
type Filter struct {
	words []uint64
	nbits int
}

// NewFilter returns an empty filter with nbits bits. nbits must be a
// positive multiple of 64.
func NewFilter(nbits int) *Filter {
	if nbits <= 0 || nbits%64 != 0 {
		panic("signature: filter size must be a positive multiple of 64")
	}
	return &Filter{words: make([]uint64, nbits/64), nbits: nbits}
}

// Key is a line's bit positions in every filter of one size: probing
// many same-sized filters for one line hashes it at most once per hash
// function. Positions are computed on first use, so a probe that a
// filter rules out early never pays for the remaining hashes.
type Key struct {
	line  mem.Addr
	nbits int
	n     int // positions computed so far
	bits  [numHashes]uint32
}

// NewKey returns the key of the line containing a for nbits-bit filters.
func NewKey(a mem.Addr, nbits int) Key {
	return Key{line: mem.LineOf(a), nbits: nbits}
}

// Insert encodes the line containing a into the filter.
func (f *Filter) Insert(a mem.Addr) {
	for i := 0; i < numHashes; i++ {
		b := bitOf(hash(a, i), f.nbits)
		f.words[b/64] |= 1 << (b % 64)
	}
}

// MayContain reports whether a's line may have been inserted. False
// means definitely not inserted (no false negatives).
func (f *Filter) MayContain(a mem.Addr) bool {
	k := NewKey(a, f.nbits)
	return f.has(&k)
}

// has is MayContain for a key, which must have been built for this
// filter's size.
func (f *Filter) has(k *Key) bool {
	for i := 0; i < numHashes; i++ {
		if i == k.n {
			k.bits[i] = uint32(bitOf(hash(k.line, i), k.nbits))
			k.n++
		}
		b := k.bits[i]
		if f.words[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// Clear empties the filter (done when a transaction begins).
func (f *Filter) Clear() {
	clear(f.words)
}

// FillRatio reports the fraction of set bits — a direct proxy for the
// false-positive rate the evaluation section discusses.
func (f *Filter) FillRatio() float64 {
	set := 0
	for _, w := range f.words {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.nbits)
}

// Pair bundles the read and write signatures of one transaction.
type Pair struct {
	Read, Write *Filter
}

// NewPair returns empty read/write signatures of nbits bits each.
func NewPair(nbits int) *Pair {
	return &Pair{Read: NewFilter(nbits), Write: NewFilter(nbits)}
}

// AddRead records an overflowed transactional read of a.
func (p *Pair) AddRead(a mem.Addr) { p.Read.Insert(a) }

// AddWrite records an overflowed transactional write of a.
func (p *Pair) AddWrite(a mem.Addr) { p.Write.Insert(a) }

// Clear empties both filters (transaction begin).
func (p *Pair) Clear() {
	p.Read.Clear()
	p.Write.Clear()
}

// CheckWrite reports whether an incoming *write* (exclusive) request
// for a conflicts with this transaction's signatures: whether a's line
// may be in either the read or the write set.
func (p *Pair) CheckWrite(a mem.Addr) bool {
	k := NewKey(a, p.Read.nbits)
	conflict, _ := p.Probe(&k, true)
	return conflict
}

// Probe checks a write (or read) request for key k against the
// signatures. A write conflicts when either filter matches; a read
// conflicts only when the write filter matches. matched reports whether
// either filter matched at all, conflict or not — the hardware's signal
// to keep checking the line.
func (p *Pair) Probe(k *Key, write bool) (conflict, matched bool) {
	if write {
		conflict = p.Read.has(k) || p.Write.has(k)
		return conflict, conflict
	}
	// A read that misses the write filter still counts a read-filter
	// hit as a match.
	if p.Write.has(k) {
		return true, true
	}
	return false, p.Read.has(k)
}
