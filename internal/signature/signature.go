// Package signature implements the per-transaction hardware address
// signatures of the paper: Bloom filters over cache-line addresses that
// encode the read- and write-sets of LLC-overflowed blocks. Filters are
// bit-exact models of the hardware (512-bit to 16k-bit arrays, H3-style
// hashing), so their false-positive behaviour — the phenomenon Figures
// 6–9 revolve around — is reproduced rather than approximated.
//
// The package also provides precise shadow sets. The simulated hardware
// *behaves* according to the filters; the shadow sets supply ground
// truth so the statistics layer can classify each signature-detected
// conflict as true or false-positive, and so tests can verify that
// filters never produce false negatives.
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
	count int // insertions since last Clear (including duplicates)
}

// NewFilter returns an empty filter with nbits bits. nbits must be a
// positive multiple of 64.
func NewFilter(nbits int) *Filter {
	if nbits <= 0 || nbits%64 != 0 {
		panic("signature: filter size must be a positive multiple of 64")
	}
	return &Filter{words: make([]uint64, nbits/64), nbits: nbits}
}

// Bits returns the filter's size in bits.
func (f *Filter) Bits() int { return f.nbits }

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
	f.count++
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

// Clear empties the filter (done when a transaction commits or aborts).
func (f *Filter) Clear() {
	for i := range f.words {
		f.words[i] = 0
	}
	f.count = 0
}

// Count returns the number of Insert calls since the last Clear.
func (f *Filter) Count() int { return f.count }

// Empty reports whether no bits are set.
func (f *Filter) Empty() bool {
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
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

// Set is a precise shadow set of line addresses: what an ideal
// (false-positive-free) conflict detector would track.
type Set map[mem.Addr]struct{}

// NewSet returns an empty precise set.
func NewSet() Set { return make(Set) }

// Insert adds the line containing a.
func (s Set) Insert(a mem.Addr) { s[mem.LineOf(a)] = struct{}{} }

// Contains reports whether a's line is in the set.
func (s Set) Contains(a mem.Addr) bool {
	_, ok := s[mem.LineOf(a)]
	return ok
}

// Clear empties the set in place.
func (s Set) Clear() {
	for k := range s {
		delete(s, k)
	}
}

// Len returns the number of distinct lines.
func (s Set) Len() int { return len(s) }

// Pair bundles the read and write signatures of one transaction, each
// with its precise shadow.
type Pair struct {
	Read, Write               *Filter
	PreciseRead, PreciseWrite Set
}

// NewPair returns empty read/write signatures of nbits bits each.
func NewPair(nbits int) *Pair {
	return &Pair{
		Read:         NewFilter(nbits),
		Write:        NewFilter(nbits),
		PreciseRead:  NewSet(),
		PreciseWrite: NewSet(),
	}
}

// AddRead records an overflowed transactional read of a.
func (p *Pair) AddRead(a mem.Addr) {
	p.Read.Insert(a)
	p.PreciseRead.Insert(a)
}

// AddWrite records an overflowed transactional write of a.
func (p *Pair) AddWrite(a mem.Addr) {
	p.Write.Insert(a)
	p.PreciseWrite.Insert(a)
}

// Clear empties both filters and shadows (transaction end).
func (p *Pair) Clear() {
	p.Read.Clear()
	p.Write.Clear()
	p.PreciseRead.Clear()
	p.PreciseWrite.Clear()
}

// CheckKind classifies the outcome of checking an address against a
// signature.
type CheckKind int

const (
	// NoConflict: the filter rules the address out.
	NoConflict CheckKind = iota
	// TrueConflict: the filter matches and the precise shadow confirms.
	TrueConflict
	// FalsePositive: the filter matches but the precise shadow refutes —
	// the transaction will still be aborted (hardware cannot tell), but
	// statistics record the abort as false.
	FalsePositive
)

// String names the signature-check outcome for stats and logs.
func (k CheckKind) String() string {
	switch k {
	case NoConflict:
		return "none"
	case TrueConflict:
		return "true"
	default:
		return "false-positive"
	}
}

// CheckWrite classifies an incoming *write* (exclusive) request against
// this transaction's signatures: it conflicts if the line may be in
// either the read or the write set.
func (p *Pair) CheckWrite(a mem.Addr) CheckKind {
	k := NewKey(a, p.Read.nbits)
	return p.check(&k, true)
}

// CheckRead classifies an incoming *read* (shared) request: it conflicts
// only if the line may be in the write set.
func (p *Pair) CheckRead(a mem.Addr) CheckKind {
	k := NewKey(a, p.Read.nbits)
	return p.check(&k, false)
}

// Probe classifies a write (or read) request for key k like CheckWrite
// (or CheckRead) and also reports whether either filter matched at all,
// conflict or not — the hardware's signal to keep checking the line.
func (p *Pair) Probe(k *Key, write bool) (kind CheckKind, matched bool) {
	kind = p.check(k, write)
	// Without a conflict a write missed both filters, but a read only
	// missed the write filter: its read-filter hit still counts.
	return kind, kind != NoConflict || (!write && p.Read.has(k))
}

// check is the classification behind CheckWrite, CheckRead and Probe.
func (p *Pair) check(k *Key, write bool) CheckKind {
	if write {
		if !p.Read.has(k) && !p.Write.has(k) {
			return NoConflict
		}
		if p.PreciseRead.Contains(k.line) || p.PreciseWrite.Contains(k.line) {
			return TrueConflict
		}
		return FalsePositive
	}
	if !p.Write.has(k) {
		return NoConflict
	}
	if p.PreciseWrite.Contains(k.line) {
		return TrueConflict
	}
	return FalsePositive
}
