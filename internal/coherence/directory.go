// Package coherence models the directory extension of Section IV-D: each
// directory entry gains a Tx-bit, a Tx-Owner (the transaction that wrote
// the line) and Tx-Sharers (transactions that read it). Fields hold
// *transaction IDs*, not core IDs, so conflict detection survives
// context switches. The directory is authoritative for on-chip
// transactional data only — when a line leaves the LLC its entry is
// surrendered to the address signatures (the staged detection scheme).
//
// The implementation is flat and allocation-free in steady state:
// per-line state lives in lazily materialized pages indexed by
// mem.LineIndex, sharer sets are singly linked lists in a pooled node
// arena, and the per-transaction reverse index is an append-only line
// list validated lazily on consumption (a stale entry — the line was
// surrendered and possibly re-adopted — is simply skipped). Methods
// that return slices (CheckWrite, CheckRead, TxInfo, SurrenderLine,
// ClearTx) return reusable scratch buffers that are valid only until
// the next call on the Directory; callers must not retain them.
package coherence

import (
	"fmt"
	"slices"

	"uhtm/internal/mem"
)

// ConflictKind classifies a detected on-chip conflict, following the
// paper's taxonomy for incoming GetS/GetM requests.
type ConflictKind int

const (
	// WriteAfterWrite: an exclusive request hit a line with a Tx-Owner.
	WriteAfterWrite ConflictKind = iota
	// WriteAfterRead: an exclusive request hit a line with Tx-Sharers.
	WriteAfterRead
	// ReadAfterWrite: a shared request hit a line with a Tx-Owner.
	ReadAfterWrite
)

// String names the conflict kind for logs and traces.
func (k ConflictKind) String() string {
	switch k {
	case WriteAfterWrite:
		return "WAW"
	case WriteAfterRead:
		return "WAR"
	default:
		return "RAW"
	}
}

// Conflict names one transaction an incoming request collides with.
type Conflict struct {
	With uint64 // transaction ID
	Kind ConflictKind
}

// dirPage holds one page of per-line directory state: the owning
// transaction (0 = none) and the head of the line's sharer list
// (1-based index into the node arena, 0 = empty).
type dirPage struct {
	owner  [mem.PageLines]uint64
	shHead [mem.PageLines]int32
}

// shNode is one sharer-list element in the pooled arena.
type shNode struct {
	tx   uint64
	next int32 // next node, or freelist link; 0 terminates
}

// Directory tracks transactional ownership of on-chip lines.
type Directory struct {
	pages []*dirPage
	// nodes is the sharer-node arena; index 0 is reserved as the list
	// terminator. free heads the freelist threaded through next.
	nodes []shNode
	free  int32
	// byTx is the reverse index used to clear a transaction's footprint
	// in O(its size) at commit/abort: an append-only line list whose
	// entries are validated against the current per-line state when
	// consumed. Lists are recycled through freeLists.
	byTx      map[uint64][]mem.Addr
	freeLists [][]mem.Addr

	ownedScratch []mem.Addr
	shScratch    []uint64
	cfScratch    []Conflict
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		pages: make([]*dirPage, mem.PageCount),
		nodes: make([]shNode, 1), // slot 0 reserved
		byTx:  make(map[uint64][]mem.Addr),
	}
}

// page materializes la's page.
func (d *Directory) page(la mem.Addr) (*dirPage, uint64) {
	idx := mem.LineIndex(la)
	pi := idx >> mem.PageShift
	p := d.pages[pi]
	if p == nil {
		p = new(dirPage)
		d.pages[pi] = p
	}
	return p, idx & (mem.PageLines - 1)
}

// peek returns la's page without materializing (nil when untouched).
func (d *Directory) peek(la mem.Addr) (*dirPage, uint64) {
	idx := mem.LineIndex(la)
	return d.pages[idx>>mem.PageShift], idx & (mem.PageLines - 1)
}

// allocNode pops the freelist or grows the arena.
func (d *Directory) allocNode(tx uint64, next int32) int32 {
	if n := d.free; n != 0 {
		d.free = d.nodes[n].next
		d.nodes[n] = shNode{tx: tx, next: next}
		return n
	}
	d.nodes = append(d.nodes, shNode{tx: tx, next: next})
	return int32(len(d.nodes) - 1)
}

func (d *Directory) freeNode(n int32) {
	d.nodes[n].next = d.free
	d.free = n
}

// sharerHas walks o's sharer list for tx.
func (d *Directory) sharerHas(p *dirPage, o uint64, tx uint64) bool {
	for n := p.shHead[o]; n != 0; n = d.nodes[n].next {
		if d.nodes[n].tx == tx {
			return true
		}
	}
	return false
}

// removeSharer unlinks tx from o's sharer list, reporting whether it
// was present.
func (d *Directory) removeSharer(p *dirPage, o uint64, tx uint64) bool {
	prev := int32(0)
	for n := p.shHead[o]; n != 0; n = d.nodes[n].next {
		if d.nodes[n].tx == tx {
			if prev == 0 {
				p.shHead[o] = d.nodes[n].next
			} else {
				d.nodes[prev].next = d.nodes[n].next
			}
			d.freeNode(n)
			return true
		}
		prev = n
	}
	return false
}

// index appends la to tx's reverse-index list (called only when tx was
// absent from the line, so a live list never holds duplicates for a
// line tx still occupies).
func (d *Directory) index(tx uint64, la mem.Addr) {
	s, ok := d.byTx[tx]
	if !ok && len(d.freeLists) > 0 {
		s = d.freeLists[len(d.freeLists)-1]
		d.freeLists = d.freeLists[:len(d.freeLists)-1]
	}
	d.byTx[tx] = append(s, la)
}

// releaseList recycles tx's reverse-index list.
func (d *Directory) releaseList(tx uint64) {
	if s, ok := d.byTx[tx]; ok {
		delete(d.byTx, tx)
		d.freeLists = append(d.freeLists, s[:0])
	}
}

// CheckWrite returns the transactions an exclusive (GetM-style) request
// for a by transaction self conflicts with, ascending by ID. self == 0
// denotes a non-transactional requester. The returned slice is scratch,
// valid until the next Directory call.
func (d *Directory) CheckWrite(a mem.Addr, self uint64) []Conflict {
	p, o := d.peek(mem.LineOf(a))
	if p == nil {
		return nil
	}
	out := d.cfScratch[:0]
	if own := p.owner[o]; own != 0 && own != self {
		out = append(out, Conflict{With: own, Kind: WriteAfterWrite})
	}
	for n := p.shHead[o]; n != 0; n = d.nodes[n].next {
		if tx := d.nodes[n].tx; tx != self {
			out = append(out, Conflict{With: tx, Kind: WriteAfterRead})
		}
	}
	d.cfScratch = out
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(x, y Conflict) int {
		switch {
		case x.With < y.With:
			return -1
		case x.With > y.With:
			return 1
		}
		return 0
	})
	return out
}

// CheckRead returns the transactions a shared (GetS-style) request for a
// by transaction self conflicts with. The returned slice is scratch,
// valid until the next Directory call.
func (d *Directory) CheckRead(a mem.Addr, self uint64) []Conflict {
	p, o := d.peek(mem.LineOf(a))
	if p == nil {
		return nil
	}
	if own := p.owner[o]; own != 0 && own != self {
		d.cfScratch = append(d.cfScratch[:0], Conflict{With: own, Kind: ReadAfterWrite})
		return d.cfScratch
	}
	return nil
}

// hasState reports whether the slot carries any transactional state.
func hasState(p *dirPage, o uint64) bool { return p.owner[o] != 0 || p.shHead[o] != 0 }

// AddRead records that transaction tx read line a (sets the Tx-bit and
// adds tx to Tx-Sharers).
func (d *Directory) AddRead(a mem.Addr, tx uint64) {
	if tx == 0 {
		return
	}
	p, o := d.page(mem.LineOf(a))
	if p.owner[o] == tx {
		return // owner's reads are subsumed
	}
	if d.sharerHas(p, o, tx) {
		return
	}
	p.shHead[o] = d.allocNode(tx, p.shHead[o])
	d.index(tx, mem.LineOf(a))
}

// AddWrite records that transaction tx wrote line a (sets Tx-Owner).
// Eager conflict detection guarantees at most one owner; a second owner
// is a harness bug and panics.
func (d *Directory) AddWrite(a mem.Addr, tx uint64) {
	if tx == 0 {
		return
	}
	la := mem.LineOf(a)
	p, o := d.page(la)
	switch own := p.owner[o]; {
	case own == tx:
		return
	case own != 0:
		panic(fmt.Sprintf("coherence: two transactional owners for line %#x: %d and %d", uint64(la), own, tx))
	}
	p.owner[o] = tx
	// Promotion from sharer to owner keeps the existing index entry;
	// a brand-new occupant is indexed now.
	if !d.removeSharer(p, o, tx) {
		d.index(tx, la)
	}
}

// TxInfo reports the transactional state of line a: its owner (0 if
// none) and its sharers in ascending ID order. The sharers slice is
// scratch, valid until the next Directory call.
func (d *Directory) TxInfo(a mem.Addr) (owner uint64, sharers []uint64) {
	p, o := d.peek(mem.LineOf(a))
	if p == nil {
		return 0, nil
	}
	sh := d.shScratch[:0]
	for n := p.shHead[o]; n != 0; n = d.nodes[n].next {
		sh = append(sh, d.nodes[n].tx)
	}
	d.shScratch = sh
	if len(sh) == 0 {
		return p.owner[o], nil
	}
	slices.Sort(sh)
	return p.owner[o], sh
}

// SurrenderLine removes and returns the transactional state of line a
// (sharers ascending). The HTM layer calls this on LLC eviction,
// transferring responsibility for the line to the evicted transactions'
// address signatures. Reverse-index entries for the line go stale and
// are skipped when their transaction is cleared. The sharers slice is
// scratch, valid until the next Directory call.
func (d *Directory) SurrenderLine(a mem.Addr) (owner uint64, sharers []uint64) {
	p, o := d.peek(mem.LineOf(a))
	if p == nil {
		return 0, nil
	}
	if !hasState(p, o) {
		return 0, nil
	}
	sh := d.shScratch[:0]
	for n := p.shHead[o]; n != 0; {
		next := d.nodes[n].next
		sh = append(sh, d.nodes[n].tx)
		d.freeNode(n)
		n = next
	}
	d.shScratch = sh
	owner = p.owner[o]
	p.owner[o] = 0
	p.shHead[o] = 0
	if len(sh) > 0 {
		slices.Sort(sh)
		sharers = sh
	}
	return owner, sharers
}

// ClearTx removes transaction tx from every entry it appears in (done
// when tx commits or aborts) and returns the lines it owned, in
// ascending order — the on-chip write-set the commit/abort protocol must
// process. The returned slice is scratch, valid until the next
// Directory call.
func (d *Directory) ClearTx(tx uint64) (owned []mem.Addr) {
	owned = d.ownedScratch[:0]
	for _, la := range d.byTx[tx] {
		p, o := d.peek(la)
		if p == nil || !hasState(p, o) {
			continue // surrendered since it was indexed
		}
		if p.owner[o] == tx {
			p.owner[o] = 0
			owned = append(owned, la)
		} else {
			d.removeSharer(p, o, tx) // false on a stale entry: tx left the line
		}
	}
	d.releaseList(tx)
	d.ownedScratch = owned
	slices.Sort(owned)
	return owned
}
