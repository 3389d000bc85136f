package wal

import (
	"math/rand"
	"testing"

	"uhtm/internal/mem"
)

// TestSplicedRecordsFailValidation: a power failure can persist some
// of a slot's cache lines from one write and the rest from another, so
// a slot may hold the front of one valid record and the back of a
// second. For pairs of valid records at every alignment a slot can
// have within a cache line, every such splice at every line boundary
// inside the record must fail validation, unless it equals one of the
// two records byte for byte.
func TestSplicedRecordsFailValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func() Record {
		r := Record{
			Type: RecordType(rng.Intn(7) + 1),
			TxID: rng.Uint64(),
			Addr: mem.Addr(rng.Uint64() &^ (mem.LineSize - 1)),
			LSN:  rng.Uint64(),
		}
		rng.Read(r.Data[:])
		return r
	}
	var pairs [][2]Record
	for i := 0; i < 200; i++ {
		a := random()
		b := random()
		pairs = append(pairs, [2]Record{a, b})
		// Near-twins differing in one field only: the splice then
		// differs from both records in a single word or line.
		c := a
		c.LSN++
		d := a
		d.Data[mem.LineSize-1] ^= 1
		e := a
		e.TxID ^= 1 << 40
		pairs = append(pairs, [2]Record{a, c}, [2]Record{a, d}, [2]Record{a, e})
	}
	checked := 0
	for _, p := range pairs {
		var bufs [2][RecordSize]byte
		encode(p[0], &bufs[0])
		encode(p[1], &bufs[1])
		for off := 0; off < mem.LineSize; off += 8 { // slots are 8-byte aligned
			for cut := mem.LineSize - off; cut < RecordSize; cut += mem.LineSize {
				for front := 0; front < 2; front++ {
					var splice [RecordSize]byte
					copy(splice[:cut], bufs[front][:cut])
					copy(splice[cut:], bufs[1-front][cut:])
					if splice == bufs[0] || splice == bufs[1] {
						continue // not a mix: one record's bytes throughout
					}
					checked++
					if r, ok := decode(&splice); ok {
						t.Fatalf("splice of %+v and %+v at offset %d, cut %d validated as %+v", p[front], p[1-front], off, cut, r)
					}
				}
			}
		}
	}
	if checked < len(pairs) {
		t.Fatalf("only %d splices checked", checked)
	}
}
