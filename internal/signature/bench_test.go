package signature

import (
	"testing"

	"uhtm/internal/mem"
)

// BenchmarkSignatureInsert measures Bloom-filter insertion.
func BenchmarkSignatureInsert(b *testing.B) {
	f := NewFilter(Bits4K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Insert(mem.Addr(i) * mem.LineSize)
	}
}

// halfFullPair returns a signature pair whose write filter holds 400
// lines.
func halfFullPair() *Pair {
	p := NewPair(Bits4K)
	for i := 0; i < 400; i++ {
		p.AddWrite(mem.Addr(i) * mem.LineSize)
	}
	return p
}

// BenchmarkSignatureCheck measures a signature probe against a
// half-full filter.
func BenchmarkSignatureCheck(b *testing.B) {
	p := halfFullPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.CheckWrite(mem.Addr(i) * mem.LineSize)
	}
}

// TestInsertAndCheckAllocateNothing: signature insertion and probing
// sit on every transactional access, and allocate nothing.
func TestInsertAndCheckAllocateNothing(t *testing.T) {
	f := NewFilter(Bits4K)
	p := halfFullPair()
	var a mem.Addr
	if n := testing.AllocsPerRun(1000, func() { a += mem.LineSize; f.Insert(a) }); n != 0 {
		t.Errorf("Filter.Insert allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { a += mem.LineSize; p.CheckWrite(a) }); n != 0 {
		t.Errorf("Pair.CheckWrite allocates %v times per call, want 0", n)
	}
}
