package workload

import (
	"bytes"
	"testing"

	"uhtm/internal/signature"
)

// TestValuePatternMatchesFill: a value cut from the pattern equals the
// byte-by-byte fill byte(k+i) it replaced, at sizes from one byte to
// 400 KB and at keys on both sides of a 256 boundary and near 2^64, and
// its capacity ends at its length.
func TestValuePatternMatchesFill(t *testing.T) {
	for _, size := range []int{1, 64, 1 << 10, 400 << 10} {
		p := newValuePattern(size)
		for _, k := range []uint64{0, 255, 256, 1<<63 + 7} {
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(k + uint64(i))
			}
			got := p.value(k)
			if !bytes.Equal(got, want) {
				t.Errorf("size %d, key %d: pattern value differs from the byte fill", size, k)
			}
			if cap(got) != size {
				t.Errorf("size %d, key %d: cap %d, want %d", size, k, cap(got), size)
			}
		}
	}
}

// TestValuePatternReadOnly runs fig6 cells at scale 0.05 with a
// pattern the test holds, and checks that no callee wrote into it:
// Mixed covers all four PMDK structures, hashmap values built outside
// the transaction included, and Echo the client rings.
func TestValuePatternReadOnly(t *testing.T) {
	cfg := pmdkConfig(100)
	cfg.BatchesPerThread = scaleN(cfg.BatchesPerThread, 0.05)
	spec := UHTM(signature.Bits1K, true)
	for name, runCell := range map[string]func(valuePattern) Result{
		"Mixed": func(v valuePattern) Result { return runPMDK(spec, BenchMixed, cfg, &heap{left: 1}, v) },
		"Echo":  func(v valuePattern) Result { return runEcho(spec, cfg, &heap{left: 1}, v) },
	} {
		vals := newValuePattern(cfg.ValueSize)
		if r := runCell(vals); r.Stats.Commits == 0 {
			t.Fatalf("%s: the cell committed nothing", name)
		}
		if !bytes.Equal(vals, newValuePattern(cfg.ValueSize)) {
			t.Errorf("%s: the run wrote into the value pattern", name)
		}
	}
}
