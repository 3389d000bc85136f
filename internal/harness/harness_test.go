package harness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uhtm/internal/sim"
)

func intSpecs(n int, run func(i int) int) []Spec[int] {
	specs := make([]Spec[int], n)
	for i := range specs {
		i := i
		specs[i] = Spec[int]{Experiment: "test", Run: func() int { return run(i) }}
	}
	return specs
}

// TestOrderPreserved: results come back in spec order even when later
// specs finish first.
func TestOrderPreserved(t *testing.T) {
	specs := intSpecs(16, func(i int) int {
		time.Sleep(time.Duration(16-i) * time.Millisecond)
		return i * i
	})
	got := Execute(specs, 8)
	for i, v := range got {
		if v != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestSerialAndParallelAgree: the same pure specs yield identical
// result slices at every parallelism level.
func TestSerialAndParallelAgree(t *testing.T) {
	mk := func() []Spec[int] { return intSpecs(10, func(i int) int { return 3*i + 1 }) }
	want := Execute(mk(), 1)
	for _, par := range []int{0, 2, 4, 100} {
		got := Execute(mk(), par)
		if len(got) != len(want) {
			t.Fatalf("par=%d: %d results, want %d", par, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("par=%d: results[%d] = %d, want %d", par, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrencyBound: no more than par specs are ever in flight.
func TestConcurrencyBound(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	specs := intSpecs(20, func(i int) int {
		n := inFlight.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return i
	})
	Execute(specs, par)
	if p := peak.Load(); p > par {
		t.Errorf("peak in-flight = %d, want <= %d", p, par)
	}
}

// catchPanic runs fn and returns the recovered panic value as a string
// ("" if fn returned normally).
func catchPanic(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestPanicCarriesSpecIdentity: a panicking spec must surface which
// grid cell died — a raw panic from one of dozens of identical-looking
// simulations is undebuggable. Both the serial and parallel paths wrap,
// whether the spec panics itself or a lone simulated body it runs does
// (that body runs on the spec's own goroutine).
func TestPanicCarriesSpecIdentity(t *testing.T) {
	lone := func() int {
		eng := sim.NewEngine(1)
		eng.Spawn("bomb", func(th *sim.Thread) { th.Sync(); panic("store exhausted") })
		eng.Run()
		return 0
	}
	for _, run := range []func() int{func() int { panic("store exhausted") }, lone} {
		mk := func() []Spec[int] {
			specs := intSpecs(6, func(i int) int { return i })
			specs[3] = Spec[int]{
				Experiment: "fig6", System: "UHTM", Bench: "Echo", FootprintKB: 100, Seed: 7,
				Run: run,
			}
			return specs
		}
		for _, par := range []int{1, 4} {
			msg := catchPanic(func() { Execute(mk(), par) })
			if msg == "" {
				t.Fatalf("par=%d: panic did not propagate", par)
			}
			for _, want := range []string{"spec 3", "fig6", "UHTM", "Echo", "100", "seed=7", "store exhausted"} {
				if !strings.Contains(msg, want) {
					t.Errorf("par=%d: panic message missing %q:\n%s", par, want, msg)
				}
			}
		}
	}
}

// TestParallelPanicIsDeterministic: when several specs die, the
// lowest-index failure is the one reported, regardless of which worker
// hit it first.
func TestParallelPanicIsDeterministic(t *testing.T) {
	mk := func() []Spec[int] {
		specs := intSpecs(8, func(i int) int { return i })
		for _, i := range []int{2, 5, 6} {
			i := i
			specs[i].Run = func() int { panic(fmt.Sprintf("boom-%d", i)) }
		}
		return specs
	}
	for trial := 0; trial < 10; trial++ {
		msg := catchPanic(func() { Execute(mk(), 4) })
		if !strings.Contains(msg, "boom-2") || !strings.Contains(msg, "spec 2") {
			t.Fatalf("trial %d: reported panic is not the lowest-index one:\n%s", trial, msg)
		}
	}
}

// TestEmptyAndSingle: degenerate sizes.
func TestEmptyAndSingle(t *testing.T) {
	if got := Execute[int](nil, 4); len(got) != 0 {
		t.Errorf("empty specs returned %d results", len(got))
	}
	one := intSpecs(1, func(i int) int { return 7 })
	if got := Execute(one, 4); len(got) != 1 || got[0] != 7 {
		t.Errorf("single spec returned %v", got)
	}
}
