package sim

import (
	"math"
	"testing"
)

// TestArrivalStreamDeterministic: same seed+rate ⇒ identical schedule;
// different seeds diverge.
func TestArrivalStreamDeterministic(t *testing.T) {
	a := NewArrivalStream(7, 100)
	b := NewArrivalStream(7, 100)
	c := NewArrivalStream(8, 100)
	same, diff := true, false
	for i := 0; i < 1000; i++ {
		av, bv, cv := a.Next(), b.Next(), c.Next()
		if av != bv {
			same = false
		}
		if av != cv {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different schedules")
	}
	if !diff {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestArrivalStreamRate: the empirical mean gap converges to 1/rate.
func TestArrivalStreamRate(t *testing.T) {
	const rate = 250.0
	s := NewArrivalStream(42, rate)
	const n = 50000
	var last Time
	for i := 0; i < n; i++ {
		last = s.Next()
	}
	meanGap := float64(last) / n
	want := float64(Second) / rate
	if math.Abs(meanGap-want)/want > 0.02 {
		t.Fatalf("mean gap %.0fns, want %.0fns ±2%%", meanGap, want)
	}
}

// TestArrivalStreamMonotone: instants strictly advance for any sane
// rate (gaps are positive).
func TestArrivalStreamMonotone(t *testing.T) {
	s := NewArrivalStream(3, 1e6)
	prev := Time(-1)
	for i := 0; i < 10000; i++ {
		at := s.Next()
		if at <= prev {
			t.Fatalf("arrival %d at %v did not advance past %v", i, at, prev)
		}
		prev = at
	}
}

// TestArrivalStreamRejectsBadRate: a non-positive rate is a
// configuration error.
func TestArrivalStreamRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %g: expected panic", rate)
				}
			}()
			NewArrivalStream(1, rate)
		}()
	}
}

// TestExpFloat64UnitMean: the draw has mean ~1 and is always positive.
func TestExpFloat64UnitMean(t *testing.T) {
	r := NewRand(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v <= 0 {
			t.Fatalf("draw %d: %g <= 0", i, v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("mean %g, want ~1", mean)
	}
}
