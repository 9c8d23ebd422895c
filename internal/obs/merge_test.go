package obs

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for _, d := range []sim.Duration{10, 100, 1000} {
		a.Observe(d)
	}
	for _, d := range []sim.Duration{5, 50000} {
		b.Observe(d)
	}
	a.Merge(&b)
	if a.Count() != 5 {
		t.Fatalf("merged count = %d, want 5", a.Count())
	}
	if a.Sum() != 10+100+1000+5+50000 {
		t.Fatalf("merged sum = %d", a.Sum())
	}
	if a.Min() != 5 || a.Max() != 50000 {
		t.Fatalf("merged extrema = [%d, %d], want [5, 50000]", a.Min(), a.Max())
	}
	// Merging an empty histogram changes nothing, including extrema.
	var empty Histogram
	c0, s0, mn0, mx0 := a.Count(), a.Sum(), a.Min(), a.Max()
	a.Merge(&empty)
	if a.Count() != c0 || a.Sum() != s0 || a.Min() != mn0 || a.Max() != mx0 {
		t.Fatal("merging an empty histogram changed the receiver")
	}
	// Merging INTO an empty histogram copies the source exactly.
	var c Histogram
	c.Merge(&b)
	if c.Count() != b.Count() || c.Min() != b.Min() || c.Max() != b.Max() || c.Sum() != b.Sum() {
		t.Fatalf("merge into empty: got count=%d min=%d max=%d", c.Count(), c.Min(), c.Max())
	}
	// Nil receiver and nil argument are no-ops, not panics.
	var nilH *Histogram
	nilH.Merge(&b)
	a.Merge(nil)
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 100 observations of exactly 1000ns: every quantile lands in the
	// same bucket and is clamped into [min, max] = [1000, 1000].
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%.2f) = %d, want 1000", q, got)
		}
	}
	// A bimodal series: 90 fast (≈1µs), 10 slow (≈1ms). p50 must sit in
	// the fast mode, p99 in the slow mode (bucket resolution: factor 2).
	var bi Histogram
	for i := 0; i < 90; i++ {
		bi.Observe(sim.Duration(1000))
	}
	for i := 0; i < 10; i++ {
		bi.Observe(sim.Duration(1000000))
	}
	p50, p99 := bi.Quantile(0.50), bi.Quantile(0.99)
	if p50 < 512 || p50 > 2048 {
		t.Fatalf("p50 = %d, want ≈1000 (within its log2 bucket)", p50)
	}
	if p99 < 500000 || p99 > 1000000 {
		t.Fatalf("p99 = %d, want ≈1000000 (within its log2 bucket, clamped to max)", p99)
	}
}

// Quantile's edge cases: the empty histogram reports 0 at every q, a
// single sample is its own quantile for every q (including the q=0 and
// q=1 endpoints, where bucket interpolation is clamped to the observed
// extrema), and out-of-range q values are clamped rather than wrapped.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty.Quantile(%v) = %d, want 0", q, got)
		}
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram Quantile should be 0")
	}
	var single Histogram
	single.Observe(1234567)
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := single.Quantile(q); got != 1234567 {
			t.Fatalf("single.Quantile(%v) = %d, want 1234567", q, got)
		}
	}
	if got := single.Quantile(-3); got != 1234567 {
		t.Fatalf("Quantile(-3) = %d, want clamp to q=0", got)
	}
	if got := single.Quantile(42); got != 1234567 {
		t.Fatalf("Quantile(42) = %d, want clamp to q=1", got)
	}
	// Two distinct samples: q=0 pins the min, q=1 pins the max.
	var two Histogram
	two.Observe(100)
	two.Observe(900000)
	if got := two.Quantile(0); got != 100 {
		t.Fatalf("two.Quantile(0) = %d, want min 100", got)
	}
	if got := two.Quantile(1); got != 900000 {
		t.Fatalf("two.Quantile(1) = %d, want max 900000", got)
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Counter("ops").Add(3)
	b.Counter("ops").Add(4)
	b.Counter("only_b").Add(9)
	a.Histogram("lat").Observe(100)
	b.Histogram("lat").Observe(300)
	b.Histogram("only_b_lat").Observe(7)

	a.Merge(b)
	if got := a.Value("ops"); got != 7 {
		t.Fatalf("ops = %d, want 7", got)
	}
	if got := a.Value("only_b"); got != 9 {
		t.Fatalf("only_b = %d, want 9", got)
	}
	if got := a.Histogram("lat").Count(); got != 2 {
		t.Fatalf("lat count = %d, want 2", got)
	}
	if got := a.Histogram("only_b_lat").Count(); got != 1 {
		t.Fatalf("only_b_lat count = %d, want 1", got)
	}
	// Merge order must not matter for the pooled result.
	x, y := NewMetrics(), NewMetrics()
	x.Counter("ops").Add(4)
	x.Counter("only_b").Add(9)
	x.Histogram("lat").Observe(300)
	y.Counter("ops").Add(3)
	y.Histogram("lat").Observe(100)
	x.Merge(y)
	for k, v := range a.Snapshot() {
		if k == "only_b_lat_count" || k == "only_b_lat_sum_ns" || k == "only_b_lat_max_ns" {
			continue
		}
		if x.Snapshot()[k] != v {
			t.Fatalf("merge not commutative at %s: %d vs %d", k, x.Snapshot()[k], v)
		}
	}
	// Nil safety.
	var nilM *Metrics
	nilM.Merge(a)
	a.Merge(nil)
}

// Merges into one registry from several goroutines at once, while that
// registry is itself merged into another, pool every count: the entry
// lists a merge borrows from its destination are never shared.
func TestMetricsMergeConcurrent(t *testing.T) {
	set := NewCounterSet("a_total")
	src := NewMetrics()
	src.Counter("ops").Add(1)
	src.Histogram("lat").Observe(100)
	src.ProcCounters(set, 1).Counter("a_total").Add(2)
	dst, side := NewMetrics(), NewMetrics()
	const workers, merges = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < merges; i++ {
				dst.Merge(src)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			side.Merge(dst)
		}
	}()
	wg.Wait()
	if got := dst.Value("ops"); got != workers*merges {
		t.Fatalf("ops = %d, want %d", got, workers*merges)
	}
	if got := dst.Histogram("lat").Count(); got != workers*merges {
		t.Fatalf("lat count = %d, want %d", got, workers*merges)
	}
	if got := dst.ProcValue("a_total", 1); got != 2*workers*merges {
		t.Fatalf("a_total = %d, want %d", got, 2*workers*merges)
	}
}
