package main

import "testing"

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7.5, 1.25, 3.0, 9.0, 2.0}, 1.625, 3, 8.25},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.med, c.q3)
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
	}{
		{100000, "p99"},
		{1000, "p99"},
		{999, "p95"},
		{200, "p95"},
		{199, "p90"},
		{100, "p90"},
		{99, "p75"},
		{40, "p75"},
		{39, "p50"},
		{1, "p50"},
	} {
		if _, name := tailQuantile(c.n); name != c.name {
			t.Errorf("tailQuantile(%d) = %s, want %s", c.n, name, c.name)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(s, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}
