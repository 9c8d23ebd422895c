package main

import (
	"math"
	"sort"
)

// summary is a host metric over the timed reps: the median with the
// first and third quartiles beside it, as statistics.quantiles(n=4)
// (the "exclusive" method) computes them, so a reading can be checked
// against the same spread rule by any tool.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs (not modified).
// A single value is its own median and quartiles.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return summary{Median: med, Q1: med, Q3: med, N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// scaled multiplies the median and quartiles by f > 0.
func (s summary) scaled(f float64) summary {
	return summary{Median: s.Median * f, Q1: s.Q1 * f, Q3: s.Q3 * f, N: s.N}
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailQuantile picks the highest of p99, p95, p90 and p75 that has at
// least minBeyond of n samples above it, falling back to the median,
// and returns the quantile with its name.
func tailQuantile(n int) (q float64, name string) {
	for _, c := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"}} {
		if n-rankIndex(n, c.q)-1 >= minBeyond {
			return c.q, c.name
		}
	}
	return 0.5, "p50"
}

// rankIndex is the nearest-rank index of the q-quantile in n sorted
// samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}
