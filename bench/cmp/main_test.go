package main

import "testing"

func TestVerdict(t *testing.T) {
	higher := bound{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	lower := bound{Name: "peak_rss_mb", Better: "lower", Bound: 0.1}
	tight := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01, Host: true} }
	for _, c := range []struct {
		a, b metric
		bd   bound
		want string
	}{
		{tight(100), tight(95), higher, "same"},
		{tight(100), tight(85), higher, "worse"},
		{tight(100), tight(115), higher, "better"},
		{tight(100), tight(115), lower, "worse"},
		{tight(100), tight(85), lower, "better"},
		{tight(100), metric{Value: 100, Q1: 80, Q3: 120}, higher, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.bd.Better, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestExactDiffsSkipHostMetrics(t *testing.T) {
	a := &result{E2E: map[string]metric{"ops_per_s": {Value: 1, Host: true}, "virt_ms_p50": {Value: 2}},
		Layers: map[string]metric{"charlotte.msgs_per_op": {Value: 3}}}
	b := &result{E2E: map[string]metric{"ops_per_s": {Value: 9, Host: true}, "virt_ms_p50": {Value: 2}},
		Layers: map[string]metric{"charlotte.msgs_per_op": {Value: 4}}}
	diffs, n := exactDiffs(a, b)
	if n != 2 || len(diffs) != 1 {
		t.Errorf("compared %d, differing %v; want 2 compared, charlotte.msgs_per_op differing", n, diffs)
	}
}
