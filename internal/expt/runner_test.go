package expt

import (
	"sort"
	"strings"
	"testing"

	"repro/lynx"
)

// The PR's determinism contract: aggregated output (tables, CIs,
// metric snapshots) must be byte-identical for Parallel=1 and
// Parallel=8 at the same root seed.
func TestAllWithDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog twice")
	}
	optsSerial := Options{Parallel: 1, Reps: 2, RootSeed: 7}
	optsWide := Options{Parallel: 8, Reps: 2, RootSeed: 7}
	serial := AllWith(optsSerial)
	wide := AllWith(optsWide)
	if s, w := renderAll(serial), renderAll(wide); s != w {
		t.Fatalf("rendered catalog differs between Parallel=1 and Parallel=8:\n--- serial\n%s\n--- parallel\n%s", s, w)
	}
	for i := range serial {
		sm, wm := serial[i].Metrics, wide[i].Metrics
		if len(sm) != len(wm) {
			t.Fatalf("%s: metric key sets differ: %d vs %d", serial[i].ID, len(sm), len(wm))
		}
		for _, k := range sortedMetricKeys(sm) {
			if sm[k] != wm[k] {
				t.Fatalf("%s: metric %s differs: %d vs %d", serial[i].ID, k, sm[k], wm[k])
			}
		}
	}
}

// Replicated runs must keep the canonical replica-0 output embedded:
// with Reps=1 the result is bit-for-bit the single-shot experiment.
func TestSingleRepMatchesLegacy(t *testing.T) {
	legacy := e4(0)
	viaRunner := ByIDWith("E4", Options{Parallel: 2, Reps: 1})
	if renderAll([]*Result{legacy}) != renderAll([]*Result{viaRunner}) {
		t.Fatalf("Reps=1 runner output diverged from the single-shot experiment:\n%s\nvs\n%s",
			legacy.Render(), viaRunner.Render())
	}
}

// A replicated experiment annotates its table with the replication
// note and carries the replica count.
func TestReplicationAnnotation(t *testing.T) {
	r := ByIDWith("E4", Options{Parallel: 2, Reps: 3, RootSeed: 11})
	if r.Replicas != 3 || r.RootSeed != 11 {
		t.Fatalf("replication fields not set: %+v", r)
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "replication: R=3") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no replication note in %v", r.Notes)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("E4 aggregated table lost rows: %v", r.Rows)
	}
}

// Non-replicable experiments run once regardless of Reps.
func TestNonReplicableRunsOnce(t *testing.T) {
	r := ByIDWith("E5", Options{Parallel: 2, Reps: 4})
	if r.Replicas != 0 {
		t.Fatalf("E5 should be single-shot; got Replicas=%d", r.Replicas)
	}
}

// The replication tolerance policy: an aggregated result passes when
// ≥0.8 of its replicas match the shape, replacing the old all-replicas
// AND, and the annotation reports "shape pass k/R (threshold m)".
func TestShapeTolerancePolicy(t *testing.T) {
	mk := func(pass bool) *Result {
		return &Result{ID: "EX", Title: "x", Columns: []string{"a"},
			Rows: [][]string{{"1"}}, Pass: pass}
	}
	replicas := func(passes, fails int) []*Result {
		var rs []*Result
		for i := 0; i < passes; i++ {
			rs = append(rs, mk(true))
		}
		for i := 0; i < fails; i++ {
			rs = append(rs, mk(false))
		}
		return rs
	}
	cases := []struct {
		passes, fails int
		want          bool
	}{
		{4, 1, true},  // 4/5 = 0.8 meets the threshold exactly
		{3, 2, false}, // 3/5 < 0.8
	}
	for _, c := range cases {
		o := Options{Reps: c.passes + c.fails}.normalized()
		agg := aggregateResults(replicas(c.passes, c.fails), o)
		if agg.Pass != c.want {
			t.Errorf("passes=%d fails=%d: Pass=%v, want %v",
				c.passes, c.fails, agg.Pass, c.want)
		}
	}
	o := Options{Reps: 5}.normalized()
	agg := aggregateResults(replicas(4, 1), o)
	found := false
	for _, n := range agg.Notes {
		if strings.Contains(n, "shape pass 4/5 (threshold 0.80)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("annotation missing threshold: %v", agg.Notes)
	}
}

// The grid-ported E3 sweep must reproduce the hand-rolled measurement
// loop cell for cell: the grid abstraction subsumes it.
func TestE3GridSubsumesHandRolledSweep(t *testing.T) {
	tbl := e3Grid(0)
	for _, n := range []int{0, 2048} {
		for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA} {
			direct := echoRTT(0, sub, n, 1, false)
			cell := tbl.CellAt(sub, n)
			if cell == nil {
				t.Fatalf("grid has no cell for (%v, %d)", sub, n)
			}
			if got := lynx.Duration(cell.Agg.Values["rtt_ns"].Mean); got != direct {
				t.Errorf("(%v, %d): grid %v vs hand-rolled %v", sub, n, got, direct)
			}
		}
	}
}

func TestAggregateCell(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{[]string{"57", "57", "57"}, "57"},
		{[]string{"SODA", "Charlotte", "SODA"}, "(varies)"},
		{[]string{"2.40", "2.40", "2.44"}, "2.41 ±0.03"},
		{[]string{"10", "14", "12"}, "12.0 ±2.3"},
	}
	for _, c := range cases {
		if got := aggregateCell(c.in); got != c.want {
			t.Errorf("aggregateCell(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCatalogMatchesByID(t *testing.T) {
	for _, e := range Catalog() {
		if got, ok := Lookup(e.ID); !ok || got.ID != e.ID {
			t.Errorf("catalog id %s resolves to %q, %v", e.ID, got.ID, ok)
		}
	}
	if got := len(Catalog()); got != 13 {
		t.Fatalf("catalog size = %d, want 13", got)
	}
}

// renderAll renders a result list the way lynxbench prints it: one
// table per experiment, blank-line separated, in a deterministic order.
func renderAll(rs []*Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// sortedMetricKeys returns the metric names, sorted.
func sortedMetricKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
