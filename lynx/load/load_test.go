package load

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/lynx"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// overloadSpec is the PR's pinned experiment: an open-loop rate sweep
// crossing saturation on two substrates, run through the grid harness.
// The low rate is well inside both substrates' capacity; the high rate
// is at least 2× over it (asserted by TestOverloadSemantics, not
// assumed).
func overloadSpec(parallel int) grid.Spec {
	return grid.Spec{
		Name: "virtual-time overload",
		Axes: []grid.Axis{
			{Name: "substrate", Values: []any{lynx.Charlotte, lynx.SODA}},
			{Name: "rate", Values: []any{20, 150}},
		},
		Replicas: 1,
		Parallel: parallel,
		RootSeed: 11,
		Body:     overloadBody,
	}
}

func overloadBody(c grid.Cell, r sweep.Run) sweep.Outcome {
	res, err := Run(Options{
		Substrate: grid.MustAs[lynx.Substrate](c, "substrate"),
		Rate:      float64(grid.MustAs[int](c, "rate")),
		Window:    lynx.Second / 2,
		Seed:      r.Seed,
	})
	if err != nil {
		return sweep.Outcome{Err: err}
	}
	return sweep.Outcome{
		Values: map[string]float64{
			"offered":        res.Offered,
			"realized":       res.Realized,
			"arrivals":       float64(res.Arrivals),
			"completed":      float64(res.Completed),
			"makespan_ms":    float64(res.Makespan) / 1e6,
			"sojourn_p50_ms": res.Sojourn.P50,
			"sojourn_p95_ms": res.Sojourn.P95,
			"sojourn_p99_ms": res.Sojourn.P99,
		},
		Metrics: res.Metrics,
	}
}

// The acceptance pin: the same seeded overload sweep at Parallel=1 and
// Parallel=8 gives identical cell stats and byte-identical JSONL and
// pivoted matrix tables under -race (`make race` runs this file).
// Workload generation lives inside the DES, so host scheduling cannot
// reach it.
func TestOverloadSweepDeterministicAcrossParallelism(t *testing.T) {
	serial := grid.Run(overloadSpec(1))
	wide := grid.Run(overloadSpec(8))
	for i := range serial.Cells {
		s, w := serial.Cells[i].Agg, wide.Cells[i].Agg
		if !reflect.DeepEqual(s.Values, w.Values) || !reflect.DeepEqual(s.Metrics(), w.Metrics()) {
			t.Fatalf("cell %s: stats differ across parallelism", serial.Cells[i].Cell.Key())
		}
	}
	if s, w := serial.RenderJSONL(), wide.RenderJSONL(); s != w {
		t.Fatalf("JSONL differs across parallelism")
	}
	sm := serial.RenderMatrix("substrate", "rate", "realized", "sojourn_p95_ms", "sojourn_p99_ms")
	wm := wide.RenderMatrix("substrate", "rate", "realized", "sojourn_p95_ms", "sojourn_p99_ms")
	if sm != wm {
		t.Fatalf("matrix differs across parallelism:\n--- serial\n%s\n--- parallel\n%s", sm, wm)
	}
	if serial.Errs() != 0 {
		t.Fatalf("replica errors: %d\n%s", serial.Errs(), serial.RenderJSONL())
	}
}

// The sweep's physics: every arrival eventually completes; at the high
// rate both substrates are genuinely ≥2× past saturation (realized at
// most half of offered) and queueing shows up as sojourn growth.
func TestOverloadSemantics(t *testing.T) {
	tbl := grid.Run(overloadSpec(0))
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA} {
		lo := tbl.CellAt(sub, 20).Agg.Values
		hi := tbl.CellAt(sub, 150).Agg.Values
		for _, cell := range []map[string]sweep.Stat{lo, hi} {
			if cell["completed"].Mean != cell["arrivals"].Mean {
				t.Fatalf("%v: %g of %g units completed", sub, cell["completed"].Mean, cell["arrivals"].Mean)
			}
		}
		if cap, offered := hi["realized"].Mean, hi["offered"].Mean; cap > offered/2 {
			t.Fatalf("%v: offered %g is not ≥2× realized capacity %g — deepen the sweep", sub, offered, cap)
		}
		if lo["sojourn_p95_ms"].Mean >= hi["sojourn_p95_ms"].Mean {
			t.Fatalf("%v: p95 sojourn did not grow past saturation (%.3f → %.3f ms)",
				sub, lo["sojourn_p95_ms"].Mean, hi["sojourn_p95_ms"].Mean)
		}
	}
}

// One run's self-consistency: counters match counts, per-kind series
// partition the total, and the mix draws every kind at this size.
func TestRunAccounting(t *testing.T) {
	res, err := Run(Options{Substrate: lynx.Charlotte, Rate: 200, Window: lynx.Second / 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals == 0 || res.Completed != res.Arrivals {
		t.Fatalf("arrivals=%d completed=%d", res.Arrivals, res.Completed)
	}
	if got := res.Metrics.Value(MArrivals); got != int64(res.Arrivals) {
		t.Fatalf("%s=%d, want %d", MArrivals, got, res.Arrivals)
	}
	if got := res.Metrics.Value(MCompleted); got != int64(res.Completed) {
		t.Fatalf("%s=%d, want %d", MCompleted, got, res.Completed)
	}
	var kindTotal int
	for _, kind := range Kinds {
		n := int(res.Metrics.Value(KindKey(MArrivals, kind)))
		if n == 0 {
			t.Fatalf("mix never drew kind %q in %d arrivals", kind, res.Arrivals)
		}
		kindTotal += n
		if _, ok := res.ByKind[kind]; !ok {
			t.Fatalf("no ByKind summary for %q", kind)
		}
	}
	if kindTotal != res.Arrivals {
		t.Fatalf("per-kind arrivals sum %d != total %d", kindTotal, res.Arrivals)
	}
	if res.Sojourn.N != res.Completed {
		t.Fatalf("sojourn N=%d, want %d", res.Sojourn.N, res.Completed)
	}
	if res.Makespan <= res.Window {
		t.Fatalf("overloaded run's makespan %v should exceed the window %v", res.Makespan, res.Window)
	}
}

// Option validation and defaults.
func TestRunOptionErrors(t *testing.T) {
	for _, rate := range []float64{0, -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run(Options{Rate: rate}); err == nil {
			t.Fatalf("rate %g should be rejected", rate)
		}
	}
	if _, err := Run(Options{Rate: 10, Window: -lynx.Second}); err == nil {
		t.Fatal("negative window should be rejected")
	}
	if _, err := Run(Options{Rate: 10, Mix: mustMix(t, "echo=1")}); err != nil {
		t.Fatalf("single-kind mix: %v", err)
	}
}

func mustMix(t *testing.T, s string) *Mix {
	t.Helper()
	m, err := ParseMix(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The closed-loop unit builders run standalone: one short System per
// kind on every substrate.
// TestBuildAllKinds builds and runs every closed-loop unit on every
// kernel: each must finish and move payload bytes. An unknown kind is an
// error.
func TestBuildAllKinds(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		for _, kind := range Kinds {
			sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 9})
			if err := Build(sys, kind); err != nil {
				t.Fatalf("%v/%s: %v", sub, kind, err)
			}
			if err := sys.Run(); err != nil {
				t.Fatalf("%v/%s: %v", sub, kind, err)
			}
			if sys.Stats().Bytes() == 0 {
				t.Fatalf("%v/%s: no kernel bytes moved", sub, kind)
			}
		}
	}
	err := Build(lynx.NewSystem(lynx.Config{Substrate: lynx.Charlotte, Seed: 1}), "bogus")
	if err == nil || !strings.Contains(err.Error(), "unknown workload kind") {
		t.Fatalf("unknown kind error = %v", err)
	}
}
