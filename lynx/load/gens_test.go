package load

import (
	"testing"

	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
)

// renderSweep runs the sweep and returns its JSONL table.
func renderSweep(t *testing.T, o SweepOptions) string {
	t.Helper()
	spec, err := SweepSpec(o)
	if err != nil {
		t.Fatal(err)
	}
	tbl := grid.Run(spec)
	if _, err := Rows(tbl); err != nil {
		t.Fatal(err)
	}
	return tbl.RenderJSONL()
}

// TestGensSweepWorkerInvariance is the load engine's partitioned-run
// acceptance gate: with Gens >= 2 every cell's run partitions (one
// shard per generator, work units LaunchGroup-ed mid-run onto their
// generator's shard), and the sweep table must stay byte-identical at
// SimWorkers 1 and 4 on the connected kernel substrates.
func TestGensSweepWorkerInvariance(t *testing.T) {
	opts := SweepOptions{
		Substrates: []lynx.Substrate{lynx.Charlotte, lynx.SODA},
		Rates:      []float64{30, 60},
		Window:     150 * lynx.Millisecond,
		Seed:       1,
		Gens:       4,
	}
	serial := opts
	serial.SimWorkers = 1
	par := opts
	par.SimWorkers = 4
	j1 := renderSweep(t, serial)
	j4 := renderSweep(t, par)
	if j1 != j4 {
		t.Fatalf("gens=4 sweep table depends on SimWorkers:\n%s\nvs\n%s", j1, j4)
	}
}

// TestFaultedSweepWorkerInvariance pins the other half of the same
// contract: fault plans no longer force a serial collapse, so the
// scenario-crossed sweep (the BENCH_load.json faults matrix shape) is
// byte-identical at SimWorkers 1 and 4 — with the default single
// generator AND with Gens >= 2, where the per-shard fault schedules
// actually run concurrently.
func TestFaultedSweepWorkerInvariance(t *testing.T) {
	for _, gens := range []int{1, 2} {
		opts := SweepOptions{
			Substrates: []lynx.Substrate{lynx.SODA},
			Rates:      []float64{40},
			Window:     150 * lynx.Millisecond,
			Seed:       1,
			Gens:       gens,
			Faults: []*fault.Plan{
				{},
				{Events: []fault.Event{fault.Crash{Proc: "u1.server", At: 60 * lynx.Millisecond}}},
			},
		}
		serial := opts
		serial.SimWorkers = 1
		par := opts
		par.SimWorkers = 4
		j1 := renderSweep(t, serial)
		j4 := renderSweep(t, par)
		if j1 != j4 {
			t.Fatalf("gens=%d faulted sweep depends on SimWorkers:\n%s\nvs\n%s", gens, j1, j4)
		}
	}
}

// TestGensKeyAndCompat: the Gens knob is a workload parameter — it
// appears in Key() when set above 1 — but the default must key and run
// exactly as before the knob existed (Gens 0 and 1 are the classic
// single-generator path, stream for stream).
func TestGensKeyAndCompat(t *testing.T) {
	base := SweepOptions{
		Substrates: []lynx.Substrate{lynx.Charlotte},
		Rates:      []float64{30},
		Window:     100 * lynx.Millisecond,
		Seed:       1,
	}
	want := "subs=charlotte rates=30 mix=echo=7,pipeline=2,mesh=1 seed=1 window=100ms"
	if got := base.Key(); got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	one := base
	one.Gens = 1
	if got := one.Key(); got != want {
		t.Fatalf("Gens=1 Key() = %q, want the pre-knob key %q", got, want)
	}
	four := base
	four.Gens = 4
	if got := four.Key(); got != want+" gens=4" {
		t.Fatalf("Gens=4 Key() = %q, want %q", got, want+" gens=4")
	}

	// Run-level compatibility: Gens 0 and Gens 1 are the same run.
	runOnce := func(gens int) string {
		o := base
		o.Gens = gens
		return renderSweep(t, o)
	}
	if a, b := runOnce(0), runOnce(1); a != b {
		t.Fatalf("Gens=1 diverged from the default run:\n%s\nvs\n%s", a, b)
	}
}
