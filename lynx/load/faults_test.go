package load

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// faultedRun is one cheap faulted load window.
func faultedRun(t *testing.T, sub lynx.Substrate, plan *fault.Plan, seed uint64) *Result {
	t.Helper()
	res, err := Run(Options{
		Substrate: sub,
		Seed:      seed,
		Rate:      40,
		Window:    150 * lynx.Millisecond,
		Faults:    plan,
	})
	if err != nil {
		t.Fatalf("%v under %s seed %d: %v", sub, plan, seed, err)
	}
	return res
}

// TestFaultScenarioDeterminism runs every registered scenario on every
// substrate twice with the same seed and demands identical results:
// faulted runs must stay pure functions of (spec, seed). Crash/restart
// scenarios exercise the kernels' termination sweeps — a regression
// that wedges the drain shows up here as a hang cut short by the sim's
// deadlock detector or the test timeout.
func TestFaultScenarioDeterminism(t *testing.T) {
	subs := []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis}
	for _, sub := range subs {
		for _, name := range fault.ScenarioNames() {
			plan, err := fault.ParseScenario(name)
			if err != nil {
				t.Fatalf("scenario %q: %v", name, err)
			}
			a := faultedRun(t, sub, plan, 3)
			b := faultedRun(t, sub, plan, 3)
			if a.Arrivals != b.Arrivals || a.Completed != b.Completed ||
				a.Makespan != b.Makespan || a.Realized != b.Realized {
				t.Errorf("%v/%s: same seed diverged: %+v vs %+v", sub, name, a, b)
			}
			if !reflect.DeepEqual(a.Sojourn, b.Sojourn) || !reflect.DeepEqual(a.ByKind, b.ByKind) {
				t.Errorf("%v/%s: sojourn stats diverged", sub, name)
			}
			if a.Completed > a.Arrivals {
				t.Errorf("%v/%s: completed %d > arrivals %d", sub, name, a.Completed, a.Arrivals)
			}
			if !plan.Churns() && a.Completed != a.Arrivals {
				t.Errorf("%v/%s: non-churn scenario lost work: %d of %d", sub, name, a.Completed, a.Arrivals)
			}
		}
	}
}

// TestFaultsSweepParallelByteIdentical: the faulted sweep's JSONL bytes
// are independent of the worker count — the property the BENCH gate
// stands on.
func TestFaultsSweepParallelByteIdentical(t *testing.T) {
	plans := []*fault.Plan{
		fault.MustParse("none"),
		fault.MustParse("drop(*->*,0.1)"),
		fault.MustParse("crash(u1.*,60ms)"),
	}
	render := func(parallel int) string {
		spec, err := SweepSpec(SweepOptions{
			Substrates: []lynx.Substrate{lynx.Charlotte, lynx.SODA},
			Rates:      []float64{40},
			Window:     150 * lynx.Millisecond,
			Seed:       2,
			Faults:     plans,
			Parallel:   parallel,
		})
		if err != nil {
			t.Fatalf("SweepSpec: %v", err)
		}
		return grid.Run(spec).RenderJSONL()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("faulted sweep not parallel-invariant:\n-- parallel=1 --\n%s\n-- parallel=8 --\n%s", seq, par)
	}
}

// TestHeavyDropCompletes: a 30% point-to-point drop is well past the
// default scenarios' severity; retransmission must still deliver every
// unit on every seed (the lynx-level early-reply regression test covers
// the same regime at the protocol layer).
func TestHeavyDropCompletes(t *testing.T) {
	plan := fault.MustParse("drop(*->*,0.3)")
	for seed := uint64(1); seed <= 20; seed++ {
		res := faultedRun(t, lynx.SODA, plan, seed)
		if res.Completed != res.Arrivals {
			t.Errorf("seed %d: drop scenario lost work: %d of %d", seed, res.Completed, res.Arrivals)
		}
	}
}

// TestWholeUnitCrashDrains pins the watchdog regression found by fault
// injection: crashing both halves of a unit left the dead client's
// hint-staleness watchdog rearming forever (the kernel only raises
// IntCrash to live requesters), so the run never drained. The fix bails
// the watchdog when its transport is dead; a regression here hangs
// until the test timeout.
func TestWholeUnitCrashDrains(t *testing.T) {
	plan := fault.MustParse("crash(u1.*,60ms)")
	for seed := uint64(1); seed <= 5; seed++ {
		res := faultedRun(t, lynx.SODA, plan, seed)
		if res.Completed > res.Arrivals {
			t.Errorf("seed %d: completed %d > arrivals %d", seed, res.Completed, res.Arrivals)
		}
	}
}

// TestRestartedGeneratorSkipsItsPast: churn-gen crashes the generator
// at 60 ms and restarts it at 90 ms. The new incarnation must not
// replay the arrival instants before its own start, which launched
// them all at once under reused unit seqs and timed their sojourns
// from the stale instants. So each instant in the window launches at
// most one unit, and the row (the CLI's `-faults churn-gen -rates 40
// -substrates ideal -window 200ms -seed 1`) passes CheckShape, which
// the replay failed on realized throughput.
func TestRestartedGeneratorSkipsItsPast(t *testing.T) {
	plan, err := fault.ParseScenario("churn-gen")
	if err != nil {
		t.Fatal(err)
	}
	o := SweepOptions{
		Substrates: []lynx.Substrate{lynx.Ideal},
		Rates:      []float64{40},
		Window:     200 * lynx.Millisecond,
		Seed:       1,
		Faults:     []*fault.Plan{plan},
	}
	spec, err := SweepSpec(o)
	if err != nil {
		t.Fatalf("SweepSpec: %v", err)
	}
	rows, err := Rows(grid.Run(spec)) // Rows applies CheckShape
	if err != nil {
		t.Fatalf("churn-gen row: %v", err)
	}
	// The one cell's generator draws its instants from this stream.
	arr := sim.NewArrivalStream(sim.StreamSeed(sweep.CellSeed(o.Seed, 0, 0), 1), o.Rates[0])
	instants := 0
	for lynx.Duration(arr.Next()) <= o.Window {
		instants++
	}
	if rows[0].Arrivals > instants {
		t.Errorf("%d units launched from %d arrival instants: a restarted generator replayed its past",
			rows[0].Arrivals, instants)
	}
}

// TestShortBurstPassesShape: every default fault scenario at 40/s over
// a 200 ms window on SODA and Ideal (the CLI's `-faults default -rates
// 40 -substrates soda,ideal -window 200ms -seed 1`) passes CheckShape.
// Its slow(3,3) Ideal cell is a Poisson burst, 11 arrivals all
// completed in a 180 ms makespan, which realizes 61/s: chance, not
// invented work, which a fixed 1.5x bound on the offered rate took it
// for.
func TestShortBurstPassesShape(t *testing.T) {
	plans, err := fault.ParseScenarios([]string{"default"})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SweepSpec(SweepOptions{
		Substrates: []lynx.Substrate{lynx.SODA, lynx.Ideal},
		Rates:      []float64{40},
		Window:     200 * lynx.Millisecond,
		Seed:       1,
		Faults:     plans,
	})
	if err != nil {
		t.Fatalf("SweepSpec: %v", err)
	}
	rows, err := Rows(grid.Run(spec)) // Rows applies CheckShape
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Substrate == "ideal" && r.Scenario == "slow(3,3)" && r.Realized <= 1.5*r.Rate {
			t.Errorf("slow(3,3) realized %g: the burst this test keeps is gone", r.Realized)
		}
	}
}
