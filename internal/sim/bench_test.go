package sim_test

import (
	"testing"

	"repro/internal/sim"
)

// The scheduler microbenchmarks and TestSchedWorkloadsAllocFree share
// these workload bodies. Each builds an env and returns the run that
// performs ops scheduler operations on it.

// timerWorkload: procs procs sleeping 1µs in lockstep — the timer-heap
// pop + proc wakeup path (one sched event per op).
func timerWorkload(procs int) func(ops int) func() error {
	return func(ops int) func() error {
		env := sim.NewEnv(1)
		for i := 0; i < procs; i++ {
			env.Spawn("p", func(p *sim.Proc) {
				for {
					p.Delay(sim.Microsecond)
				}
			})
		}
		return func() error {
			return env.RunUntil(sim.Time(ops) * sim.Time(sim.Microsecond) / sim.Time(procs))
		}
	}
}

// yieldWorkload: two always-ready procs alternating — the direct
// cross-proc handoff path, no timers (two sched events per op).
func yieldWorkload(ops int) func() error {
	env := sim.NewEnv(1)
	for i := 0; i < 2; i++ {
		env.Spawn("y", func(p *sim.Proc) {
			for j := 0; j < ops; j++ {
				p.Yield()
			}
		})
	}
	return env.Run
}

var schedWorkloads = []struct {
	name  string
	build func(ops int) func() error
}{
	{"timer_8", timerWorkload(8)},
	{"yield", yieldWorkload},
	{"timer_256", timerWorkload(256)},
}

// benchSched times one workload's run over b.N ops, setup excluded.
func benchSched(b *testing.B, build func(ops int) func() error) {
	b.ReportAllocs()
	run := build(b.N)
	b.ResetTimer()
	if err := run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedTimer8: 8 procs sleeping in lockstep.
func BenchmarkSchedTimer8(b *testing.B) { benchSched(b, timerWorkload(8)) }

// BenchmarkSchedYield: two procs yielding to each other.
func BenchmarkSchedYield(b *testing.B) { benchSched(b, yieldWorkload) }

// BenchmarkSchedTimer256: 256 sleeping procs — timer-heap depth stress.
func BenchmarkSchedTimer256(b *testing.B) { benchSched(b, timerWorkload(256)) }

// The scheduler's hot paths allocate nothing: 0 allocs/op on every
// workload, counted the way `go test -benchmem` counts them (all
// allocations during the run, setup excluded, divided by ops and
// truncated). Setup is measured as a run of zero ops and subtracted.
func TestSchedWorkloadsAllocFree(t *testing.T) {
	const ops = 20000
	for _, w := range schedWorkloads {
		t.Run(w.name, func(t *testing.T) {
			allocs := func(ops int) float64 {
				return testing.AllocsPerRun(1, func() {
					if err := w.build(ops)(); err != nil {
						t.Fatal(err)
					}
				})
			}
			setup, total := allocs(0), allocs(ops)
			if perOp := int(total-setup) / ops; perOp != 0 {
				t.Fatalf("%d allocs/op (%.0f allocations over %d ops beyond %.0f for setup), want 0",
					perOp, total-setup, ops, setup)
			}
			t.Logf("%.0f allocations over %d ops beyond %.0f for setup", total-setup, ops, setup)
		})
	}
}
