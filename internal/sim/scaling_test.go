//go:build !race

package sim_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// Wall-clock scaling of the parallel engine on a partitioned timer
// workload: independent groups of procs looping on short timers, the
// topology class the engine accelerates. 8 groups x 4 procs x 30k delay
// events per proc dwarfs the per-run worker-pool cost. Scaling needs
// at least 4 CPUs to be observable, and the race detector's slowdown is
// not the engine's, so the test runs only on such machines and builds.
func TestScalingTimer4v1(t *testing.T) {
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("needs >= 4 CPUs to observe 4-worker scaling; this machine has %d", n)
	}
	const (
		groups, procsPerGroup, eventsPerProc = 8, 4, 30000
		minScaling                           = 2.0
	)
	// eventsPerSec times one run at the given worker count, best of
	// three to shed OS-scheduler noise.
	eventsPerSec := func(workers int) float64 {
		best := 0.0
		for try := 0; try < 3; try++ {
			root := sim.NewEnv(1)
			for _, sh := range root.EnterParallel(sim.ParallelOptions{Groups: groups, Workers: workers}) {
				for p := 0; p < procsPerGroup; p++ {
					sh.Spawn("p", func(p *sim.Proc) {
						for {
							p.Delay(sim.Microsecond)
						}
					})
				}
			}
			start := time.Now()
			if err := root.RunUntil(sim.Time(eventsPerProc) * sim.Time(sim.Microsecond)); err != nil {
				t.Fatal(err)
			}
			if eps := groups * procsPerGroup * eventsPerProc / time.Since(start).Seconds(); eps > best {
				best = eps
			}
		}
		return best
	}
	one, four := eventsPerSec(1), eventsPerSec(4)
	t.Logf("events/s: %.0f at 1 worker, %.0f at 4 (%.2fx)", one, four, four/one)
	if four/one < minScaling {
		t.Fatalf("4-worker scaling %.2fx, want >= %.1fx", four/one, minScaling)
	}
}
