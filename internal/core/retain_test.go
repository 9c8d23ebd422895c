package core_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// procLeaf is an object a process holds (through a kill hook on its
// simproc); its finalizer reports that the process's graph became
// unreachable.
type procLeaf struct{ data []byte }

// TestCrashedProcessIsCollected crashes processes while their thread
// holds the processor (inside Delay, where kernel calls charge their
// CPU time) or waits at a block point, and checks that each process is
// collected after Run while the env and its fabric are still live: a
// crash must not leave a goroutine parked on the process's state.
func TestCrashedProcessIsCollected(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(*core.Thread)
	}{
		{"in-delay", func(th *core.Thread) { th.Delay(10 * sim.Millisecond) }},
		{"at-block-point", func(th *core.Thread) { th.Sleep(10 * sim.Millisecond) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const procs = 20
			var collected, crashed, hooks atomic.Int64
			r := newRig()
			for i := 0; i < procs; i++ {
				leaf := &procLeaf{data: make([]byte, 32)}
				runtime.SetFinalizer(leaf, func(*procLeaf) { collected.Add(1) })
				pr := core.NewProcess(r.env, "victim", r.fabric.NewTransport("victim"), cheapCosts(), func(th *core.Thread) {
					th.Process().SimProc().OnKill(func() {
						leaf.data[0]++
						hooks.Add(1)
					})
					tc.body(th)
					t.Error("victim survived its crash")
				})
				pr.OnExit(func() { crashed.Add(1) })
				pr.SimProc().KillAt(sim.Time(sim.Millisecond) + sim.Time(i)*sim.Time(sim.Microsecond))
			}
			if err := r.env.Run(); err != nil {
				t.Fatal(err)
			}
			if got, hooked := crashed.Load(), hooks.Load(); got != procs || hooked != procs {
				t.Fatalf("%d of %d processes exited, %d ran their kill hooks", got, procs, hooked)
			}
			for i := 0; i < 50 && collected.Load() < procs; i++ {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			runtime.KeepAlive(r)
			if got := collected.Load(); got != procs {
				t.Fatalf("only %d of %d crashed processes were collected while the env is live", got, procs)
			}
		})
	}
}
