//go:build !race

package grid

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/lynx"
	"repro/lynx/sweep"
)

// Wall-clock scaling of the replica fan-out: whole Systems per second
// at 4 workers against 1. Each replica is 4 clients x 25 echo RPCs of
// 128 bytes against one server on Chrysalis, and a timed one-cell grid
// runs 96 of them. Scaling needs at least 4 CPUs to be observable, and the race
// detector's slowdown is not the harness's, so the test runs only on
// such machines and builds.
func TestScalingSweep4v1(t *testing.T) {
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("needs >= 4 CPUs to observe 4-worker scaling; this machine has %d", n)
	}
	const (
		replicas   = 96
		minScaling = 3.0
	)
	body := func(_ Cell, r sweep.Run) Outcome {
		const clients, ops, payload = 4, 25, 128
		sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Chrysalis, Seed: r.Seed})
		data := make([]byte, payload)
		server := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
			for _, e := range boot {
				th.Serve(e, func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{Data: req.Data()})
				})
			}
		})
		for i := 0; i < clients; i++ {
			cl := sys.Spawn(fmt.Sprint("client", i), func(th *lynx.Thread, boot []*lynx.End) {
				for op := 0; op < ops; op++ {
					if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
						return
					}
				}
				th.Destroy(boot[0])
			})
			sys.Join(server, cl)
		}
		return Outcome{Err: sys.Run()}
	}
	// runsPerSec times one grid at the given worker count, best of
	// three.
	runsPerSec := func(workers int) float64 {
		best := 0.0
		for try := 0; try < 3; try++ {
			start := time.Now()
			agg := Run(Spec{Replicas: replicas, Parallel: workers, RootSeed: 1, Body: body}).Cells[0].Agg
			if len(agg.Errs) > 0 {
				t.Fatalf("replica errors: %v", agg.Errs[0])
			}
			if rps := replicas / time.Since(start).Seconds(); rps > best {
				best = rps
			}
		}
		return best
	}
	one, four := runsPerSec(1), runsPerSec(4)
	t.Logf("runs/s: %.0f at 1 worker, %.0f at 4 (%.2fx)", one, four, four/one)
	if four/one < minScaling {
		t.Fatalf("4-worker scaling %.2fx, want >= %.1fx", four/one, minScaling)
	}
}
