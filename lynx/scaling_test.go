//go:build !race

package lynx_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/lynx"
)

// Wall-clock scaling of a connected topology: a full System on the
// Charlotte token ring, a connected shared medium split into per-group
// segments licensed by its MinLatency bound, with 8 client/server pairs
// each shipping 400 RPCs. Protocol work serializes on per-segment
// medium reservations that a bare timer workload never touches, so the
// floor is lower than the engine's. Scaling needs at least 4 CPUs to be
// observable, and the race detector's slowdown is not the engine's, so
// the test runs only on such machines and builds.
func TestScalingConnected4v1(t *testing.T) {
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("needs >= 4 CPUs to observe 4-worker scaling; this machine has %d", n)
	}
	const (
		groups, opsPerClient = 8, 400
		minScaling           = 1.5
	)
	// rpcsPerSec times one run at the given worker count, best of
	// three. A run that did not partition would measure nothing, so the
	// partition is asserted.
	rpcsPerSec := func(workers int) float64 {
		best := 0.0
		for try := 0; try < 3; try++ {
			sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Charlotte, Seed: 1, SimWorkers: workers})
			for g := 0; g < groups; g++ {
				client := sys.Spawn(fmt.Sprintf("client-%d", g), func(th *lynx.Thread, boot []*lynx.End) {
					data := make([]byte, 32)
					for i := 0; i < opsPerClient; i++ {
						if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
							t.Errorf("rpc: %v", err)
							return
						}
					}
					th.Destroy(boot[0])
				})
				server := sys.Spawn(fmt.Sprintf("server-%d", g), func(th *lynx.Thread, boot []*lynx.End) {
					th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
						st.Reply(req, lynx.Msg{Data: req.Data()})
					})
				})
				sys.Join(client, server)
			}
			start := time.Now()
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !sys.Partitioned() {
				t.Fatal("connected workload did not partition (serial collapse)")
			}
			if ops := groups * opsPerClient / time.Since(start).Seconds(); ops > best {
				best = ops
			}
		}
		return best
	}
	one, four := rpcsPerSec(1), rpcsPerSec(4)
	t.Logf("RPCs/s: %.0f at 1 worker, %.0f at 4 (%.2fx)", one, four, four/one)
	if four/one < minScaling {
		t.Fatalf("4-worker scaling %.2fx, want >= %.1fx", four/one, minScaling)
	}
}
