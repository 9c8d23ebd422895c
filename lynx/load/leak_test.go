package load

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/lynx"
)

// unitLeaf is a per-unit object every process main of its unit
// captures; its finalizer reports that the unit's process graph became
// unreachable.
type unitLeaf struct {
	seq  int
	data []byte
}

// heapAlloc reports the bytes of live heap after a full collection.
func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFinishedUnitsAreCollected runs a SODA open loop and checks that
// the System, still reachable after the run, no longer holds the
// processes of the units that completed: open-loop memory must be
// bounded by the units in flight, not the units completed. Two probes:
// a finalizer on a leaf every process main of a unit captures (the
// spec tables' hold on a unit), and the live heap the run leaves behind
// per unit (any hold on a unit's process graph, ≈14 KB of it, through
// the kernel, the simulator or the run-time package).
func TestFinishedUnitsAreCollected(t *testing.T) {
	const units = 300
	var collected, completed atomic.Int64
	mix, err := ParseMix(DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.SODA, Seed: 7})
	sys.Spawn("loadgen", func(t *lynx.Thread, _ []*lynx.End) {
		arr := sim.NewArrivalStream(sim.StreamSeed(7, 1), 40)
		kinds := sim.NewRand(sim.StreamSeed(7, 2))
		for seq := 0; seq < units; seq++ {
			if err := t.SleepUntil(arr.Next()); err != nil {
				return
			}
			specs, wires := unitSpecs(mix.Pick(kinds), seq)
			leaf := &unitLeaf{seq: seq, data: make([]byte, 32)}
			runtime.SetFinalizer(leaf, func(*unitLeaf) { collected.Add(1) })
			for i := range specs {
				main := specs[i].Main
				specs[i].Main = func(t *lynx.Thread, boot []*lynx.End) {
					leaf.data[0]++
					main(t, boot)
				}
			}
			head, _ := sys.LaunchGroup(t, specs, wires)
			t.Serve(head, func(st *lynx.Thread, req *lynx.Request) {
				completed.Add(1)
				st.Reply(req, lynx.Msg{})
			})
		}
	})
	before := heapAlloc()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got := completed.Load(); got != units {
		t.Fatalf("%d of %d units completed", got, units)
	}
	want := int64(units * 9 / 10)
	for i := 0; i < 50 && collected.Load() < want; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	perUnit := (heapAlloc() - before) / units
	runtime.KeepAlive(sys)
	if got := collected.Load(); got < want {
		t.Fatalf("only %d of %d completed units were collected while the System is live (want >= %d)", got, units, want)
	}
	// What a finished process may keep: its counter block and a SODA
	// tombstone, a few hundred bytes per unit.
	if perUnit > 4096 {
		t.Fatalf("the run left %d B of live heap per completed unit (want <= 4096)", perUnit)
	}
}
