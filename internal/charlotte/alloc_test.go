package charlotte

import (
	"testing"

	"repro/internal/sim"
)

// A warm Send/Receive/Wait round trip allocates one object: the
// kernel's copy of the payload, which becomes the receiver's Data.
// Activity records come from the group's free list, completions queue
// as values, and the delivery callback is made once per record.
func TestWarmRoundTripAllocatesOnlyTheCopy(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	ea, eb := k.BootLink(a, b)
	data := make([]byte, 64)
	var allocs float64
	env.Spawn("roundtrips", func(p *sim.Proc) {
		round := func() {
			if st := b.Receive(p, eb, 4096); st != OK {
				t.Errorf("Receive: %v", st)
			}
			if st := a.Send(p, ea, data, EndRef{}); st != OK {
				t.Errorf("Send: %v", st)
			}
			if d := b.Wait(p); d.Status != OK || len(d.Data) != len(data) {
				t.Errorf("receive completion %+v", d)
			}
			if d := a.Wait(p); d.Dir != SendDir || d.Status != OK {
				t.Errorf("send completion %+v", d)
			}
		}
		allocs = testing.AllocsPerRun(1000, round)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("warm round trip: %v allocations, want 1 (the kernel's copy)", allocs)
	}
}
