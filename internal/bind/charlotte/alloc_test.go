package chbind

import (
	"runtime"
	"testing"

	"repro/internal/calib"
	"repro/internal/charlotte"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A fresh link costs the binding one endState per end and nothing
// else: no per-end maps, and each end's handle boxed once. chbind never
// drops an endState and the kernel keeps every link record, so a link
// may not cost more than the 1070 B it did here (go1.24, amd64) while
// each end still carried two maps.
func TestFreshLinkHeap(t *testing.T) {
	const links = 1000
	env := sim.NewEnv(1)
	k := charlotte.NewKernel(env, netsim.NewTokenRing(20), calib.DefaultCharlotte())
	tr := New(k.NewProcess(0))
	var perLink uint64
	env.Spawn("maker", func(p *sim.Proc) {
		tr.proc = p
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < links; i++ {
			if _, _, err := tr.MakeLink(); err != nil {
				t.Error(err)
				return
			}
		}
		runtime.ReadMemStats(&after)
		perLink = (after.TotalAlloc - before.TotalAlloc) / links
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if perLink > 1070 {
		t.Fatalf("a fresh link allocates %d B of heap, want <= 1070", perLink)
	}
	t.Logf("a fresh link allocates %d B of heap", perLink)
}

// A warm 64-byte send with no enclosure allocates the outMsg that
// tracks it and the kernel's copy, which becomes the receiver's Data.
// The packet is encoded into the end's reused buffer, the kernel
// message is a value, and the event carries the end's handle boxed
// once.
func TestWarmStartSendAllocFree(t *testing.T) {
	env := sim.NewEnv(1)
	k := charlotte.NewKernel(env, netsim.NewTokenRing(20), calib.DefaultCharlotte())
	a := New(k.NewProcess(0))
	kpB := k.NewProcess(1)
	ea, eb := k.BootLink(a.kp, kpB)
	msg := &core.WireMsg{Kind: core.KindRequest, Op: "op", Seq: 1, Data: make([]byte, 64)}
	delivered := 0
	sink := func(ev core.Event) {
		if ev.Kind != core.EvDelivered {
			t.Errorf("event %v, want delivered", ev.Kind)
		}
		delivered++
	}
	var allocs float64
	env.Spawn("sender", func(p *sim.Proc) {
		a.SetSink(sink, p)
		te := a.AdoptBootEnd(ea)
		send := func() {
			if st := kpB.Receive(p, eb, 4096); st != charlotte.OK {
				t.Errorf("Receive: %v", st)
			}
			want := delivered + 1
			if err := a.StartSend(te, msg); err != nil {
				t.Error(err)
			}
			if d := kpB.Wait(p); d.Status != charlotte.OK || len(d.Data) != 1+msg.EncodedLen() {
				t.Errorf("receive completion %+v", d)
			}
			// Let a's pump take the send completion and free the slot.
			for delivered < want {
				p.Delay(sim.Millisecond)
			}
		}
		allocs = testing.AllocsPerRun(1000, send)
		a.Shutdown()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Fatalf("warm StartSend: %v allocations per send, want <= 2 (the outMsg and the kernel's copy)", allocs)
	}
}
