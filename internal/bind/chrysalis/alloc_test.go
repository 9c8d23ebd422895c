package chrbind

import (
	"runtime"
	"testing"

	"repro/internal/calib"
	"repro/internal/chrysalis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A link object is a 16 KB memory object at the default buffer size,
// but the host holds only the pages written: a fresh link writes just
// its two dual-queue names, in the first page.
func TestFreshLinkHeap(t *testing.T) {
	const links = 1000
	env := sim.NewEnv(1)
	k := chrysalis.NewKernel(env, netsim.NewBackplane(), calib.DefaultChrysalis())
	tr := New(k, k.NewProcess(0))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < links; i++ {
		if _, _, err := tr.MakeLink(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLink := (after.TotalAlloc - before.TotalAlloc) / links
	if perLink >= 2048 {
		t.Fatalf("a fresh link allocates %d B of heap, want < 2048", perLink)
	}
	t.Logf("a fresh link allocates %d B of heap", perLink)
}

// A warm StartSend encodes into the transport's reused buffer and
// copies it into the link object: no allocation per message.
func TestWarmStartSendAllocFree(t *testing.T) {
	env := sim.NewEnv(1)
	k := chrysalis.NewKernel(env, netsim.NewBackplane(), calib.DefaultChrysalis())
	a := New(k, k.NewProcess(0))
	b := New(k, k.NewProcess(1))
	ea, _ := BootLink(a, b)
	msg := &core.WireMsg{Kind: core.KindRequest, Op: "op", Seq: 1, Data: make([]byte, 64)}
	var allocs float64
	env.Spawn("sender", func(p *sim.Proc) {
		a.proc = p
		send := func() {
			if err := a.StartSend(ea, msg); err != nil {
				t.Fatal(err)
			}
			// Take the notice off b's dual queue so the queue never grows.
			if _, ok, st := b.kp.Dequeue(p, b.queue, b.event); !ok || st != chrysalis.OK {
				t.Fatalf("no notice queued: %v", st)
			}
		}
		allocs = testing.AllocsPerRun(1000, send)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm StartSend: %v allocations per send, want 0", allocs)
	}
}
