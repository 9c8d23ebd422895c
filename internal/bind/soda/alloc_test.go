package sodabind

import (
	"testing"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/soda"
)

// sendRig is one binding whose end's far side is a bare SODA process,
// so a test can accept the binding's puts by hand.
type sendRig struct {
	env  *sim.Env
	tr   *Transport
	far  *soda.Process
	es   *endState
	reqs []soda.ReqID // requests the far side has felt, oldest first
}

func newSendRig() *sendRig {
	env := sim.NewEnv(1)
	k := soda.NewKernel(env, netsim.NewCSMABus(env.Rand().Fork()), calib.DefaultSODA())
	r := &sendRig{env: env, tr: New(k, k.NewProcess(0), DefaultConfig()), far: k.NewProcess(1)}
	farName := r.far.NewName(nil)
	r.far.Advertise(nil, farName)
	r.far.SetHandler(func(ir soda.Interrupt) {
		if ir.IKind == soda.IntRequest {
			r.reqs = append(r.reqs, ir.Req)
		}
	})
	myName := r.tr.kp.NewName(nil)
	r.es = newEndState(myName, farName, r.far.ID())
	r.tr.ends[myName] = r.es
	r.tr.kp.Advertise(nil, myName)
	return r
}

// acceptNext waits for the far side to feel the next put and accepts
// it.
func (r *sendRig) acceptNext(t *testing.T, p *sim.Proc) {
	for len(r.reqs) == 0 {
		p.Delay(sim.Millisecond)
	}
	req := r.reqs[0]
	r.reqs = r.reqs[:copy(r.reqs, r.reqs[1:])]
	if _, st := r.far.Accept(p, req, packOOB(oobOK, 0), nil, 4096); st != soda.OK {
		t.Errorf("Accept: %v", st)
	}
}

// onlyPut returns the one data put the binding has outstanding.
func (r *sendRig) onlyPut(t *testing.T) *pendingSend {
	var ps *pendingSend
	for _, pp := range r.tr.pending {
		if pp.ps != nil {
			if ps != nil {
				t.Fatal("more than one put outstanding")
			}
			ps = pp.ps
		}
	}
	if ps == nil {
		t.Fatal("no put outstanding")
	}
	return ps
}

// A warm 64-byte send with no enclosure allocates one object: the
// kernel's copy, which becomes the receiver's data. The send record and
// its encode buffer come from the free list, the hint check is the
// record's own callback, and events carry the end's handle boxed once.
func TestWarmStartSendAllocFree(t *testing.T) {
	r := newSendRig()
	msg := &core.WireMsg{Kind: core.KindRequest, Op: "op", Seq: 1, Data: make([]byte, 64)}
	delivered := 0
	sink := func(ev core.Event) {
		if ev.Kind != core.EvDelivered {
			t.Errorf("event %v, want delivered", ev.Kind)
		}
		delivered++
	}
	var allocs float64
	r.env.Spawn("sender", func(p *sim.Proc) {
		r.tr.SetSink(sink, p)
		send := func() {
			want := delivered + 1
			if err := r.tr.StartSend(r.es.te, msg); err != nil {
				t.Error(err)
			}
			r.acceptNext(t, p)
			for delivered < want {
				p.Delay(sim.Millisecond)
			}
		}
		allocs = testing.AllocsPerRun(1000, send)
		r.tr.Shutdown()
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > 1 {
		t.Fatalf("warm StartSend: %v allocations per send, want <= 1 (the kernel's copy)", allocs)
	}
}

// A hint check armed for a put that was accepted long ago fires after
// the put's record has been reused for another message, and leaves that
// message alone: the new put, posted to a process that no longer
// advertises the name, is repaired only when its own check fires.
func TestStaleHintCheckAfterReuse(t *testing.T) {
	r := newSendRig()
	timeout := r.tr.cfg.HintTimeout
	msg := &core.WireMsg{Kind: core.KindRequest, Op: "op", Seq: 1, Data: []byte("x")}
	r.env.Spawn("sender", func(p *sim.Proc) {
		r.tr.SetSink(func(core.Event) {}, p)
		t0 := p.Now()
		if err := r.tr.StartSend(r.es.te, msg); err != nil {
			t.Fatal(err)
		}
		first := r.onlyPut(t)
		r.acceptNext(t, p)
		p.Delay(timeout / 2)
		if _, ok := r.tr.pending[first.id]; ok || len(r.tr.free) != 1 {
			t.Fatalf("first put still outstanding, or its record not free")
		}
		// The far owner stops answering to the name; the next put finds
		// it unadvertised, which only its own hint check may act on.
		r.far.Unadvertise(nil, r.es.farName)
		t1 := p.Now()
		if err := r.tr.StartSend(r.es.te, msg); err != nil {
			t.Fatal(err)
		}
		second := r.onlyPut(t)
		if second != first {
			t.Fatal("the second message did not reuse the first's record")
		}
		// The first put's check fires at t0+timeout.
		p.Delay(sim.Duration(t0) + timeout + timeout/4 - sim.Duration(p.Now()))
		if st := r.tr.kp.RequestState(second.id); st != soda.ReqUndeliverable {
			t.Fatalf("second put %v after the first put's check, want still posted and undeliverable", st)
		}
		if n := r.tr.Obs().Metrics().ProcValue(obs.MDiscovers, int(r.tr.kp.ID())); n != 0 {
			t.Fatalf("%d discovers after the first put's check, want 0", n)
		}
		// Its own check, at t1+timeout, withdraws it and starts repair.
		p.Delay(sim.Duration(t1) + timeout + timeout/4 - sim.Duration(p.Now()))
		if st := r.tr.kp.RequestState(second.id); st != soda.ReqGone {
			t.Fatalf("second put %v after its own check, want withdrawn", st)
		}
		r.tr.Shutdown()
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}
