package charlotte

import (
	"testing"

	"repro/internal/calib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Additional Charlotte kernel tests: boot links, status
// plumbing, destroy/move interactions.

func TestBootLinkOwnership(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	ea, eb := k.BootLink(a, b)
	if !a.Owns(ea) || !b.Owns(eb) {
		t.Fatal("boot ends not owned")
	}
	if ea.peer() != eb {
		t.Fatal("boot ends not peers")
	}
	// BootLink charges no time: the clock must not have moved.
	if env.Now() != 0 {
		t.Fatalf("clock at %v", env.Now())
	}
}

func TestStatusStrings(t *testing.T) {
	for st := OK; st <= Truncated; st++ {
		if st.String() == "" {
			t.Errorf("status %d has empty name", int(st))
		}
	}
	if Status(99).String() != "Status(99)" {
		t.Error("unknown status formatting")
	}
	if SendDir.String() != "send" || RecvDir.String() != "recv" {
		t.Error("direction strings")
	}
	var nilRef EndRef
	if nilRef.String() != "end<nil>" || !nilRef.Nil() {
		t.Error("nil ref formatting")
	}
}

func TestSendOnForeignEnd(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		_, eb := k.BootLink(a, b)
		if st := a.Send(p, eb, nil, EndRef{}); st != NotOwner {
			t.Errorf("Send on foreign end: %v", st)
		}
		if st := a.Receive(p, eb, 10); st != NotOwner {
			t.Errorf("Receive on foreign end: %v", st)
		}
		if st := a.Cancel(p, eb, SendDir); st != NotOwner {
			t.Errorf("Cancel on foreign end: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyWhileMessageInFlight(t *testing.T) {
	// A matched transfer is in flight when the link is destroyed: both
	// parties must get Destroyed completions, and the late delivery event
	// must be harmless.
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		ea, eb := k.BootLink(a, b)
		b.Receive(p, eb, 64)
		a.Send(p, ea, []byte("doomed"), EndRef{})
		// Matched immediately; delivery is ~20+ms away. Destroy now.
		p.Delay(sim.Millisecond)
		if st := a.Destroy(p, ea); st != OK {
			t.Fatalf("Destroy: %v", st)
		}
		da := a.Wait(p)
		if da.Status != Destroyed {
			t.Errorf("a completion: %+v", da)
		}
		db := b.Wait(p)
		if db.Status != Destroyed {
			t.Errorf("b completion: %+v", db)
		}
		// Let the stale delivery event fire.
		p.Delay(200 * sim.Millisecond)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MKernelMessages) != 0 {
		t.Fatalf("messages delivered on a destroyed link: %d", k.Obs().Metrics().Value(obs.MKernelMessages))
	}
}

func TestEnclosureOfDestroyedLink(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		ea, eb := k.BootLink(a, b)
		_ = eb
		m1, _, _ := a.MakeLink(p)
		a.Destroy(p, m1)
		if st := a.Send(p, ea, nil, m1); st != Destroyed {
			t.Errorf("enclosing destroyed end: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveAgreementCostCharged(t *testing.T) {
	// An enclosure-bearing transfer takes MoveAgreement longer than a
	// plain one.
	measure := func(withEnc bool) sim.Duration {
		env, k := newTestKernel()
		a := k.NewProcess(0)
		b := k.NewProcess(1)
		var lat sim.Duration
		env.Spawn("x", func(p *sim.Proc) {
			ea, eb := k.BootLink(a, b)
			var enc EndRef
			if withEnc {
				_, enc2, _ := a.MakeLink(p)
				enc = enc2
			}
			b.Receive(p, eb, 64)
			start := p.Now()
			a.Send(p, ea, []byte("m"), enc)
			a.Wait(p)
			lat = sim.Duration(p.Now() - start)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	plain := measure(false)
	moved := measure(true)
	diff := moved - plain
	want := calib.DefaultCharlotte().MoveAgreement
	// MakeLink also charges a kernel call before the timed window, so
	// compare the transfer-time delta only.
	if diff < want || diff > want+sim.Millisecond {
		t.Fatalf("move agreement delta = %v, want ≈ %v", diff, want)
	}
}

func TestCancelSendReleasesSlot(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		e1, _, _ := a.MakeLink(p)
		a.Send(p, e1, []byte("x"), EndRef{})
		if st := a.Cancel(p, e1, SendDir); st != OK {
			t.Fatalf("Cancel: %v", st)
		}
		// Slot must be free for a new send.
		if st := a.Send(p, e1, []byte("y"), EndRef{}); st != OK {
			t.Fatalf("Send after cancel: %v", st)
		}
		if st := a.Cancel(p, e1, RecvDir); st != NoActivity {
			t.Fatalf("Cancel recv with none: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTerminateIdempotentCharlotte(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		a.MakeLink(p)
		a.Terminate()
		a.Terminate() // second call is a no-op
		// Calls after termination fail.
		if _, _, st := a.MakeLink(p); st != Destroyed {
			t.Errorf("MakeLink after terminate: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthMessage(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		ea, eb := k.BootLink(a, b)
		b.Receive(p, eb, 0)
		a.Send(p, ea, nil, EndRef{})
		d := b.Wait(p)
		if d.Status != OK || d.Length != 0 {
			t.Errorf("zero-length completion: %+v", d)
		}
		a.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
