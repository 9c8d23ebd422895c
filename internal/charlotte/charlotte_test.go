package charlotte

import (
	"bytes"
	"testing"

	"repro/internal/calib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// harness bundles an env, network, and kernel for tests.
func newTestKernel() (*sim.Env, *Kernel) {
	env := sim.NewEnv(1)
	net := netsim.NewTokenRing(20)
	k := NewKernel(env, net, calib.DefaultCharlotte())
	return env, k
}

func TestMakeLinkOwnership(t *testing.T) {
	env, k := newTestKernel()
	pr := k.NewProcess(0)
	env.Spawn("a", func(p *sim.Proc) {
		e1, e2, st := pr.MakeLink(p)
		if st != OK {
			t.Errorf("MakeLink: %v", st)
		}
		if !pr.Owns(e1) || !pr.Owns(e2) {
			t.Error("creator does not own both ends")
		}
		if e1.peer() != e2 || e2.peer() != e1 {
			t.Error("peer refs wrong")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSimpleSendReceive(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	var e1, e2 EndRef

	env.Spawn("setup", func(p *sim.Proc) {
		var st Status
		e1, e2, st = a.MakeLink(p)
		if st != OK {
			t.Errorf("MakeLink: %v", st)
		}
		// Hand e2 to b out of band (simulating initial configuration).
		delete(a.ends, e2)
		k.groups[0].links[e2.link].ends[e2.side].owner = b
		b.ends[e2] = true

		env.Spawn("sender", func(p *sim.Proc) {
			if st := a.Send(p, e1, []byte("hello"), EndRef{}); st != OK {
				t.Errorf("Send: %v", st)
			}
			d := a.Wait(p)
			if d.Status != OK || d.Dir != SendDir || d.Length != 5 {
				t.Errorf("send completion: %+v", d)
			}
		})
		env.Spawn("receiver", func(p *sim.Proc) {
			if st := b.Receive(p, e2, 100); st != OK {
				t.Errorf("Receive: %v", st)
			}
			d := b.Wait(p)
			if d.Status != OK || d.Dir != RecvDir {
				t.Errorf("recv completion: %+v", d)
			}
			if !bytes.Equal(d.Data, []byte("hello")) {
				t.Errorf("data %q", d.Data)
			}
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MKernelMessages) != 1 {
		t.Fatalf("messages = %d", k.Obs().Metrics().Value(obs.MKernelMessages))
	}
}

// giveEnd transfers an end between processes out of band (test setup).
func giveEnd(k *Kernel, e EndRef, from, to *Process) {
	delete(from.ends, e)
	k.groups[0].links[e.link].ends[e.side].owner = to
	to.ends[e] = true
}

func TestOneOutstandingActivityPerDirection(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("a", func(p *sim.Proc) {
		e1, _, _ := a.MakeLink(p)
		if st := a.Send(p, e1, []byte("x"), EndRef{}); st != OK {
			t.Errorf("first Send: %v", st)
		}
		if st := a.Send(p, e1, []byte("y"), EndRef{}); st != Busy {
			t.Errorf("second Send: %v, want Busy", st)
		}
		if st := a.Receive(p, e1, 10); st != OK {
			t.Errorf("first Receive: %v", st)
		}
		if st := a.Receive(p, e1, 10); st != Busy {
			t.Errorf("second Receive: %v, want Busy", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelUnmatchedSucceeds(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("a", func(p *sim.Proc) {
		e1, _, _ := a.MakeLink(p)
		a.Receive(p, e1, 10)
		if st := a.Cancel(p, e1, RecvDir); st != OK {
			t.Errorf("Cancel: %v", st)
		}
		if st := a.Cancel(p, e1, RecvDir); st != NoActivity {
			t.Errorf("second Cancel: %v, want NoActivity", st)
		}
		// Slot must be reusable.
		if st := a.Receive(p, e1, 10); st != OK {
			t.Errorf("Receive after cancel: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelMatchedFails(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		b.Receive(p, e2, 100)
		a.Send(p, e1, []byte("data"), EndRef{})
		// Matched immediately: the receive is now uncancellable — this is
		// exactly the paper's "If B has requested an operation in the
		// meantime, the Cancel will fail" scenario.
		if st := b.Cancel(p, e2, RecvDir); st != CancelFailed {
			t.Errorf("Cancel matched recv: %v, want CancelFailed", st)
		}
		// Completion still arrives.
		d := b.Wait(p)
		if d.Status != OK || string(d.Data) != "data" {
			t.Errorf("completion after failed cancel: %+v", d)
		}
		a.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEnclosureMovesOwnership(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		// A second link whose end we will move.
		m1, m2, _ := a.MakeLink(p)
		b.Receive(p, e2, 100)
		if st := a.Send(p, e1, []byte("take this"), m2); st != OK {
			t.Errorf("Send with enclosure: %v", st)
		}
		d := b.Wait(p)
		if d.Enclosure != m2 {
			t.Errorf("enclosure = %v, want %v", d.Enclosure, m2)
		}
		if !b.Owns(m2) || a.Owns(m2) {
			t.Error("ownership did not move")
		}
		if !a.Owns(m1) {
			t.Error("fixed end moved")
		}
		a.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MEnclosureMoves) != 1 {
		t.Fatalf("enclosures = %d", k.Obs().Metrics().Value(obs.MEnclosureMoves))
	}
}

func TestEnclosureRules(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("a", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		m1, _, _ := a.MakeLink(p)
		// Cannot enclose an end of the link the message is sent on.
		if st := a.Send(p, e1, nil, e2); st != EnclosureSelf {
			t.Errorf("enclose own link: %v, want EnclosureSelf", st)
		}
		// Cannot enclose an end with an outstanding activity.
		a.Receive(p, m1, 10)
		if st := a.Send(p, e1, nil, m1); st != EnclosureBusy {
			t.Errorf("enclose busy end: %v, want EnclosureBusy", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMovingEndUnusable(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		_, m2, _ := a.MakeLink(p)
		a.Send(p, e1, nil, m2) // m2 now moving (unmatched: b hasn't received)
		if st := a.Send(p, m2, []byte("x"), EndRef{}); st != Moving {
			t.Errorf("Send on moving end: %v, want Moving", st)
		}
		if st := a.Receive(p, m2, 10); st != Moving {
			t.Errorf("Receive on moving end: %v, want Moving", st)
		}
		// Cancel the enclosing send: the move is off, end usable again.
		if st := a.Cancel(p, e1, SendDir); st != OK {
			t.Errorf("Cancel: %v", st)
		}
		if st := a.Receive(p, m2, 10); st != OK {
			t.Errorf("Receive after cancelled move: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyCompletesActivities(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		b.Receive(p, e2, 100)
		if st := a.Destroy(p, e1); st != OK {
			t.Errorf("Destroy: %v", st)
		}
		d := b.Wait(p)
		if d.Status != Destroyed {
			t.Errorf("b completion: %+v, want Destroyed", d)
		}
		// Further use fails immediately.
		if st := b.Send(p, e2, nil, EndRef{}); st != Destroyed {
			t.Errorf("Send on destroyed: %v", st)
		}
		if st := a.Send(p, e1, nil, EndRef{}); st != Destroyed {
			t.Errorf("Send on own destroyed: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnsolicitedDestroyNotice(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		a.Destroy(p, e1)
		// b had nothing posted; it must still learn of the destruction.
		d := b.Wait(p)
		if d.Status != Destroyed || d.End != e2 {
			t.Errorf("unsolicited notice: %+v", d)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessTerminationDestroysLinks(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		f1, f2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		giveEnd(k, f2, a, b)
		_ = e1
		_ = f1
		a.Terminate()
		// b learns that both its ends died.
		seen := map[EndRef]bool{}
		d1 := b.Wait(p)
		d2 := b.Wait(p)
		seen[d1.End] = d1.Status == Destroyed
		seen[d2.End] = d2.Status == Destroyed
		if !seen[e2] || !seen[f2] {
			t.Errorf("termination notices: %+v %+v", d1, d2)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MLinkDestroys) != 2 {
		t.Fatalf("destroys = %d", k.Obs().Metrics().Value(obs.MLinkDestroys))
	}
}

func TestTruncationStatus(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		b.Receive(p, e2, 3)
		a.Send(p, e1, []byte("0123456789"), EndRef{})
		d := b.Wait(p)
		if d.Status != Truncated || d.Length != 3 || string(d.Data) != "012" {
			t.Errorf("truncated completion: %+v", d)
		}
		a.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendBeforeReceiveRendezvous(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		// Send first; no receive posted. Nothing should be delivered.
		a.Send(p, e1, []byte("early"), EndRef{})
		p.Delay(200 * sim.Millisecond)
		if b.PendingCompletions() != 0 {
			t.Error("message delivered without a posted receive")
		}
		b.Receive(p, e2, 100)
		d := b.Wait(p)
		if string(d.Data) != "early" {
			t.Errorf("data %q", d.Data)
		}
		a.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// The paper's figure-1 situation at kernel level: both ends of a link
// enclosed simultaneously in messages travelling on two other links.
func TestSimultaneousBothEndsMove(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	c := k.NewProcess(2)
	d := k.NewProcess(3)
	env.Spawn("setup", func(p *sim.Proc) {
		// link1: A-B, link2: D-C, link3: A-D.
		l1a, l1b, _ := a.MakeLink(p)
		giveEnd(k, l1b, a, b)
		l2d, l2c, _ := a.MakeLink(p)
		giveEnd(k, l2d, a, d)
		giveEnd(k, l2c, a, c)
		l3a, l3d, _ := a.MakeLink(p)
		giveEnd(k, l3d, a, d)

		env.Spawn("b", func(p *sim.Proc) {
			b.Receive(p, l1b, 10)
			desc := b.Wait(p)
			if desc.Enclosure != l3a || !b.Owns(l3a) {
				t.Errorf("b did not get l3a: %+v", desc)
			}
		})
		env.Spawn("c", func(p *sim.Proc) {
			c.Receive(p, l2c, 10)
			desc := c.Wait(p)
			if desc.Enclosure != l3d || !c.Owns(l3d) {
				t.Errorf("c did not get l3d: %+v", desc)
			}
		})
		env.Spawn("a2", func(p *sim.Proc) {
			if st := a.Send(p, l1a, nil, l3a); st != OK {
				t.Errorf("a send: %v", st)
			}
			a.Wait(p)
		})
		env.Spawn("d2", func(p *sim.Proc) {
			if st := d.Send(p, l2d, nil, l3d); st != OK {
				t.Errorf("d send: %v", st)
			}
			d.Wait(p)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// After both moves: link3 connects B and C.
	l3 := k.groups[0].links[3]
	owners := map[int]bool{l3.ends[0].owner.ID(): true, l3.ends[1].owner.ID(): true}
	if !owners[b.ID()] || !owners[c.ID()] {
		t.Fatalf("link3 owners: %v and %v, want B and C",
			l3.ends[0].owner.ID(), l3.ends[1].owner.ID())
	}
}

func TestKernelCallsCharged(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	var elapsed sim.Duration
	env.Spawn("a", func(p *sim.Proc) {
		start := p.Now()
		a.MakeLink(p)
		elapsed = sim.Duration(p.Now() - start)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != calib.DefaultCharlotte().KernelCall {
		t.Fatalf("MakeLink charged %v, want %v", elapsed, calib.DefaultCharlotte().KernelCall)
	}
}

func TestRoundTripLatencyCalibration(t *testing.T) {
	// A raw-kernel round trip (request + reply, no payload) should land
	// near the paper's 55 ms C-program figure.
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	var rtt sim.Duration
	env.Spawn("setup", func(p *sim.Proc) {
		e1, e2, _ := a.MakeLink(p)
		giveEnd(k, e2, a, b)
		env.Spawn("server", func(p *sim.Proc) {
			b.Receive(p, e2, 1000)
			b.Wait(p)
			b.Send(p, e2, nil, EndRef{})
			b.Wait(p)
		})
		env.Spawn("client", func(p *sim.Proc) {
			start := p.Now()
			a.Receive(p, e1, 1000) // reply receive posted up front
			a.Send(p, e1, nil, EndRef{})
			a.Wait(p) // send completion
			a.Wait(p) // reply arrival
			rtt = sim.Duration(p.Now() - start)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ms := rtt.Milliseconds()
	if ms < 50 || ms > 60 {
		t.Fatalf("raw kernel RTT = %.2f ms, want ≈ 55 ms", ms)
	}
}
