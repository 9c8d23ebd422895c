package soda

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/calib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newTestKernel() (*sim.Env, *Kernel) {
	env := sim.NewEnv(1)
	bus := netsim.NewCSMABus(env.Rand().Fork())
	k := NewKernel(env, bus, calib.DefaultSODA())
	return env, k
}

func TestOOBRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= (1 << 48) - 1
		return OOBFromUint64(v).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOOBTruncatesTo48Bits(t *testing.T) {
	v := uint64(0xFFFF_FFFF_FFFF_FFFF)
	if got := OOBFromUint64(v).Uint64(); got != (1<<48)-1 {
		t.Fatalf("got %x", got)
	}
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		s, r int
		want Kind
	}{
		{0, 0, Signal}, {5, 0, Put}, {0, 5, Get}, {5, 5, Exchange},
	}
	for _, c := range cases {
		if got := KindOf(c.s, c.r); got != c.want {
			t.Errorf("KindOf(%d,%d) = %v, want %v", c.s, c.r, got, c.want)
		}
	}
}

func TestNamesUnique(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("a", func(p *sim.Proc) {
		seen := map[Name]bool{}
		for i := 0; i < 100; i++ {
			n := a.NewName(p)
			if seen[n] {
				t.Errorf("duplicate name %d", n)
			}
			seen[n] = true
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutRequestInterruptAccept(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	var gotReq, completion Interrupt
	reqSeen := sim.NewWaitQueue(env, "reqSeen")
	doneSeen := sim.NewWaitQueue(env, "doneSeen")

	env.Spawn("b", func(p *sim.Proc) {
		n := b.NewName(p)
		b.Advertise(p, n)
		b.SetHandler(func(ir Interrupt) {
			gotReq = ir
			reqSeen.Wake()
		})
		env.Spawn("a", func(pa *sim.Proc) {
			a.SetHandler(func(ir Interrupt) {
				completion = ir
				doneSeen.Wake()
			})
			if _, st := a.Request(pa, b.ID(), n, OOBFromUint64(7), []byte("payload"), 0); st != OK {
				t.Errorf("Request: %v", st)
			}
		})
		reqSeen.Wait(p)
		if gotReq.IKind != IntRequest || gotReq.ReqKind != Put || gotReq.SendBytes != 7 {
			t.Errorf("request interrupt: %+v", gotReq)
		}
		if gotReq.OOB.Uint64() != 7 {
			t.Errorf("oob = %d", gotReq.OOB.Uint64())
		}
		got, st := b.Accept(p, gotReq.Req, OOBFromUint64(9), nil, 100)
		if st != OK || !bytes.Equal(got, []byte("payload")) {
			t.Errorf("Accept: %v %q", st, got)
		}
		doneSeen.Wait(p)
		if completion.IKind != IntCompletion || completion.OOB.Uint64() != 9 || completion.Sent != 7 {
			t.Errorf("completion: %+v", completion)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MKernelRequests) != 1 || k.Obs().Metrics().Value(obs.MKernelAccepts) != 1 {
		t.Fatalf("requests = %d, accepts = %d", k.Obs().Metrics().Value(obs.MKernelRequests), k.Obs().Metrics().Value(obs.MKernelAccepts))
	}
}

func TestExchangeTransfersBothDirections(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	done := sim.NewWaitQueue(env, "done")
	var completion Interrupt
	n := Name(77)

	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
		b.SetHandler(func(ir Interrupt) {
			if ir.IKind != IntRequest {
				return
			}
			// Accept from handler context (nil proc): take 4 of the 10
			// offered bytes, send 6 back.
			got, st := b.Accept(nil, ir.Req, OOB{}, []byte("reply!"), 4)
			if st != OK || string(got) != "0123" {
				t.Errorf("Accept: %v %q", st, got)
			}
		})
	})
	env.Spawn("a", func(p *sim.Proc) {
		a.SetHandler(func(ir Interrupt) {
			completion = ir
			done.Wake()
		})
		p.Delay(sim.Millisecond) // let b advertise
		if _, st := a.Request(p, b.ID(), n, OOB{}, []byte("0123456789"), 100); st != OK {
			t.Errorf("Request: %v", st)
		}
		done.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if string(completion.Data) != "reply!" || completion.Sent != 4 {
		t.Fatalf("completion %+v", completion)
	}
}

func TestTransferSizesAreMinOfDeclared(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	done := sim.NewWaitQueue(env, "done")
	var completion Interrupt
	n := Name(5)

	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
		b.SetHandler(func(ir Interrupt) {
			if ir.IKind == IntRequest {
				// Accepter sends 10 bytes but requester only takes 3.
				b.Accept(nil, ir.Req, OOB{}, []byte("ABCDEFGHIJ"), 0)
			}
		})
	})
	env.Spawn("a", func(p *sim.Proc) {
		a.SetHandler(func(ir Interrupt) {
			completion = ir
			done.Wake()
		})
		p.Delay(sim.Millisecond)
		a.Request(p, b.ID(), n, OOB{}, nil, 3)
		done.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if string(completion.Data) != "ABC" {
		t.Fatalf("data %q", completion.Data)
	}
}

func TestRequestDelayedUntilAdvertised(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(9)
	var delivered []Interrupt

	env.Spawn("b", func(p *sim.Proc) {
		b.SetHandler(func(ir Interrupt) { delivered = append(delivered, ir) })
		p.Delay(100 * sim.Millisecond)
		if len(delivered) != 0 {
			t.Error("request delivered before advertisement")
		}
		b.Advertise(p, n)
		p.Delay(sim.Millisecond)
		if len(delivered) != 1 {
			t.Errorf("delivered = %d after advertise", len(delivered))
		}
	})
	env.Spawn("a", func(p *sim.Proc) {
		a.SetHandler(func(Interrupt) {})
		if _, st := a.Request(p, b.ID(), n, OOB{}, []byte("x"), 0); st != OK {
			t.Errorf("Request: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MKernelRetries) != 1 {
		t.Fatalf("retries = %d", k.Obs().Metrics().Value(obs.MKernelRetries))
	}
}

func TestInterruptsQueueWhileMasked(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(3)
	var got []Interrupt

	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
		b.SetHandler(func(ir Interrupt) { got = append(got, ir) })
		b.CloseHandler()
		p.Delay(200 * sim.Millisecond)
		if len(got) != 0 {
			t.Error("interrupt delivered while masked")
		}
		b.OpenHandler()
		if len(got) != 2 {
			t.Errorf("flushed %d interrupts, want 2", len(got))
		}
		// FIFO order preserved.
		if len(got) == 2 && got[0].OOB.Uint64() >= got[1].OOB.Uint64() {
			t.Errorf("interrupts out of order: %v %v", got[0].OOB.Uint64(), got[1].OOB.Uint64())
		}
	})
	env.Spawn("a", func(p *sim.Proc) {
		a.SetHandler(func(Interrupt) {})
		a.Request(p, b.ID(), n, OOBFromUint64(1), []byte("x"), 0)
		p.Delay(10 * sim.Millisecond)
		a.Request(p, b.ID(), n, OOBFromUint64(2), []byte("y"), 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverFindsAdvertiser(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(21)
	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
	})
	env.Spawn("a", func(p *sim.Proc) {
		p.Delay(sim.Millisecond)
		id, st := a.Discover(p, n)
		if st != OK || id != b.ID() {
			t.Errorf("Discover = %v, %v", id, st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverNotFound(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("a", func(p *sim.Proc) {
		start := p.Now()
		_, st := a.Discover(p, Name(999))
		if st != NotFound {
			t.Errorf("Discover: %v", st)
		}
		if sim.Duration(p.Now()-start) < calib.DefaultSODA().DiscoverTimeout {
			t.Error("failed discover returned before timeout")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashInterruptOnTargetDeath(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(4)
	done := sim.NewWaitQueue(env, "done")
	var crash Interrupt

	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
		p.Delay(50 * sim.Millisecond)
		b.Terminate()
	})
	env.Spawn("a", func(p *sim.Proc) {
		a.SetHandler(func(ir Interrupt) {
			crash = ir
			done.Wake()
		})
		p.Delay(sim.Millisecond)
		a.Request(p, b.ID(), n, OOB{}, []byte("x"), 0)
		done.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if crash.IKind != IntCrash || crash.From != b.ID() {
		t.Fatalf("crash interrupt %+v", crash)
	}
}

func TestRequestToDeadProcess(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("a", func(p *sim.Proc) {
		b.Terminate()
		if _, st := a.Request(p, b.ID(), Name(1), OOB{}, nil, 0); st != DeadProc {
			t.Errorf("Request to dead: %v", st)
		}
		if _, st := a.Request(p, ProcID(99), Name(1), OOB{}, nil, 0); st != NoSuchProc {
			t.Errorf("Request to unknown: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPairLimit(t *testing.T) {
	env, k := newTestKernel()
	k.PairLimit = 3
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("a", func(p *sim.Proc) {
		a.SetHandler(func(Interrupt) {})
		for i := 0; i < 3; i++ {
			if _, st := a.Request(p, b.ID(), Name(1), OOB{}, nil, 0); st != OK {
				t.Fatalf("request %d: %v", i, st)
			}
		}
		if _, st := a.Request(p, b.ID(), Name(1), OOB{}, nil, 0); st != TooManyRequests {
			t.Errorf("4th request: %v, want TooManyRequests", st)
		}
		if a.OutstandingTo(b.ID()) != 3 {
			t.Errorf("outstanding = %d", a.OutstandingTo(b.ID()))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptUnknownRequest(t *testing.T) {
	env, k := newTestKernel()
	b := k.NewProcess(0)
	env.Spawn("b", func(p *sim.Proc) {
		if _, st := b.Accept(p, ReqID(42), OOB{}, nil, 0); st != NoSuchRequest {
			t.Errorf("Accept: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleAcceptFails(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(8)
	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
		var req ReqID
		seen := sim.NewWaitQueue(env, "seen")
		b.SetHandler(func(ir Interrupt) {
			req = ir.Req
			seen.Wake()
		})
		env.Spawn("a", func(pa *sim.Proc) {
			a.SetHandler(func(Interrupt) {})
			a.Request(pa, b.ID(), n, OOB{}, []byte("x"), 0)
		})
		seen.Wait(p)
		if _, st := b.Accept(p, req, OOB{}, nil, 10); st != OK {
			t.Errorf("first accept: %v", st)
		}
		if _, st := b.Accept(p, req, OOB{}, nil, 10); st != NoSuchRequest {
			t.Errorf("second accept: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveIDs(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	c := k.NewProcess(2)
	env.Spawn("x", func(p *sim.Proc) {
		ids := a.LiveIDs()
		if len(ids) != 3 {
			t.Fatalf("live = %v", ids)
		}
		b.Terminate()
		ids = a.LiveIDs()
		if len(ids) != 2 || ids[0] != a.ID() || ids[1] != c.ID() {
			t.Fatalf("live after kill = %v", ids)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallMessageRTTCalibration(t *testing.T) {
	// A LYNX-style round trip at kernel level is: request put (server
	// accepts, no data back) + server's reply put (client accepts). The
	// paper says SODA small-message RTT ≈ Charlotte/3 ≈ 18 ms.
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(1)
	rn := Name(2)
	var rtt sim.Duration

	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
		b.SetHandler(func(ir Interrupt) {
			switch ir.IKind {
			case IntRequest:
				b.Accept(nil, ir.Req, OOB{}, nil, 64)
				// Reply: put back to the client.
				b.Request(nil, ir.From, rn, OOB{}, nil, 0)
			case IntCompletion:
				// Client accepted the reply; nothing to do.
			}
		})
	})
	env.Spawn("a", func(p *sim.Proc) {
		done := sim.NewWaitQueue(env, "rtt")
		a.Advertise(p, rn)
		a.SetHandler(func(ir Interrupt) {
			if ir.IKind == IntRequest && ir.Name == rn {
				a.Accept(nil, ir.Req, OOB{}, nil, 0)
				done.Wake()
			}
		})
		p.Delay(sim.Millisecond)
		start := p.Now()
		a.Request(p, b.ID(), n, OOB{}, nil, 0)
		done.Wait(p)
		rtt = sim.Duration(p.Now() - start)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ms := rtt.Milliseconds()
	if ms < 13 || ms > 24 {
		t.Fatalf("SODA small RTT = %.2f ms, want ≈ 18 ms", ms)
	}
}

func TestTerminateIdempotent(t *testing.T) {
	env, k := newTestKernel()
	b := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		b.Terminate()
		b.Terminate()
		if !b.Dead() {
			t.Error("not dead")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
