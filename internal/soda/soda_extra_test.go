package soda

import (
	"testing"

	"repro/internal/calib"
	"repro/internal/sim"
)

// Additional SODA kernel tests: Withdraw, RequestDelivered, DataDelay,
// get-style requests, advertisement lifecycle.

func TestWithdrawUnaccepted(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(5)
	env.Spawn("x", func(p *sim.Proc) {
		b.SetHandler(func(Interrupt) {})
		a.SetHandler(func(Interrupt) {})
		id, st := a.Request(p, b.ID(), n, OOB{}, []byte("x"), 0)
		if st != OK {
			t.Fatalf("Request: %v", st)
		}
		if st := a.Withdraw(p, id); st != OK {
			t.Fatalf("Withdraw: %v", st)
		}
		// Withdrawn requests cannot be accepted, even if the name is
		// advertised later.
		b.Advertise(p, n)
		p.Delay(50 * sim.Millisecond)
		if len(inboundRequests(b)) != 0 {
			t.Fatal("withdrawn request still inbound")
		}
		if _, st := b.Accept(p, id, OOB{}, nil, 10); st != NoSuchRequest {
			t.Fatalf("Accept withdrawn: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWithdrawAcceptedFails(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(6)
	env.Spawn("x", func(p *sim.Proc) {
		b.Advertise(p, n)
		var req ReqID
		seen := sim.NewWaitQueue(env, "seen")
		b.SetHandler(func(ir Interrupt) {
			req = ir.Req
			seen.Wake()
		})
		a.SetHandler(func(Interrupt) {})
		id, _ := a.Request(p, b.ID(), n, OOB{}, []byte("x"), 0)
		seen.Wait(p)
		b.Accept(p, req, OOB{}, nil, 10)
		if st := a.Withdraw(p, id); st != NoSuchRequest {
			t.Fatalf("Withdraw after accept: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestDelivered(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(7)
	env.Spawn("x", func(p *sim.Proc) {
		b.SetHandler(func(Interrupt) {})
		a.SetHandler(func(Interrupt) {})
		// Unadvertised: posted but undelivered.
		id, _ := a.Request(p, b.ID(), n, OOB{}, []byte("x"), 0)
		p.Delay(50 * sim.Millisecond)
		if a.RequestDelivered(id) {
			t.Fatal("undelivered request reported delivered")
		}
		b.Advertise(p, n)
		p.Delay(sim.Millisecond)
		if !a.RequestDelivered(id) {
			t.Fatal("delivered request not reported")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDataDelayScalesWithSize(t *testing.T) {
	_, k := newTestKernel()
	d1 := k.DataDelay(100)
	d2 := k.DataDelay(200)
	if d2 != 2*d1 || d1 <= 0 {
		t.Fatalf("DataDelay(100)=%v DataDelay(200)=%v", d1, d2)
	}
	// ≈13 µs/B at the calibrated rates (5 kernel + 8 wire).
	perByte := float64(d1) / 100
	if perByte < 12000 || perByte > 14000 {
		t.Fatalf("per-byte delay = %.0f ns", perByte)
	}
	_ = calib.DefaultSODA()
}

func TestGetStyleRequest(t *testing.T) {
	// A pure get: the requester sends nothing, receives the accepter's
	// data.
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(8)
	done := sim.NewWaitQueue(env, "done")
	var completion Interrupt
	env.Spawn("b", func(p *sim.Proc) {
		b.Advertise(p, n)
		b.SetHandler(func(ir Interrupt) {
			if ir.IKind == IntRequest {
				if ir.ReqKind != Get {
					t.Errorf("kind = %v, want get", ir.ReqKind)
				}
				b.Accept(nil, ir.Req, OOB{}, []byte("served-data"), 0)
			}
		})
	})
	env.Spawn("a", func(p *sim.Proc) {
		a.SetHandler(func(ir Interrupt) {
			completion = ir
			done.Wake()
		})
		p.Delay(sim.Millisecond)
		a.Request(p, b.ID(), n, OOB{}, nil, 64)
		done.Wait(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if string(completion.Data) != "served-data" {
		t.Fatalf("got %q", completion.Data)
	}
}

func TestUnadvertiseStopsDelivery(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	n := Name(9)
	var got int
	env.Spawn("x", func(p *sim.Proc) {
		b.Advertise(p, n)
		b.SetHandler(func(ir Interrupt) { got++ })
		a.SetHandler(func(Interrupt) {})
		a.Request(p, b.ID(), n, OOB{}, []byte("1"), 0)
		p.Delay(20 * sim.Millisecond)
		if got != 1 {
			t.Fatalf("first request: got=%d", got)
		}
		b.Unadvertise(p, n)
		a.Request(p, b.ID(), n, OOB{}, []byte("2"), 0)
		p.Delay(50 * sim.Millisecond)
		if got != 1 {
			t.Fatalf("after unadvertise: got=%d", got)
		}
		if !b.Advertises(n) == false && got != 1 {
			t.Fail()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInterruptKindStrings(t *testing.T) {
	if IntRequest.String() != "request" || IntCompletion.String() != "completion" || IntCrash.String() != "crash" {
		t.Error("interrupt kind strings")
	}
	for st := OK; st <= NotFound; st++ {
		if st.String() == "" {
			t.Errorf("status %d unnamed", st)
		}
	}
	for _, kd := range []Kind{Signal, Put, Get, Exchange} {
		if kd.String() == "" {
			t.Errorf("kind %d unnamed", kd)
		}
	}
}

// inboundRequests returns the ids of pr's delivered, unaccepted inbound
// requests, in arrival order.
func inboundRequests(pr *Process) []ReqID {
	var ids []ReqID
	for _, r := range pr.inbound {
		if r.delivered && !r.accepted {
			ids = append(ids, r.id)
		}
	}
	return ids
}
