package soda

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// A warm Request/Accept round trip allocates one object: the kernel's
// copy of the payload, which becomes the accepter's data. Request
// records come from the group's free list and make their two frame
// callbacks once.
func TestWarmRoundTripAllocatesOnlyTheCopy(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	var req ReqID
	var arrived, completed bool
	b.SetHandler(func(ir Interrupt) {
		if ir.IKind == IntRequest {
			req, arrived = ir.Req, true
		}
	})
	a.SetHandler(func(ir Interrupt) {
		if ir.IKind == IntCompletion {
			completed = true
		}
	})
	data := make([]byte, 64)
	var allocs float64
	env.Spawn("roundtrips", func(p *sim.Proc) {
		n := b.NewName(p)
		b.Advertise(p, n)
		round := func() {
			arrived, completed = false, false
			if _, st := a.Request(p, b.ID(), n, OOB{}, data, 0); st != OK {
				t.Errorf("Request: %v", st)
			}
			for !arrived {
				p.Delay(sim.Millisecond)
			}
			if got, st := b.Accept(p, req, OOB{}, nil, len(data)); st != OK || len(got) != len(data) {
				t.Errorf("Accept: %v, %d bytes", st, len(got))
			}
			for !completed {
				p.Delay(sim.Millisecond)
			}
		}
		allocs = testing.AllocsPerRun(1000, round)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("warm round trip: %v allocations, want 1 (the payload copy)", allocs)
	}
}

// A request withdrawn while its descriptor is still on the bus keeps
// its record until the frame lands: the next request gets another
// record, and the stale frame delivers nothing.
func TestWithdrawnOnBusNotReused(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	var seen []Interrupt
	b.SetHandler(func(ir Interrupt) { seen = append(seen, ir) })
	env.Spawn("a", func(p *sim.Proc) {
		n := b.NewName(p)
		b.Advertise(p, n)
		first, _ := a.Request(p, b.ID(), n, OOB{1}, []byte("first"), 0)
		if st := a.RequestState(first); st != ReqInFlight {
			t.Fatalf("first request state %v, want in flight", st)
		}
		if st := a.Withdraw(p, first); st != OK {
			t.Fatalf("Withdraw: %v", st)
		}
		second, _ := a.Request(p, b.ID(), n, OOB{2}, []byte("second"), 0)
		p.Delay(100 * sim.Millisecond)
		if len(seen) != 1 {
			t.Fatalf("target saw %d request interrupts, want 1: %+v", len(seen), seen)
		}
		if ir := seen[0]; ir.Req != second || ir.OOB != (OOB{2}) || ir.SendBytes != len("second") {
			t.Fatalf("target saw %+v, want the second request (%d)", ir, second)
		}
		if got, st := b.Accept(p, second, OOB{}, nil, 64); st != OK || !bytes.Equal(got, []byte("second")) {
			t.Fatalf("Accept second: %v %q", st, got)
		}
		if _, st := b.Accept(p, first, OOB{}, nil, 64); st != NoSuchRequest {
			t.Fatalf("Accept withdrawn: %v, want NoSuchRequest", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// A crashed requester's unaccepted request stays in its target's
// inbound table: the target still feels it once it advertises the name,
// and accepting it reports DeadProc. Requests posted after the crash
// get records of their own.
func TestDeadRequesterRequestStillArrives(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	c := k.NewProcess(2)
	var seen []Interrupt
	b.SetHandler(func(ir Interrupt) { seen = append(seen, ir) })
	env.Spawn("requesters", func(p *sim.Proc) {
		parked, open := Name(40), Name(41)
		b.Advertise(p, open)
		orphan, _ := a.Request(p, b.ID(), parked, OOB{7}, []byte("orphan"), 0)
		a.Terminate()
		var later []ReqID
		for i := 0; i < 4; i++ {
			id, st := c.Request(p, b.ID(), open, OOB{8}, []byte("later"), 0)
			if st != OK {
				t.Fatalf("Request from c: %v", st)
			}
			later = append(later, id)
		}
		p.Delay(100 * sim.Millisecond)
		for _, id := range later {
			if _, st := b.Accept(p, id, OOB{}, nil, 64); st != OK {
				t.Fatalf("Accept %d: %v", id, st)
			}
		}
		p.Delay(100 * sim.Millisecond)
		seen = seen[:0]
		b.Advertise(p, parked)
		if len(seen) != 1 {
			t.Fatalf("target saw %d request interrupts on advertise, want 1: %+v", len(seen), seen)
		}
		if ir := seen[0]; ir.Req != orphan || ir.From != a.ID() || ir.Name != parked || ir.OOB != (OOB{7}) || ir.SendBytes != len("orphan") {
			t.Fatalf("target saw %+v, want the dead requester's request %d", ir, orphan)
		}
		if _, st := b.Accept(p, orphan, OOB{}, nil, 64); st != DeadProc {
			t.Fatalf("Accept from dead requester: %v, want DeadProc", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
