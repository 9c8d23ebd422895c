package core_test

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/bind/ideal"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/sim"
)

// rig is a two-process test rig over the ideal fabric. The link between
// them is created by procA and one end shipped to procB out of band via
// the fabric (MakeLink then hand-carry), modeling initial configuration.
type rig struct {
	env    *sim.Env
	fabric *ideal.Fabric
}

func newRig() *rig {
	env := sim.NewEnv(1)
	return &rig{env: env, fabric: ideal.NewFabric(env, sim.Millisecond, sim.Microsecond)}
}

func cheapCosts() calib.LynxRuntimeCosts {
	return calib.LynxRuntimeCosts{
		PerOperation: 10 * sim.Microsecond,
		PerByte:      10 * sim.Nanosecond,
		PerEnclosure: sim.Microsecond,
	}
}

// spawnPair starts two LYNX processes already joined by a link; mainA
// gets the A end, mainB the B end.
func (r *rig) spawnPair(mainA func(*core.Thread, *core.End), mainB func(*core.Thread, *core.End)) {
	trA := r.fabric.NewTransport("A")
	trB := r.fabric.NewTransport("B")
	// Create the link inside A's transport, then move end b's ownership
	// to B's transport before either process starts (boot-time wiring).
	ta, tb, err := trA.MakeLink()
	if err != nil {
		panic(err)
	}
	r.handCarry(trA, trB, tb)
	endCh := make(chan struct{}) // no concurrency: processes start after wiring
	_ = endCh
	core.NewProcess(r.env, "A", trA, cheapCosts(), func(t *core.Thread) {
		mainA(t, t.AdoptBootEnd(ta))
	})
	core.NewProcess(r.env, "B", trB, cheapCosts(), func(t *core.Thread) {
		mainB(t, t.AdoptBootEnd(tb))
	})
}

// handCarry moves a transport end between transports before processes
// run (test wiring only).
func (r *rig) handCarry(from, to *ideal.Transport, te core.TransEnd) {
	ideal.MoveOwnership(r.fabric, from, to, te.(ideal.EndID))
}

func TestSimpleRPC(t *testing.T) {
	r := newRig()
	var served, replied bool
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			reply, err := th.Connect(e, "double", core.Msg{Data: []byte{21}})
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			if len(reply.Data) != 1 || reply.Data[0] != 42 {
				t.Errorf("reply data %v", reply.Data)
			}
			if reply.Op() != "double" {
				t.Errorf("reply op %q", reply.Op())
			}
			replied = true
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("Receive: %v", err)
				return
			}
			if req.Op() != "double" {
				t.Errorf("op %q", req.Op())
			}
			served = true
			if err := th.Reply(req, core.Msg{Data: []byte{req.Data()[0] * 2}}); err != nil {
				t.Errorf("Reply: %v", err)
			}
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !served || !replied {
		t.Fatalf("served=%v replied=%v", served, replied)
	}
}

func TestServeHandlerSpawnsThreads(t *testing.T) {
	r := newRig()
	const n = 5
	got := 0
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			for i := 0; i < n; i++ {
				reply, err := th.Connect(e, "inc", core.Msg{Data: []byte{byte(i)}})
				if err != nil {
					t.Errorf("Connect %d: %v", i, err)
					return
				}
				if reply.Data[0] != byte(i+1) {
					t.Errorf("reply %d: %v", i, reply.Data)
				}
				got++
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Reply(req, core.Msg{Data: []byte{req.Data()[0] + 1}})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("got %d replies", got)
	}
}

func TestBlockedCoroutineDoesNotBlockProcess(t *testing.T) {
	// While one coroutine awaits a slow reply, other coroutines in the
	// same process must keep running (§2: "a blocked process waits...";
	// individual blocked threads release the processor).
	r := newRig()
	var workDone sim.Time
	var replyDone sim.Time
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			th.Fork("worker", func(t2 *core.Thread) {
				t2.Sleep(2 * sim.Millisecond)
				workDone = t2.Now()
			})
			if _, err := th.Connect(e, "slow", core.Msg{}); err != nil {
				t.Errorf("connect: %v", err)
			}
			replyDone = th.Now()
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(20 * sim.Millisecond) // slow server
				st.Reply(req, core.Msg{})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if workDone == 0 || replyDone == 0 {
		t.Fatalf("workDone=%v replyDone=%v", workDone, replyDone)
	}
	if workDone >= replyDone {
		t.Fatalf("worker (%v) was blocked behind the RPC (%v)", workDone, replyDone)
	}
}

func TestLinkMovesByEnclosure(t *testing.T) {
	// A creates a new link and sends one end to B inside a request; B
	// then serves an RPC on the moved link.
	r := newRig()
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			mine, theirs, err := th.NewLink()
			if err != nil {
				t.Errorf("NewLink: %v", err)
				return
			}
			if _, err := th.Connect(e, "take", core.Msg{Links: []*core.End{theirs}}); err != nil {
				t.Errorf("Connect take: %v", err)
				return
			}
			// Now RPC over the moved link.
			reply, err := th.Connect(mine, "ping", core.Msg{Data: []byte("hi")})
			if err != nil {
				t.Errorf("Connect ping: %v", err)
				return
			}
			if string(reply.Data) != "hi!" {
				t.Errorf("reply %q", reply.Data)
			}
			th.Destroy(mine)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("Receive: %v", err)
				return
			}
			if len(req.Links()) != 1 {
				t.Errorf("links %v", req.Links())
				return
			}
			moved := req.Links()[0]
			th.Serve(moved, func(st *core.Thread, r2 *core.Request) {
				st.Reply(r2, core.Msg{Data: append(r2.Data(), '!')})
			})
			th.Reply(req, core.Msg{})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveRuleUnreceivedMessages(t *testing.T) {
	// A link end with an in-flight (unreceived) request cannot be moved.
	r := newRig()
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			busy, farEnd, _ := th.NewLink()
			// Fire a request on `busy` from another thread; the far end
			// (farEnd) is ours but nobody ever receives: stays in flight.
			th.Fork("fire", func(t2 *core.Thread) {
				t2.Connect(busy, "nowhere", core.Msg{}) // blocks forever-ish
			})
			th.Yield() // let the fork start its send
			_, err := th.Connect(e, "take", core.Msg{Links: []*core.End{busy}})
			if !errors.Is(err, core.ErrMoveUnreceived) {
				t.Errorf("move busy end: %v, want ErrMoveUnreceived", err)
			}
			// Cleanup: destroy to unblock the forked thread.
			th.Destroy(farEnd)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Reply(req, core.Msg{})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveRuleOwedReply(t *testing.T) {
	// An end on which a request has been received but not replied cannot
	// be moved.
	r := newRig()
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			if _, err := th.Connect(e, "hold", core.Msg{}); err != nil {
				t.Errorf("Connect: %v", err)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("Receive: %v", err)
				return
			}
			// Owing a reply on e: moving e must fail.
			spare, spareFar, _ := th.NewLink()
			_ = spareFar
			err = func() error {
				// Try to enclose e in a message on spare... but spare's
				// far end is also ours; use a self-check instead: the
				// validation happens before any send.
				_, err := th.Connect(spare, "x", core.Msg{Links: []*core.End{e}})
				return err
			}()
			if !errors.Is(err, core.ErrMoveOwedReply) {
				t.Errorf("move owed end: %v, want ErrMoveOwedReply", err)
			}
			th.Reply(req, core.Msg{})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyRaisesExceptionAtPeer(t *testing.T) {
	r := newRig()
	var connErr error
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			_, connErr = th.Connect(e, "op", core.Msg{})
		},
		func(th *core.Thread, e *core.End) {
			th.Delay(5 * sim.Millisecond)
			th.Destroy(e)
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(connErr, core.ErrLinkDestroyed) {
		t.Fatalf("connect error = %v, want ErrLinkDestroyed", connErr)
	}
}

func TestCrashDestroysLinks(t *testing.T) {
	r := newRig()
	var connErr error
	var bProc *core.Process
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			_, connErr = th.Connect(e, "op", core.Msg{})
		},
		func(th *core.Thread, e *core.End) {
			bProc = th.Process()
			th.Delay(3 * sim.Millisecond)
			th.Process().Crash()
			// Crash kills the simproc at the next park; Delay parks.
			th.Delay(sim.Millisecond)
			t.Error("B survived crash")
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(connErr, core.ErrLinkDestroyed) {
		t.Fatalf("connect error = %v, want ErrLinkDestroyed", connErr)
	}
	if !bProc.Dead() {
		t.Fatal("B not marked dead")
	}
}

func TestAbortBlockedConnector(t *testing.T) {
	// A coroutine blocked awaiting a reply is aborted; the late reply is
	// unwanted, and with the ideal transport the server feels
	// ErrUnwantedReply.
	r := newRig()
	var connErr, replyErr error
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			victim := th.Fork("victim", func(tv *core.Thread) {
				_, connErr = tv.Connect(e, "slow", core.Msg{})
			})
			th.Sleep(5 * sim.Millisecond) // request delivered, reply pending
			th.Abort(victim)
			th.Sleep(50 * sim.Millisecond) // let the reply bounce
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(10 * sim.Millisecond)
				replyErr = st.Reply(req, core.Msg{})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(connErr, core.ErrAborted) {
		t.Fatalf("connect error = %v, want ErrAborted", connErr)
	}
	if !errors.Is(replyErr, core.ErrUnwantedReply) {
		t.Fatalf("reply error = %v, want ErrUnwantedReply", replyErr)
	}
}

func TestExplicitOpenCloseRequests(t *testing.T) {
	r := newRig()
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			if _, err := th.Connect(e, "op", core.Msg{Data: []byte("x")}); err != nil {
				t.Errorf("Connect: %v", err)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.OpenRequests(e)
			// Request arrives while we compute; it queues.
			th.Delay(20 * sim.Millisecond)
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("Receive: %v", err)
				return
			}
			th.Reply(req, core.Msg{})
			th.CloseRequests(e)
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRepliesMatchedBySeq(t *testing.T) {
	// Two coroutines issue different ops on the same link; the server
	// replies out of order; each coroutine must get its own reply.
	r := newRig()
	results := map[string]string{}
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			done := 0
			finish := func(t2 *core.Thread) {
				done++
				if done == 2 {
					t2.Destroy(e)
				}
			}
			th.Fork("fast", func(t2 *core.Thread) {
				rep, err := t2.Connect(e, "fast", core.Msg{})
				if err == nil {
					results["fast"] = string(rep.Data)
				}
				finish(t2)
			})
			rep, err := th.Connect(e, "slow", core.Msg{})
			if err == nil {
				results["slow"] = string(rep.Data)
			}
			finish(th)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				if req.Op() == "slow" {
					st.Sleep(20 * sim.Millisecond)
				}
				st.Reply(req, core.Msg{Data: []byte("reply-" + req.Op())})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if results["fast"] != "reply-fast" || results["slow"] != "reply-slow" {
		t.Fatalf("results %v", results)
	}
}

func TestStopAndWaitOrdering(t *testing.T) {
	// Multiple requests from separate coroutines on one end are received
	// in the order sent (queue FIFO).
	r := newRig()
	var order []string
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			done := 0
			for i := 0; i < 3; i++ {
				name := fmt.Sprint("c", i)
				th.Fork(name, func(t2 *core.Thread) {
					t2.Connect(e, name, core.Msg{})
					done++
					if done == 3 {
						t2.Destroy(e)
					}
				})
			}
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				order = append(order, req.Op())
				st.Reply(req, core.Msg{})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[c0 c1 c2]" {
		t.Fatalf("order %v", order)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(op string, seq uint64, data []byte, kindSel bool) bool {
		if len(op) > 200 {
			op = op[:200]
		}
		kind := core.KindRequest
		if kindSel {
			kind = core.KindReply
		}
		m := &core.WireMsg{Kind: kind, Op: op, Seq: seq, Data: data}
		buf, err := m.AppendEncoded(nil)
		if err != nil {
			return false
		}
		if len(buf) != m.EncodedLen() {
			return false
		}
		got, nencl, err := core.DecodeWire(buf)
		if err != nil || nencl != 0 {
			return false
		}
		return got.Kind == m.Kind && got.Op == m.Op && got.Seq == m.Seq &&
			string(got.Data) == string(m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWireDecodeRejectsCorrupt(t *testing.T) {
	m := &core.WireMsg{Kind: core.KindRequest, Op: "op", Data: []byte("data")}
	buf, _ := m.AppendEncoded(nil)
	if _, _, err := core.DecodeWire(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated message decoded")
	}
	if _, _, err := core.DecodeWire(nil); err == nil {
		t.Fatal("nil message decoded")
	}
	bad := append([]byte{}, buf...)
	bad[0] = 99
	if _, _, err := core.DecodeWire(bad); err == nil {
		t.Fatal("bad kind decoded")
	}
}

func TestEncodeLimits(t *testing.T) {
	long := make([]byte, 300)
	m := &core.WireMsg{Kind: core.KindRequest, Op: string(long)}
	if _, err := m.AppendEncoded(nil); err == nil {
		t.Fatal("overlong op encoded")
	}
}

func TestProcessExitsWhenIdle(t *testing.T) {
	r := newRig()
	env := r.env
	tr := r.fabric.NewTransport("solo")
	p := core.NewProcess(env, "solo", tr, cheapCosts(), func(t *core.Thread) {
		t.Delay(sim.Millisecond)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Dead() {
		t.Fatal("process did not exit")
	}
}

func TestForkJoinViaYield(t *testing.T) {
	r := newRig()
	tr := r.fabric.NewTransport("solo")
	var order []string
	core.NewProcess(r.env, "solo", tr, cheapCosts(), func(t *core.Thread) {
		order = append(order, "main1")
		t.Fork("child", func(c *core.Thread) {
			order = append(order, "child")
		})
		t.Yield()
		order = append(order, "main2")
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[main1 child main2]" {
		t.Fatalf("order %v", order)
	}
}
