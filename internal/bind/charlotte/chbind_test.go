package chbind_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bind/bindtest"
	chbind "repro/internal/bind/charlotte"
	"repro/internal/calib"
	"repro/internal/charlotte"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// count reads the binding's per-process counter name from the obs
// registry.
func count(tr *chbind.Transport, name string) int64 {
	return tr.Obs().Metrics().ProcValue(name, tr.KernelProcess().ID())
}

// rig assembles a Charlotte kernel plus two LYNX processes joined by a
// boot link.
type rig struct {
	env    *sim.Env
	kernel *charlotte.Kernel
	trA    *chbind.Transport
	trB    *chbind.Transport
}

func newRig() (*rig, charlotte.EndRef, charlotte.EndRef) {
	env := sim.NewEnv(1)
	net := netsim.NewTokenRing(20)
	k := charlotte.NewKernel(env, net, calib.DefaultCharlotte())
	kpA := k.NewProcess(0)
	kpB := k.NewProcess(1)
	ea, eb := k.BootLink(kpA, kpB)
	r := &rig{
		env:    env,
		kernel: k,
		trA:    chbind.New(kpA),
		trB:    chbind.New(kpB),
	}
	return r, ea, eb
}

// newPair builds the rig and both processes in one call.
func newPair(t *testing.T, mainA, mainB func(*core.Thread, *core.End)) (*rig, *core.Process, *core.Process) {
	return newPairVia(func(tr core.Transport) core.Transport { return tr }, mainA, mainB)
}

// newPairVia is newPair with each transport handed to core through wrap.
func newPairVia(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) (*rig, *core.Process, *core.Process) {
	r, ea, eb := newRig()
	costs := calib.DefaultCharlotteRuntime()
	pa := core.NewProcess(r.env, "A", wrap(r.trA), costs, func(th *core.Thread) {
		mainA(th, th.AdoptBootEnd(r.trA.AdoptBootEnd(ea)))
	})
	pb := core.NewProcess(r.env, "B", wrap(r.trB), costs, func(th *core.Thread) {
		mainB(th, th.AdoptBootEnd(r.trB.AdoptBootEnd(eb)))
	})
	return r, pa, pb
}

func TestCharlotteSendFate(t *testing.T) {
	var r *rig
	bindtest.CheckSendFate(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		r, _, _ = newPairVia(wrap, mainA, mainB)
		return r.env
	}, false)
	// The check's last run is the unwanted reply: A discards it.
	if n := count(r.trA, obs.MDroppedReplies); n != 1 {
		t.Errorf("A dropped %d replies, want the unwanted one", n)
	}
}

func TestCharlotteCancel(t *testing.T) {
	recalled, tooLate := bindtest.CheckCancel(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		r, _, _ := newPairVia(wrap, mainA, mainB)
		return r.env
	})
	if recalled == 0 || tooLate == 0 {
		t.Errorf("%d cancels recalled, %d too late: want both answers driven", recalled, tooLate)
	}
}

func TestCharlotteSimpleRPC(t *testing.T) {
	var rtt sim.Duration
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			start := th.Now()
			reply, err := th.Connect(e, "echo", core.Msg{Data: []byte("ping")})
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			rtt = sim.Duration(th.Now() - start)
			if string(reply.Data) != "ping" {
				t.Errorf("reply %q", reply.Data)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Reply(req, core.Msg{Data: req.Data()})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	ms := rtt.Milliseconds()
	// Paper: simple remote operation ≈ 57 ms under LYNX on Charlotte.
	if ms < 50 || ms > 64 {
		t.Fatalf("LYNX/Charlotte RTT = %.2f ms, want ≈ 57 ms", ms)
	}
}

func TestCharlottePayloadSlope(t *testing.T) {
	// 1000 bytes each way should land near the paper's 65 ms.
	var rtt sim.Duration
	payload := make([]byte, 1000)
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			start := th.Now()
			if _, err := th.Connect(e, "echo", core.Msg{Data: payload}); err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			rtt = sim.Duration(th.Now() - start)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Reply(req, core.Msg{Data: req.Data()})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	ms := rtt.Milliseconds()
	if ms < 58 || ms > 72 {
		t.Fatalf("LYNX/Charlotte 1000B RTT = %.2f ms, want ≈ 65 ms", ms)
	}
}

func TestCharlotteSingleEnclosureMove(t *testing.T) {
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			mine, theirs, err := th.NewLink()
			if err != nil {
				t.Errorf("NewLink: %v", err)
				return
			}
			if _, err := th.Connect(e, "take", core.Msg{Links: []*core.End{theirs}}); err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			reply, err := th.Connect(mine, "over-moved", core.Msg{Data: []byte("x")})
			if err != nil {
				t.Errorf("Connect over moved link: %v", err)
				return
			}
			if string(reply.Data) != "x!" {
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
				t.Errorf("enclosures: %d", len(req.Links()))
				return
			}
			th.Serve(req.Links()[0], func(st *core.Thread, r2 *core.Request) {
				st.Reply(r2, core.Msg{Data: append(r2.Data(), '!')})
			})
			th.Reply(req, core.Msg{})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCharlotteMultiEnclosureUsesGoaheadAndEnc(t *testing.T) {
	// Moving 3 ends in one request: first packet + goahead + 2 enc
	// packets (figure 2).
	const nLinks = 3
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			var keep, give []*core.End
			for i := 0; i < nLinks; i++ {
				m, tother, err := th.NewLink()
				if err != nil {
					t.Errorf("NewLink: %v", err)
					return
				}
				keep = append(keep, m)
				give = append(give, tother)
			}
			if _, err := th.Connect(e, "takeN", core.Msg{Links: give}); err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			// All three moved links must work.
			for i, m := range keep {
				reply, err := th.Connect(m, "ping", core.Msg{Data: []byte{byte(i)}})
				if err != nil {
					t.Errorf("link %d: %v", i, err)
					continue
				}
				if len(reply.Data) != 1 || reply.Data[0] != byte(i)+1 {
					t.Errorf("link %d reply %v", i, reply.Data)
				}
			}
			for _, m := range keep {
				th.Destroy(m)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("Receive: %v", err)
				return
			}
			if len(req.Links()) != nLinks {
				t.Errorf("got %d enclosures, want %d", len(req.Links()), nLinks)
			}
			for _, l := range req.Links() {
				th.Serve(l, func(st *core.Thread, r2 *core.Request) {
					st.Reply(r2, core.Msg{Data: []byte{r2.Data()[0] + 1}})
				})
			}
			th.Reply(req, core.Msg{})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := count(r.trA, obs.MEncPackets); got != nLinks-1 {
		t.Errorf("enc packets = %d, want %d", got, nLinks-1)
	}
	if count(r.trB, obs.MGoaheads) != 1 {
		t.Errorf("goaheads = %d, want 1", count(r.trB, obs.MGoaheads))
	}
}

func TestCharlotteMultiEnclosureReplyNoGoahead(t *testing.T) {
	// Replies with several enclosures need no goahead (always wanted).
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			reply, err := th.Connect(e, "gimme", core.Msg{})
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			if len(reply.Links) != 2 {
				t.Errorf("reply enclosures = %d", len(reply.Links))
			}
			for _, l := range reply.Links {
				th.Destroy(l)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				_, g1, _ := st.NewLink()
				_, g2, _ := st.NewLink()
				st.Reply(req, core.Msg{Links: []*core.End{g1, g2}})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if count(r.trB, obs.MEncPackets) != 1 {
		t.Errorf("enc packets = %d, want 1", count(r.trB, obs.MEncPackets))
	}
	if count(r.trA, obs.MGoaheads) != 0 {
		t.Errorf("goaheads = %d, want 0", count(r.trA, obs.MGoaheads))
	}
}

func TestCharlotteUnwantedRequestBounced(t *testing.T) {
	// B requests an operation on the same link in the reverse direction
	// while A awaits a reply with its request queue closed: A receives
	// B's request unintentionally and must FORBID (§3.2.1 scenario 1).
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			// A connects; its request queue stays closed.
			if _, err := th.Connect(e, "svc", core.Msg{}); err != nil {
				t.Errorf("A connect: %v", err)
			}
			// Now open the queue and serve B's reverse request.
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("A receive: %v", err)
				return
			}
			if err := th.Reply(req, core.Msg{Data: []byte("late-ok")}); err != nil {
				t.Errorf("A reply: %v", err)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			// B: serve A's request, but first fire a reverse request from
			// another coroutine so it races ahead of the reply.
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(200 * sim.Millisecond) // let the reverse request go first
				st.Reply(req, core.Msg{})
			})
			rep, err := th.Connect(e, "reverse", core.Msg{})
			if err != nil {
				t.Errorf("B reverse connect: %v", err)
				return
			}
			if string(rep.Data) != "late-ok" {
				t.Errorf("reverse reply %q", rep.Data)
			}
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	// A must have bounced at least one unwanted message with FORBID
	// (it was awaiting a reply, so RETRY alone would not suppress
	// retransmission).
	if count(r.trA, obs.MUnwantedReceives) == 0 {
		t.Error("no unwanted messages recorded at A")
	}
	if count(r.trA, obs.MForbids) == 0 {
		t.Error("no FORBID sent by A")
	}
	if count(r.trA, obs.MAllows) == 0 {
		t.Error("no ALLOW sent by A")
	}
	if count(r.trB, obs.MResentRequests) == 0 {
		t.Error("B never resent the forbidden request")
	}
}

// pattern returns n bytes that differ from those of any other seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func TestCharlotteBouncedRequestResentExact(t *testing.T) {
	// TestCharlotteUnwantedRequestBounced with payloads of four
	// different lengths. B's end encodes its reverse request, then its
	// reply to A, in the same buffer; after A's FORBID the request is
	// re-encoded from its message and must arrive byte for byte.
	aReq, aRep := pattern(300, 1), pattern(7, 2)
	bReq, bRep := pattern(40, 3), pattern(1000, 4)
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			reply, err := th.Connect(e, "svc", core.Msg{Data: aReq})
			if err != nil {
				t.Errorf("A connect: %v", err)
			} else if !bytes.Equal(reply.Data, bRep) {
				t.Errorf("A got reply of %d bytes, not B's %d", len(reply.Data), len(bRep))
			}
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("A receive: %v", err)
				return
			}
			if req.Op() != "reverse" || !bytes.Equal(req.Data(), bReq) {
				t.Errorf("A got request %q of %d bytes, not B's resent %d", req.Op(), len(req.Data()), len(bReq))
			}
			if err := th.Reply(req, core.Msg{Data: aRep}); err != nil {
				t.Errorf("A reply: %v", err)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				if !bytes.Equal(req.Data(), aReq) {
					t.Errorf("B got request of %d bytes, not A's %d", len(req.Data()), len(aReq))
				}
				st.Sleep(200 * sim.Millisecond) // let the reverse request go first
				st.Reply(req, core.Msg{Data: bRep})
			})
			rep, err := th.Connect(e, "reverse", core.Msg{Data: bReq})
			if err != nil {
				t.Errorf("B reverse connect: %v", err)
				return
			}
			if !bytes.Equal(rep.Data, aRep) {
				t.Errorf("B got reply %q, want %q", rep.Data, aRep)
			}
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if count(r.trA, obs.MForbids) == 0 || count(r.trB, obs.MResentRequests) == 0 {
		t.Fatal("B's request was never bounced and resent")
	}
}

func TestCharlotteDestroyNotifiesPeer(t *testing.T) {
	var errB error
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			th.Sleep(10 * sim.Millisecond)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			_, errB = th.Connect(e, "op", core.Msg{})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errB, core.ErrLinkDestroyed) {
		t.Fatalf("B error = %v, want ErrLinkDestroyed", errB)
	}
}

func TestCharlotteCrashDestroysLinks(t *testing.T) {
	var errA error
	r, _, pb := newPair(t,
		func(th *core.Thread, e *core.End) {
			_, errA = th.Connect(e, "op", core.Msg{})
		},
		func(th *core.Thread, e *core.End) {
			th.Sleep(5 * sim.Millisecond)
			th.Process().Crash()
			th.Sleep(time1)
		},
	)
	_ = pb
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errA, core.ErrLinkDestroyed) {
		t.Fatalf("A error = %v, want ErrLinkDestroyed", errA)
	}
}

const time1 = sim.Millisecond

func TestCharlotteManySequentialOps(t *testing.T) {
	const n = 20
	got := 0
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			for i := 0; i < n; i++ {
				reply, err := th.Connect(e, "add", core.Msg{Data: []byte{byte(i)}})
				if err != nil {
					t.Errorf("op %d: %v", i, err)
					return
				}
				if reply.Data[0] != byte(i+1) {
					t.Errorf("op %d: got %d", i, reply.Data[0])
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
		t.Fatalf("completed %d/%d ops", got, n)
	}
	// Two kernel messages per op in the simple case (plus boot noise).
	perOp := float64(r.kernel.Obs().Metrics().Value(obs.MKernelMessages)) / float64(n)
	if perOp > 2.5 {
		t.Errorf("%.1f kernel messages per simple op, want ≈ 2", perOp)
	}
}

func TestCharlotteAbortedConnectorDropsReply(t *testing.T) {
	// The client coroutine aborts after its request is received; the
	// client keeps a receive posted (its request queue is open), so the
	// no-longer-wanted reply is physically received and silently
	// discarded — and the server's Reply completes WITHOUT an exception.
	// This is §3.2.2's documented Charlotte deviation: "the server should
	// feel an exception... Such exceptions are not provided under
	// Charlotte".
	var replyErr error
	replied := false
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			victim := th.Fork("victim", func(tv *core.Thread) {
				tv.Connect(e, "slow", core.Msg{})
			})
			th.Sleep(100 * sim.Millisecond) // request delivered; server replying slowly
			th.Abort(victim)
			// Keep a kernel receive posted so the unwanted reply actually
			// arrives (open request queue).
			th.OpenRequests(e)
			th.Sleep(400 * sim.Millisecond) // reply arrives, gets dropped
			th.CloseRequests(e)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(150 * sim.Millisecond)
				replyErr = st.Reply(req, core.Msg{})
				replied = true
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !replied {
		t.Fatal("server never completed its reply")
	}
	if replyErr != nil {
		t.Fatalf("server felt %v; Charlotte must NOT deliver reply exceptions", replyErr)
	}
	if count(r.trA, obs.MDroppedReplies) == 0 {
		t.Fatal("reply was not recorded as dropped")
	}
}

// When a link dies with a request and a reply both undelivered on one
// end, the binding fails them in a fixed order (request, then reply),
// so same-seed runs trace and wake threads identically.
func TestCharlotteDeadEndFailsSendsInOrder(t *testing.T) {
	wantTrace, wantOrder := deadEndRun(t)
	for run := 1; run < 20; run++ {
		trace, order := deadEndRun(t)
		if order != wantOrder {
			t.Fatalf("run %d: threads woke in order %s, run 0 in %s", run, order, wantOrder)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Fatalf("run %d: JSONL stream differs from run 0", run)
		}
	}
	if wantOrder != "[connect reply]" {
		t.Fatalf("threads woke in order %s, want the request's first", wantOrder)
	}
}

// deadEndRun runs one episode and returns its JSONL trace and the order
// in which A's two failed operations returned. B asks A for an
// operation, and just before B destroys the link, A starts both its
// reply and a request of its own on the same end.
func deadEndRun(t *testing.T) ([]byte, string) {
	t.Helper()
	var order []string
	r, _, _ := newPair(t,
		func(th *core.Thread, e *core.End) {
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("A receive: %v", err)
				return
			}
			th.Sleep(450 * sim.Millisecond)
			th.Fork("asker", func(tx *core.Thread) {
				if _, err := tx.Connect(e, "back", core.Msg{Data: []byte("q")}); err != nil {
					order = append(order, "connect")
				}
			})
			if err := th.Reply(req, core.Msg{Data: []byte("r")}); err != nil {
				order = append(order, "reply")
			}
			th.Sleep(100 * sim.Millisecond)
		},
		func(th *core.Thread, e *core.End) {
			th.Fork("caller", func(tc *core.Thread) {
				tc.Connect(e, "op", core.Msg{})
			})
			th.Sleep(485 * sim.Millisecond)
			th.Destroy(e)
		},
	)
	var trace bytes.Buffer
	r.kernel.Obs().Attach(&obs.JSONLExporter{W: &trace})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("%d of A's 2 operations failed (%v)", len(order), order)
	}
	return trace.Bytes(), fmt.Sprint(order)
}
