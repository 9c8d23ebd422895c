package sodabind_test

import (
	"errors"
	"testing"

	"repro/internal/bind/bindtest"
	sodabind "repro/internal/bind/soda"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/soda"
)

// count reads the binding's per-process counter name from the obs
// registry.
func count(tr *sodabind.Transport, name string) int64 {
	return tr.Obs().Metrics().ProcValue(name, int(tr.KernelProcess().ID()))
}

// rig assembles a SODA kernel plus LYNX processes.
type rig struct {
	env    *sim.Env
	kernel *soda.Kernel
	trs    []*sodabind.Transport
}

func newRig(nodes int) *rig {
	env := sim.NewEnv(1)
	bus := netsim.NewCSMABus(env.Rand().Fork())
	k := soda.NewKernel(env, bus, calib.DefaultSODA())
	r := &rig{env: env, kernel: k}
	for i := 0; i < nodes; i++ {
		kp := k.NewProcess(netsim.NodeID(i))
		r.trs = append(r.trs, sodabind.New(k, kp, sodabind.DefaultConfig()))
	}
	return r
}

func newPair(mainA, mainB func(*core.Thread, *core.End)) *rig {
	return newPairVia(func(tr core.Transport) core.Transport { return tr }, mainA, mainB)
}

// newPairVia is newPair with each transport handed to core through wrap.
func newPairVia(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *rig {
	r := newRig(2)
	ea, eb := sodabind.BootLink(r.trs[0], r.trs[1])
	costs := calib.DefaultSODARuntime()
	core.NewProcess(r.env, "A", wrap(r.trs[0]), costs, func(th *core.Thread) {
		mainA(th, th.AdoptBootEnd(ea))
	})
	core.NewProcess(r.env, "B", wrap(r.trs[1]), costs, func(th *core.Thread) {
		mainB(th, th.AdoptBootEnd(eb))
	})
	return r
}

func TestSodaSendFate(t *testing.T) {
	bindtest.CheckSendFate(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		return newPairVia(wrap, mainA, mainB).env
	}, true)
}

func TestSodaCancel(t *testing.T) {
	recalled, tooLate := bindtest.CheckCancel(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		return newPairVia(wrap, mainA, mainB).env
	})
	if recalled == 0 || tooLate == 0 {
		t.Errorf("%d cancels recalled, %d too late: want both answers driven", recalled, tooLate)
	}
}

func TestSodaSimpleRPC(t *testing.T) {
	var rtt sim.Duration
	r := newPair(
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
	// §4.3 prediction: ≈3× faster than Charlotte's 57 ms ⇒ ≈19-22 ms
	// (including the runtime package overhead the paper says would be
	// similar to Charlotte's).
	if ms < 14 || ms > 30 {
		t.Fatalf("LYNX/SODA RTT = %.2f ms, want ≈ 20 ms", ms)
	}
}

func TestSodaLargeMessageSlowerThanCharlotteWire(t *testing.T) {
	// 2000 bytes each way should show SODA's slow-bus penalty: per §4.3
	// the kernel figures break even with Charlotte between 1K and 2K.
	var rtt sim.Duration
	payload := make([]byte, 2000)
	r := newPair(
		func(th *core.Thread, e *core.End) {
			start := th.Now()
			if _, err := th.Connect(e, "blob", core.Msg{Data: payload}); err != nil {
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
	// 4000 bytes total at ≈13 µs/B ≈ 52 ms on top of ≈20ms fixed.
	ms := rtt.Milliseconds()
	if ms < 60 || ms > 100 {
		t.Fatalf("LYNX/SODA 2KB RTT = %.2f ms, want ≈ 72 ms", ms)
	}
}

func TestSodaMultiEnclosureSingleMessage(t *testing.T) {
	// "More than one link can be enclosed in the same message with no
	// more difficulty than a single end" — no goahead/enc machinery.
	const nLinks = 4
	r := newPair(
		func(th *core.Thread, e *core.End) {
			var keep, give []*core.End
			for i := 0; i < nLinks; i++ {
				m, o, err := th.NewLink()
				if err != nil {
					t.Errorf("NewLink: %v", err)
					return
				}
				keep = append(keep, m)
				give = append(give, o)
			}
			if _, err := th.Connect(e, "takeN", core.Msg{Links: give}); err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			for i, m := range keep {
				reply, err := th.Connect(m, "ping", core.Msg{Data: []byte{byte(i)}})
				if err != nil {
					t.Errorf("moved link %d: %v", i, err)
					continue
				}
				if reply.Data[0] != byte(i)+10 {
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
				t.Errorf("enclosures = %d, want %d", len(req.Links()), nLinks)
			}
			for _, l := range req.Links() {
				th.Serve(l, func(st *core.Thread, r2 *core.Request) {
					st.Reply(r2, core.Msg{Data: []byte{r2.Data()[0] + 10}})
				})
			}
			th.Reply(req, core.Msg{})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	// One put for the request carrying all four ends (plus the reply and
	// the pings): verify movement took exactly one data put by checking
	// the binding saw 4 moves with zero forwarding traffic.
	if count(r.trs[1], obs.MLinkMoves) != nLinks {
		t.Errorf("moves = %d", count(r.trs[1], obs.MLinkMoves))
	}
}

func TestSodaUnwantedRequestSavedNotBounced(t *testing.T) {
	// A's request queue is closed while B requests in the reverse
	// direction: the request is simply held unaccepted. No retry/forbid
	// analogue exists, and A's runtime never sees the message.
	r := newPair(
		func(th *core.Thread, e *core.End) {
			if _, err := th.Connect(e, "svc", core.Msg{}); err != nil {
				t.Errorf("A connect: %v", err)
			}
			// Only now serve B's reverse request.
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("A receive: %v", err)
				return
			}
			th.Reply(req, core.Msg{Data: []byte("late-ok")})
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(200 * sim.Millisecond)
				st.Reply(req, core.Msg{})
			})
			rep, err := th.Connect(e, "reverse", core.Msg{})
			if err != nil {
				t.Errorf("B reverse: %v", err)
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
	if count(r.trs[0], obs.MSavedRequests) == 0 {
		t.Error("reverse request was never held")
	}
	if count(r.trs[0], obs.MRejectedReplies) != 0 {
		t.Error("spurious reply rejections")
	}
}

func TestSodaUnwantedReplyRejectsServer(t *testing.T) {
	// The client coroutine aborts; the server's reply is NAKed and the
	// server feels ErrUnwantedReply — the exception Charlotte cannot
	// deliver (§6 advantage 4).
	var connErr, replyErr error
	r := newPair(
		func(th *core.Thread, e *core.End) {
			victim := th.Fork("victim", func(tv *core.Thread) {
				_, connErr = tv.Connect(e, "slow", core.Msg{})
			})
			th.Sleep(80 * sim.Millisecond)
			th.Abort(victim)
			th.Sleep(400 * sim.Millisecond)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(120 * sim.Millisecond)
				replyErr = st.Reply(req, core.Msg{})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(connErr, core.ErrAborted) {
		t.Fatalf("connect err = %v", connErr)
	}
	if !errors.Is(replyErr, core.ErrUnwantedReply) {
		t.Fatalf("reply err = %v, want ErrUnwantedReply", replyErr)
	}
	if count(r.trs[0], obs.MRejectedReplies) != 1 {
		t.Fatalf("rejected replies = %d", count(r.trs[0], obs.MRejectedReplies))
	}
}

func TestSodaDestroyNotifiesPeer(t *testing.T) {
	var errB error
	r := newPair(
		func(th *core.Thread, e *core.End) {
			th.Sleep(20 * sim.Millisecond)
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
		t.Fatalf("B err = %v", errB)
	}
}

func TestSodaCrashDetected(t *testing.T) {
	var errA error
	r := newPair(
		func(th *core.Thread, e *core.End) {
			_, errA = th.Connect(e, "op", core.Msg{})
		},
		func(th *core.Thread, e *core.End) {
			th.Sleep(10 * sim.Millisecond)
			th.Process().Crash()
			th.Sleep(sim.Millisecond)
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errA, core.ErrLinkDestroyed) {
		t.Fatalf("A err = %v, want ErrLinkDestroyed", errA)
	}
}

func TestSodaMovedLinkForwardedByCache(t *testing.T) {
	// A talks to B on link L; B moves its end to C; A's next message
	// hits B's move cache and is redirected MOVED -> C.
	r := newRig(3)
	l1a, l1b := sodabind.BootLink(r.trs[0], r.trs[1])
	l2b, l2c := sodabind.BootLink(r.trs[1], r.trs[2])
	costs := calib.DefaultSODARuntime()

	core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1a)
		// First op reaches B.
		if _, err := th.Connect(e, "one", core.Msg{}); err != nil {
			t.Errorf("op one: %v", err)
			return
		}
		th.Sleep(300 * sim.Millisecond) // B moves its end to C meanwhile
		reply, err := th.Connect(e, "two", core.Msg{})
		if err != nil {
			t.Errorf("op two: %v", err)
			return
		}
		if string(reply.Data) != "from-C" {
			t.Errorf("op two reply %q (wrong owner served it)", reply.Data)
		}
		th.Destroy(e)
	})
	core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1b)
		toC := th.AdoptBootEnd(l2b)
		req, err := th.Receive(e)
		if err != nil {
			t.Errorf("B receive: %v", err)
			return
		}
		th.Reply(req, core.Msg{Data: []byte("from-B")})
		// Let A's watch retire (its interest drops once the reply is in)
		// so the link is dormant when we move it — the cache, not the
		// watch, must do the forwarding.
		th.Sleep(100 * sim.Millisecond)
		if _, err := th.Connect(toC, "take", core.Msg{Links: []*core.End{e}}); err != nil {
			t.Errorf("B move: %v", err)
		}
		// Stay alive so the move cache can forward A's next message.
		th.Sleep(time2s)
		th.Destroy(toC)
	})
	core.NewProcess(r.env, "C", r.trs[2], costs, func(th *core.Thread) {
		e2 := th.AdoptBootEnd(l2c)
		req, err := th.Receive(e2)
		if err != nil {
			t.Errorf("C receive: %v", err)
			return
		}
		moved := req.Links()[0]
		th.Reply(req, core.Msg{})
		// The moved link stays DORMANT at C too (no Serve yet, so no
		// watch heals A's hint); only later does C start serving.
		th.Sleep(500 * sim.Millisecond)
		th.Serve(moved, func(st *core.Thread, r2 *core.Request) {
			st.Reply(r2, core.Msg{Data: []byte("from-C")})
		})
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if count(r.trs[1], obs.MMovedForwards) == 0 {
		t.Error("B's move cache never forwarded")
	}
	if count(r.trs[0], obs.MHintFixes) == 0 {
		t.Error("A's hint was never fixed")
	}
}

const time2s = 2 * sim.Second

func TestSodaDiscoverFallbackAfterCacheEviction(t *testing.T) {
	// Same scenario but B's cache is disabled: A's put times out, then
	// discover finds C.
	r := newRig(3)
	cfgNoCache := sodabind.DefaultConfig()
	cfgNoCache.CacheSize = 0
	// Rebuild B's binding with no cache.
	r.trs[1] = sodabind.New(r.kernel, kpOf(r, 1), cfgNoCache)
	l1a, l1b := sodabind.BootLink(r.trs[0], r.trs[1])
	l2b, l2c := sodabind.BootLink(r.trs[1], r.trs[2])
	costs := calib.DefaultSODARuntime()

	core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1a)
		th.Sleep(400 * sim.Millisecond) // let the move finish first
		reply, err := th.Connect(e, "two", core.Msg{})
		if err != nil {
			t.Errorf("op: %v", err)
			return
		}
		if string(reply.Data) != "from-C" {
			t.Errorf("reply %q", reply.Data)
		}
		th.Destroy(e)
	})
	core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1b)
		toC := th.AdoptBootEnd(l2b)
		// A is dormant (no watch posted); move the end while nobody is
		// looking, with forwarding disabled.
		if _, err := th.Connect(toC, "take", core.Msg{Links: []*core.End{e}}); err != nil {
			t.Errorf("B move: %v", err)
		}
		th.Destroy(toC)
	})
	core.NewProcess(r.env, "C", r.trs[2], costs, func(th *core.Thread) {
		e2 := th.AdoptBootEnd(l2c)
		req, err := th.Receive(e2)
		if err != nil {
			t.Errorf("C receive: %v", err)
			return
		}
		moved := req.Links()[0]
		th.Reply(req, core.Msg{})
		// Dormant at C until well after A's put has timed out and the
		// discover has run.
		th.Sleep(900 * sim.Millisecond)
		th.Serve(moved, func(st *core.Thread, r2 *core.Request) {
			st.Reply(r2, core.Msg{Data: []byte("from-C")})
		})
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if count(r.trs[0], obs.MDiscovers) == 0 {
		t.Error("A never used discover")
	}
}

// kpOf digs the kernel process back out for rebuilding a binding.
func kpOf(r *rig, i int) *soda.Process {
	return r.trs[i].KernelProcess()
}

func TestSodaStatsZeroNAKTraffic(t *testing.T) {
	// The §6 point: on SODA all received messages are wanted; there is
	// no bounce traffic at all in a normal workload.
	r := newPair(
		func(th *core.Thread, e *core.End) {
			for i := 0; i < 5; i++ {
				if _, err := th.Connect(e, "op", core.Msg{Data: []byte{1}}); err != nil {
					t.Errorf("op %d: %v", i, err)
				}
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
	for i, tr := range r.trs {
		rejected, freezes := count(tr, obs.MRejectedReplies), count(tr, obs.MFreezes)
		if rejected != 0 || freezes != 0 {
			t.Errorf("binding %d: unexpected recovery traffic: %d rejected replies, %d freezes", i, rejected, freezes)
		}
	}
}
