package chrbind_test

import (
	"errors"
	"testing"

	"repro/internal/bind/bindtest"
	chrbind "repro/internal/bind/chrysalis"
	"repro/internal/calib"
	"repro/internal/chrysalis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// count reads the binding's per-process counter name from the obs
// registry.
func count(tr *chrbind.Transport, name string) int64 {
	return tr.Obs().Metrics().ProcValue(name, tr.KernelProcess().ID())
}

type rig struct {
	env    *sim.Env
	kernel *chrysalis.Kernel
	trs    []*chrbind.Transport
}

func newRig(nodes int) *rig {
	env := sim.NewEnv(1)
	k := chrysalis.NewKernel(env, netsim.NewBackplane(), calib.DefaultChrysalis())
	r := &rig{env: env, kernel: k}
	for i := 0; i < nodes; i++ {
		kp := k.NewProcess(netsim.NodeID(i))
		r.trs = append(r.trs, chrbind.New(k, kp))
	}
	return r
}

func newPair(mainA, mainB func(*core.Thread, *core.End)) *rig {
	return newPairVia(func(tr core.Transport) core.Transport { return tr }, mainA, mainB)
}

// newPairVia is newPair with each transport handed to core through wrap.
func newPairVia(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *rig {
	r := newRig(2)
	ea, eb := chrbind.BootLink(r.trs[0], r.trs[1])
	costs := calib.DefaultChrysalisRuntime()
	core.NewProcess(r.env, "A", wrap(r.trs[0]), costs, func(th *core.Thread) {
		mainA(th, th.AdoptBootEnd(ea))
	})
	core.NewProcess(r.env, "B", wrap(r.trs[1]), costs, func(th *core.Thread) {
		mainB(th, th.AdoptBootEnd(eb))
	})
	return r
}

func TestChrysalisSendFate(t *testing.T) {
	bindtest.CheckSendFate(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		return newPairVia(wrap, mainA, mainB).env
	}, true)
}

func TestChrysalisCancel(t *testing.T) {
	recalled, tooLate := bindtest.CheckCancel(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		return newPairVia(wrap, mainA, mainB).env
	})
	if recalled == 0 || tooLate == 0 {
		t.Errorf("%d cancels recalled, %d too late: want both answers driven", recalled, tooLate)
	}
}

func TestChrysalisSimpleRPC(t *testing.T) {
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
	// §5.3: "a simple remote operation requires about 2.4 ms".
	if ms < 1.9 || ms > 3.0 {
		t.Fatalf("LYNX/Chrysalis RTT = %.3f ms, want ≈ 2.4 ms", ms)
	}
}

func TestChrysalisPayloadSlope(t *testing.T) {
	// §5.3: ≈4.6 ms with 1000 bytes of parameters in both directions.
	var rtt sim.Duration
	payload := make([]byte, 1000)
	r := newPair(
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
	if ms < 3.8 || ms > 5.6 {
		t.Fatalf("LYNX/Chrysalis 1000B RTT = %.3f ms, want ≈ 4.6 ms", ms)
	}
}

func TestChrysalisOrderOfMagnitudeFasterThanCharlotte(t *testing.T) {
	// §5.3: "Message transmission times are also faster on the
	// Butterfly, by more than an order of magnitude" — checked
	// against the Charlotte targets (57 ms) by asserting < 5.7 ms.
	var rtt sim.Duration
	r := newPair(
		func(th *core.Thread, e *core.End) {
			start := th.Now()
			th.Connect(e, "op", core.Msg{})
			rtt = sim.Duration(th.Now() - start)
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
	if rtt.Milliseconds() > 5.7 {
		t.Fatalf("RTT %.3f ms is not >10x faster than Charlotte's 57 ms", rtt.Milliseconds())
	}
}

func TestChrysalisMultiEnclosureMove(t *testing.T) {
	const nLinks = 3
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
				if reply.Data[0] != byte(i)+1 {
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
				t.Errorf("enclosures = %d", len(req.Links()))
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
	if count(r.trs[1], obs.MLinkMoves) != nLinks {
		t.Errorf("moves = %d, want %d", count(r.trs[1], obs.MLinkMoves), nLinks)
	}
}

func TestChrysalisUnwantedReplyRejected(t *testing.T) {
	var connErr, replyErr error
	r := newPair(
		func(th *core.Thread, e *core.End) {
			victim := th.Fork("victim", func(tv *core.Thread) {
				_, connErr = tv.Connect(e, "slow", core.Msg{})
			})
			th.Sleep(5 * sim.Millisecond)
			th.Abort(victim)
			th.Sleep(40 * sim.Millisecond)
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
		t.Fatalf("connect err = %v", connErr)
	}
	if !errors.Is(replyErr, core.ErrUnwantedReply) {
		t.Fatalf("reply err = %v, want ErrUnwantedReply", replyErr)
	}
	if count(r.trs[0], obs.MRejections) != 1 {
		t.Fatalf("rejections = %d", count(r.trs[0], obs.MRejections))
	}
}

func TestChrysalisDestroyReclaimsObject(t *testing.T) {
	var errB error
	r := newPair(
		func(th *core.Thread, e *core.End) {
			th.Sleep(2 * sim.Millisecond)
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
	if r.kernel.Obs().Metrics().Value(obs.MObjectsReclaimed) == 0 {
		t.Error("link object never reclaimed")
	}
}

func TestChrysalisCrashCleansUp(t *testing.T) {
	var errA error
	r := newPair(
		func(th *core.Thread, e *core.End) {
			_, errA = th.Connect(e, "op", core.Msg{})
		},
		func(th *core.Thread, e *core.End) {
			th.Sleep(2 * sim.Millisecond)
			th.Process().Crash()
			th.Sleep(sim.Millisecond)
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errA, core.ErrLinkDestroyed) {
		t.Fatalf("A err = %v", errA)
	}
}

func TestChrysalisUnwantedRequestWaitsInBuffer(t *testing.T) {
	// Reverse-direction request with A's queue closed: the flag stays
	// set and nothing is consumed until A opens its queue. Zero NAK
	// traffic, zero unwanted receives.
	r := newPair(
		func(th *core.Thread, e *core.End) {
			if _, err := th.Connect(e, "svc", core.Msg{}); err != nil {
				t.Errorf("A connect: %v", err)
			}
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
				st.Sleep(30 * sim.Millisecond)
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
	if count(r.trs[0], obs.MRejections) != 0 {
		t.Error("spurious rejections")
	}
}

func TestChrysalisStaleNoticesDiscarded(t *testing.T) {
	// Move a busy link: notices already queued for the old owner must be
	// discarded by validation, and the moved end must still work (the
	// mover's rescan covers lost notices).
	r := newRig(3)
	l1a, l1b := chrbind.BootLink(r.trs[0], r.trs[1])
	l2b, l2c := chrbind.BootLink(r.trs[1], r.trs[2])
	costs := calib.DefaultChrysalisRuntime()

	core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1a)
		// Two ops; between them the far end moves B -> C.
		if _, err := th.Connect(e, "one", core.Msg{}); err != nil {
			t.Errorf("one: %v", err)
		}
		th.Sleep(20 * sim.Millisecond)
		reply, err := th.Connect(e, "two", core.Msg{})
		if err != nil {
			t.Errorf("two: %v", err)
			return
		}
		if string(reply.Data) != "from-C" {
			t.Errorf("two served by %q", reply.Data)
		}
		th.Destroy(e)
	})
	core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1b)
		toC := th.AdoptBootEnd(l2b)
		req, err := th.Receive(e)
		if err != nil {
			t.Errorf("B recv: %v", err)
			return
		}
		th.Reply(req, core.Msg{Data: []byte("from-B")})
		if _, err := th.Connect(toC, "take", core.Msg{Links: []*core.End{e}}); err != nil {
			t.Errorf("B move: %v", err)
		}
		th.Destroy(toC)
	})
	core.NewProcess(r.env, "C", r.trs[2], costs, func(th *core.Thread) {
		e2 := th.AdoptBootEnd(l2c)
		req, err := th.Receive(e2)
		if err != nil {
			t.Errorf("C recv: %v", err)
			return
		}
		moved := req.Links()[0]
		th.Serve(moved, func(st *core.Thread, r2 *core.Request) {
			st.Reply(r2, core.Msg{Data: []byte("from-C")})
		})
		th.Reply(req, core.Msg{})
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if count(r.trs[2], obs.MLinkMoves) != 1 {
		t.Errorf("C moves = %d", count(r.trs[2], obs.MLinkMoves))
	}
}

func TestChrysalisTunedFactorSpeedsRPC(t *testing.T) {
	measure := func(tune float64) sim.Duration {
		r := newRig(2)
		r.kernel.TuneFactor = tune
		ea, eb := chrbind.BootLink(r.trs[0], r.trs[1])
		costs := calib.DefaultChrysalisRuntime()
		var rtt sim.Duration
		core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
			e := th.AdoptBootEnd(ea)
			start := th.Now()
			th.Connect(e, "op", core.Msg{})
			rtt = sim.Duration(th.Now() - start)
			th.Destroy(e)
		})
		core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
			e := th.AdoptBootEnd(eb)
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Reply(req, core.Msg{})
			})
		})
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		return rtt
	}
	base := measure(1.0)
	tuned := measure(calib.ChrysalisTunedFactor)
	improvement := 1 - float64(tuned)/float64(base)
	// §5.3: optimizations "likely to improve both figures by 30 to 40%"
	// applies to kernel-path time; the runtime share dilutes it somewhat.
	if improvement < 0.15 || improvement > 0.45 {
		t.Fatalf("tuning improvement = %.0f%% (base %v, tuned %v)", improvement*100, base, tuned)
	}
}

func TestChrysalisSequentialOpsStatsSane(t *testing.T) {
	const n = 10
	r := newPair(
		func(th *core.Thread, e *core.End) {
			for i := 0; i < n; i++ {
				if _, err := th.Connect(e, "op", core.Msg{Data: []byte{byte(i)}}); err != nil {
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
	if count(r.trs[0], obs.MRejections) != 0 || count(r.trs[1], obs.MRejections) != 0 {
		t.Error("spurious rejections in a clean workload")
	}
}
