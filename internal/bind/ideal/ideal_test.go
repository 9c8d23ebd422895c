package ideal_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bind/bindtest"
	"repro/internal/bind/ideal"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/sim"
)

func costs() calib.LynxRuntimeCosts {
	return calib.LynxRuntimeCosts{PerOperation: 10 * sim.Microsecond}
}

func pairRig(t *testing.T, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
	return pairVia(t, func(tr core.Transport) core.Transport { return tr }, mainA, mainB)
}

// pairVia is pairRig with each transport handed to core through wrap.
func pairVia(t *testing.T, wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
	env := sim.NewEnv(1)
	fab := ideal.NewFabric(env, sim.Millisecond, sim.Microsecond)
	trA := fab.NewTransport("A")
	trB := fab.NewTransport("B")
	ea, eb, err := trA.MakeLink()
	if err != nil {
		t.Fatal(err)
	}
	ideal.MoveOwnership(fab, trA, trB, eb.(ideal.EndID))
	core.NewProcess(env, "A", wrap(trA), costs(), func(th *core.Thread) {
		mainA(th, th.AdoptBootEnd(ea))
	})
	core.NewProcess(env, "B", wrap(trB), costs(), func(th *core.Thread) {
		mainB(th, th.AdoptBootEnd(eb))
	})
	return env
}

func TestIdealSendFate(t *testing.T) {
	bindtest.CheckSendFate(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		return pairVia(t, wrap, mainA, mainB)
	}, true)
}

// The ideal fabric tells the sender of a delivery the instant it
// happens, so no cancel comes too late.
func TestIdealCancel(t *testing.T) {
	recalled, tooLate := bindtest.CheckCancel(t, func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env {
		return pairVia(t, wrap, mainA, mainB)
	})
	if recalled == 0 {
		t.Errorf("%d cancels recalled, %d too late: want recalls driven", recalled, tooLate)
	}
}

func TestIdealLatencyIsConfigured(t *testing.T) {
	var rtt sim.Duration
	env := pairRig(t,
		func(th *core.Thread, e *core.End) {
			start := th.Now()
			if _, err := th.Connect(e, "op", core.Msg{Data: make([]byte, 100)}); err != nil {
				t.Errorf("connect: %v", err)
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
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two crossings at 1ms + 100B/µs each, plus small runtime overhead.
	if rtt < 2200*sim.Microsecond || rtt > 2500*sim.Microsecond {
		t.Fatalf("ideal RTT = %v, want ≈ 2.2-2.3 ms", rtt)
	}
}

func TestIdealUnwantedReplyFailsSenderImmediately(t *testing.T) {
	var replyErr error
	env := pairRig(t,
		func(th *core.Thread, e *core.End) {
			victim := th.Fork("victim", func(tv *core.Thread) {
				tv.Connect(e, "slow", core.Msg{})
			})
			th.Sleep(3 * sim.Millisecond)
			th.Abort(victim)
			th.Sleep(30 * sim.Millisecond)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(10 * sim.Millisecond)
				replyErr = st.Reply(req, core.Msg{})
			})
		},
	)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(replyErr, core.ErrUnwantedReply) {
		t.Fatalf("reply err = %v", replyErr)
	}
}

func TestIdealScreeningHoldsUnwantedRequests(t *testing.T) {
	// A request sent before the receiver has any interest is held by the
	// fabric and delivered the moment interest opens.
	var got string
	env := pairRig(t,
		func(th *core.Thread, e *core.End) {
			if _, err := th.Connect(e, "early", core.Msg{}); err != nil {
				t.Errorf("connect: %v", err)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Sleep(50 * sim.Millisecond) // no interest yet
			req, err := th.Receive(e)
			if err != nil {
				t.Errorf("receive: %v", err)
				return
			}
			got = req.Op()
			th.Reply(req, core.Msg{})
		},
	)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestIdealEndIDString(t *testing.T) {
	id := ideal.EndID{Link: 3, Side: 1}
	if !strings.Contains(id.String(), "3.1") {
		t.Fatalf("EndID string %q", id.String())
	}
}

func TestIdealMoveOwnershipGuards(t *testing.T) {
	env := sim.NewEnv(1)
	fab := ideal.NewFabric(env, sim.Millisecond, 0)
	trA := fab.NewTransport("A")
	trB := fab.NewTransport("B")
	ea, _, _ := trA.MakeLink()
	// Moving an end the source does not own is a no-op.
	ideal.MoveOwnership(fab, trB, trA, ea.(ideal.EndID))
	// Moving a nonexistent link is a no-op.
	ideal.MoveOwnership(fab, trA, trB, ideal.EndID{Link: 99, Side: 0})
}
