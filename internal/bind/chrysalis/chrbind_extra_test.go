package chrbind_test

import (
	"errors"
	"testing"

	chrbind "repro/internal/bind/chrysalis"
	"repro/internal/calib"
	"repro/internal/chrysalis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Additional Chrysalis binding tests: stale notices, cancel racing the
// consumer, self-loop links, notice/flag bookkeeping.

func TestChrysalisCancelBeforeConsumeWins(t *testing.T) {
	// The canceller clears the full flag before the (slow) receiver looks:
	// the message is recalled and the receiver sees nothing.
	r := newPair(
		func(th *core.Thread, e *core.End) {
			victim := th.Fork("victim", func(tv *core.Thread) {
				tv.Connect(e, "op", core.Msg{})
			})
			th.Yield() // victim's flag gets set
			th.Abort(victim)
			th.Sleep(20 * sim.Millisecond)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			// No interest for a while: the flag sits unconsumed, so the
			// abort's CancelSend wins the atomic race.
			th.Sleep(10 * sim.Millisecond)
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				t.Error("recalled message was served")
				st.Reply(req, core.Msg{})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChrysalisSelfLoopRPC(t *testing.T) {
	env := sim.NewEnv(1)
	k := newRigKernel(env)
	kp := k.NewProcess(0)
	tr := chrbind.New(k, kp)
	core.NewProcess(env, "solo", tr, calib.DefaultChrysalisRuntime(), func(th *core.Thread) {
		a, b, err := th.NewLink()
		if err != nil {
			t.Errorf("NewLink: %v", err)
			return
		}
		th.Serve(b, func(st *core.Thread, req *core.Request) {
			st.Reply(req, core.Msg{Data: append(req.Data(), '!')})
		})
		reply, err := th.Connect(a, "self", core.Msg{Data: []byte("hi")})
		if err != nil || string(reply.Data) != "hi!" {
			t.Errorf("self RPC: %v %q", err, reply)
		}
		th.Destroy(a)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChrysalisStaleNoticeCounted(t *testing.T) {
	// Destroying a link while a notice for it is queued produces a
	// validated-and-discarded notice at the peer.
	r := newPair(
		func(th *core.Thread, e *core.End) {
			// Two rapid ops then destroy; the final ack notice may chase a
			// dead end.
			th.Connect(e, "a", core.Msg{})
			th.Connect(e, "b", core.Msg{})
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
	// Not asserting a count (timing-dependent); the suite passing with
	// destroys mid-traffic is the point.
}

func TestChrysalisOversizeMessageRejected(t *testing.T) {
	var sendErr error
	r := newPair(
		func(th *core.Thread, e *core.End) {
			_, sendErr = th.Connect(e, "big", core.Msg{Data: make([]byte, 8192)})
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
	if sendErr == nil {
		t.Fatal("oversize send succeeded")
	}
	if errors.Is(sendErr, core.ErrLinkDestroyed) {
		t.Fatalf("wrong error class: %v", sendErr)
	}
}

// newRigKernel builds a bare kernel for single-process tests.
func newRigKernel(env *sim.Env) *chrysalis.Kernel {
	return chrysalis.NewKernel(env, netsim.NewBackplane(), calib.DefaultChrysalis())
}
