// Package bindtest holds the contract checks that every binding (a
// core.Transport) must pass. Each binding's tests run them on that
// binding's own two-process rig.
package bindtest

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Pair builds processes A and B joined by one link on a binding's
// kernel and returns the env that runs them. It hands each process's
// transport to core.NewProcess through wrap, A's first.
type Pair func(wrap func(core.Transport) core.Transport, mainA, mainB func(*core.Thread, *core.End)) *sim.Env

// sink wraps a transport and records the events it hands the run-time
// package. It forwards Obs and SetScreen, so the run-time package sees
// the binding as it would unwrapped.
type sink struct {
	core.Transport
	events []core.Event
}

func (s *sink) SetSink(f func(core.Event), sp *sim.Proc) {
	s.Transport.SetSink(func(ev core.Event) {
		s.events = append(s.events, ev)
		f(ev)
	}, sp)
}

func (s *sink) Obs() *obs.Recorder { return s.Transport.(core.Observed).Obs() }

func (s *sink) SetScreen(f core.ScreenFunc) {
	if sc, ok := s.Transport.(core.Screened); ok {
		sc.SetScreen(f)
	}
}

// count returns how many of s's events on te are of kind k and match
// err (any error if err is nil).
func (s *sink) count(te core.TransEnd, k core.EventKind, err error) (n int) {
	for _, ev := range s.events {
		if ev.End == te && ev.Kind == k && (err == nil || errors.Is(ev.Err, err)) {
			n++
		}
	}
	return n
}

// run builds pair with both transports wrapped in sinks, runs it, and
// returns A's and B's sinks.
func run(t *testing.T, pair Pair, mainA, mainB func(*core.Thread, *core.End)) (a, b *sink) {
	env := pair(func(tr core.Transport) core.Transport {
		s := &sink{Transport: tr}
		if a == nil {
			a = s
		} else {
			b = s
		}
		return s
	}, mainA, mainB)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// CheckSendFate checks how a binding reports the fate of a send.
// EvLinkDead alone settles a dead end: a request pending when the peer
// destroys the link gets exactly one EvLinkDead and no EvSendFailed.
// EvSendFailed is for a live link: on a binding that rejects unwanted
// replies (rejectsUnwanted), a reply whose connector aborted fails its
// sender with ErrUnwantedReply. Charlotte accepts every reply and
// discards the unwanted one, so there Reply returns nil and the
// server sees no EvSendFailed.
func CheckSendFate(t *testing.T, pair Pair, rejectsUnwanted bool) {
	var te core.TransEnd
	var err error
	a, _ := run(t, pair, func(th *core.Thread, e *core.End) {
		te = e.Transport()
		_, err = th.Connect(e, "op", core.Msg{})
		th.Sleep(100 * sim.Millisecond) // record any late word on the send
	}, func(th *core.Thread, e *core.End) {
		th.Sleep(50 * sim.Millisecond) // queue closed: the request is in flight
		th.Destroy(e)
	})
	dead, failed := a.count(te, core.EvLinkDead, nil), a.count(te, core.EvSendFailed, nil)
	if !errors.Is(err, core.ErrLinkDestroyed) || dead != 1 || failed != 0 {
		t.Errorf("link death: Connect = %v with %d EvLinkDead and %d EvSendFailed, want %v with 1 and 0",
			err, dead, failed, core.ErrLinkDestroyed)
	}
	var served, aborted, replied bool
	_, b := run(t, pair, func(th *core.Thread, e *core.End) {
		victim := th.Fork("victim", func(v *core.Thread) { v.Connect(e, "op", core.Msg{}) })
		waitFor(th, &served)
		th.Abort(victim)
		aborted = true
		waitFor(th, &replied)
		th.Destroy(e)
	}, func(th *core.Thread, e *core.End) {
		te = e.Transport()
		th.Serve(e, func(st *core.Thread, req *core.Request) {
			served = true
			waitFor(st, &aborted)
			err = st.Reply(req, core.Msg{})
			replied = true
		})
	})
	wantErr, wantFailed := error(nil), 0
	if rejectsUnwanted {
		wantErr, wantFailed = core.ErrUnwantedReply, 1
	}
	if failed := b.count(te, core.EvSendFailed, nil); !errors.Is(err, wantErr) || failed != wantFailed {
		t.Errorf("unwanted reply: Reply = %v with %d EvSendFailed, want %v with %d",
			err, failed, wantErr, wantFailed)
	}
}

// waitFor sleeps th in 1 ms steps until *flag is set, for at most 1 s.
func waitFor(th *core.Thread, flag *bool) {
	for i := 0; !*flag && i < 1000; i++ {
		th.Sleep(sim.Millisecond)
	}
}
