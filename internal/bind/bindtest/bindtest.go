// Package bindtest holds the contract checks that every binding (a
// core.Transport) must pass. Each binding's tests run them on that
// binding's own two-process rig.
package bindtest

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
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
	events  []core.Event
	cancels []cancelCall
}

// cancelCall is one CancelSend the run-time package made, and its answer.
type cancelCall struct {
	m        *core.WireMsg
	recalled bool
}

func (s *sink) CancelSend(te core.TransEnd, m *core.WireMsg) bool {
	ok := s.Transport.CancelSend(te, m)
	s.cancels = append(s.cancels, cancelCall{m, ok})
	return ok
}

func (s *sink) SetSink(f func(core.Event), sp *sim.Proc) {
	s.Transport.SetSink(func(ev core.Event) {
		s.events = append(s.events, ev)
		f(ev)
	}, sp)
}

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
// returns A's and B's sinks. name labels a failed run.
func run(t *testing.T, name string, pair Pair, mainA, mainB func(*core.Thread, *core.End)) (a, b *sink) {
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
		t.Fatalf("%s: %v", name, err)
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
	a, _ := run(t, "link death", pair, func(th *core.Thread, e *core.End) {
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
	_, b := run(t, "unwanted reply", pair, func(th *core.Thread, e *core.End) {
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

// CheckCancel checks what CancelSend's answer promises. A's victim
// thread connects to B with encl fresh link ends enclosed, and A aborts
// it abortAt later, at each millisecond up to 60 ms or until B opens
// its request queue at openAt, whichever is later. With a cross mode,
// B first sends A a request with two enclosures. Under "first", A
// receives it at once and the victim starts while A's reply to it is
// leaving, so its request waits its turn. Under "late", A receives it
// only after the abort, so the victim's request can reach a B that
// awaits a reply and wants no requests yet (Charlotte's binding
// bounces it).
//
// If CancelSend answers true, B never gets the message, A hears
// nothing more of it, and the enclosures stay with A, which sends them
// in its next request. If false, B gets the message exactly once,
// enclosures and all, and A gets its EvDelivered. CheckCancel returns
// how many cancels recalled their message and how many came too late,
// so that a binding's test can see both of its answers driven.
//
// It also checks that CancelSend answers false for a send that is not
// the end's current one (see checkNotThisSend).
func CheckCancel(t *testing.T, pair Pair) (recalled, tooLate int) {
	checkNotThisSend(t, pair)
	for _, encl := range []int{0, 2} {
		for _, cross := range []string{"", "first", "late"} {
			for _, openAt := range []sim.Duration{0, 30 * sim.Millisecond, 120 * sim.Millisecond} {
				for abortAt := sim.Millisecond; abortAt <= max(60*sim.Millisecond, openAt); abortAt += sim.Millisecond {
					r, l := checkCancel(t, pair, encl, cross, openAt, abortAt)
					recalled += r
					tooLate += l
				}
			}
		}
	}
	return recalled, tooLate
}

func checkCancel(t *testing.T, pair Pair, encl int, cross string, openAt, abortAt sim.Duration) (recalled, tooLate int) {
	name := fmt.Sprintf("encl=%d cross=%q open=%v abort=%v", encl, cross, openAt, abortAt)
	var teB core.TransEnd
	var afterErr error
	a, b := run(t, name, pair, func(th *core.Thread, e *core.End) {
		links := make([]*core.End, encl)
		for i := range links {
			links[i], _, _ = th.NewLink()
		}
		if cross == "first" {
			req, _ := th.Receive(e)
			th.Fork("reply", func(r *core.Thread) { r.Reply(req, core.Msg{}) })
		}
		victim := th.Fork("victim", func(v *core.Thread) { v.Connect(e, "victim", core.Msg{Links: links}) })
		th.Sleep(abortAt)
		th.Abort(victim)
		if cross == "late" {
			req, _ := th.Receive(e)
			th.Reply(req, core.Msg{})
		}
		th.Sleep(300 * sim.Millisecond)
		// Enclosures that moved with the victim are not A's to send.
		if _, err := th.Connect(e, "after", core.Msg{Links: links}); !errors.Is(err, core.ErrNotOwner) {
			afterErr = err
		}
		th.Destroy(e)
	}, func(th *core.Thread, e *core.End) {
		teB = e.Transport()
		if cross != "" {
			th.Fork("cross", func(x *core.Thread) {
				l1, _, _ := x.NewLink()
				l2, _, _ := x.NewLink()
				x.Connect(e, "cross", core.Msg{Links: []*core.End{l1, l2}})
			})
		}
		th.Sleep(openAt)
		th.Serve(e, func(st *core.Thread, req *core.Request) { st.Reply(req, core.Msg{}) })
	})
	got, moved := map[uint64]int{}, 0
	for _, ev := range b.events {
		if ev.Kind == core.EvIncoming && ev.End == teB && ev.Msg.Kind == core.KindRequest {
			got[ev.Msg.Seq]++
			moved += len(ev.Msg.Encl)
		}
	}
	if moved != encl || afterErr != nil {
		t.Errorf("%s: B got %d enclosures, next Connect = %v; want %d, once each, and nil", name, moved, afterErr, encl)
	}
	for _, c := range a.cancels {
		fates, delivered := 0, 0
		for _, ev := range a.events {
			if ev.Msg == c.m && ev.Kind != core.EvIncoming {
				fates++
				if ev.Kind == core.EvDelivered {
					delivered++
				}
			}
		}
		if c.recalled {
			recalled++
			if got[c.m.Seq] != 0 || fates != 0 {
				t.Errorf("%s: recalled send: B got it %d times, A got %d fate events; want 0 and 0", name, got[c.m.Seq], fates)
			}
		} else {
			tooLate++
			if got[c.m.Seq] != 1 || fates != 1 || delivered != 1 {
				t.Errorf("%s: send too late to recall: B got it %d times, A got %d fate events, %d EvDelivered; want 1 of each",
					name, got[c.m.Seq], fates, delivered)
			}
		}
	}
	return recalled, tooLate
}

// checkNotThisSend checks CancelSend on a send the end does not hold:
// one never started, while another request is pending on the end, and
// one already settled. Both answers must be false, the pending request
// must still complete, and no event about either message may follow.
func checkNotThisSend(t *testing.T, pair Pair) {
	var a *sink
	foreign := &core.WireMsg{Kind: core.KindRequest, Seq: 1 << 40}
	var settled *core.WireMsg
	var answers []bool
	var pendErr error
	var done bool
	mark := 0
	env := pair(func(tr core.Transport) core.Transport {
		s := &sink{Transport: tr}
		if a == nil {
			a = s
		}
		return s
	}, func(th *core.Thread, e *core.End) {
		te := e.Transport()
		th.Fork("pending", func(p *core.Thread) {
			_, pendErr = p.Connect(e, "op", core.Msg{})
			done = true
		})
		th.Sleep(5 * sim.Millisecond) // B has not opened its queue yet
		answers = append(answers, a.Transport.CancelSend(te, foreign))
		waitFor(th, &done)
		for _, ev := range a.events {
			if ev.Kind == core.EvDelivered && ev.End == te {
				settled = ev.Msg
			}
		}
		mark = len(a.events)
		answers = append(answers, a.Transport.CancelSend(te, settled))
		th.Sleep(100 * sim.Millisecond) // record any late word on either
		th.Destroy(e)
	}, func(th *core.Thread, e *core.End) {
		th.Sleep(30 * sim.Millisecond)
		th.Serve(e, func(st *core.Thread, req *core.Request) { st.Reply(req, core.Msg{}) })
	})
	if err := env.Run(); err != nil {
		t.Fatalf("not this send: %v", err)
	}
	if len(answers) != 2 || answers[0] || answers[1] || settled == nil || pendErr != nil {
		t.Fatalf("not this send: CancelSend answered %v (foreign, settled), pending Connect = %v; want false, false and nil", answers, pendErr)
	}
	for i, ev := range a.events {
		if ev.Msg == foreign || (i >= mark && ev.Msg == settled) {
			t.Errorf("not this send: event %v about a message CancelSend does not hold", ev.Kind)
		}
	}
}

// waitFor sleeps th in 1 ms steps until *flag is set, for at most 1 s.
func waitFor(th *core.Thread, flag *bool) {
	for i := 0; !*flag && i < 1000; i++ {
		th.Sleep(sim.Millisecond)
	}
}
