package lynx_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/lynx"
	"repro/lynx/fault"
)

// TestEarlyReplyUnderDrop pins a run-time package defect found by fault
// injection: on SODA the completion frame that confirms a request's
// delivery can be dropped and retried while the reply proceeds, so the
// reply reaches the requester before its send block settles. The core
// used to discard such a reply as unwanted and the Connect never woke.
// A heavy point-to-point drop over many seeds keeps that interleaving
// in reach; every run must still drain with all echoes answered.
func TestEarlyReplyUnderDrop(t *testing.T) {
	plan := fault.MustParse("drop(*->*,0.3)")
	for seed := uint64(1); seed <= 12; seed++ {
		sys := lynx.NewSystem(lynx.Config{Substrate: lynx.SODA, Seed: seed, Faults: plan})
		data := make([]byte, 64)
		done := 0
		client := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
			for i := 0; i < 6; i++ {
				if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
					t.Errorf("seed %d: echo %d: %v", seed, i, err)
					break
				}
				done++
			}
			th.Destroy(boot[0])
		})
		server := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(client, server)
		if err := sys.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if done != 6 {
			t.Errorf("seed %d: only %d of 6 echoes completed", seed, done)
		}
	}
}

// TestCrashDuringLinkMove: the E13 A-B-C topology with the middleman
// crashed at offsets straddling its 100ms link move. The kernels must
// either complete A's later call (the move won) or fail it with a
// diagnosable error (the crash won) — never wedge — and the outcome
// must be a pure function of (substrate, offset, seed).
func TestCrashDuringLinkMove(t *testing.T) {
	offsets := []lynx.Duration{90 * lynx.Millisecond, 100 * lynx.Millisecond, 110 * lynx.Millisecond}
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA} {
		for _, off := range offsets {
			for seed := uint64(1); seed <= 3; seed++ {
				a := crashMoveOutcome(t, sub, off, seed)
				b := crashMoveOutcome(t, sub, off, seed)
				if a != b {
					t.Errorf("%v crash@%v seed %d: same seed diverged:\n  %s\n  %s", sub, off, seed, a, b)
				}
			}
		}
	}
}

// crashMoveOutcome runs one episode and folds what happened into a
// comparable string. RunFor bounds the episode in virtual time, so even
// a runaway timer chain terminates the test.
func crashMoveOutcome(t *testing.T, sub lynx.Substrate, crashAt lynx.Duration, seed uint64) string {
	t.Helper()
	plan := &fault.Plan{Events: []fault.Event{fault.Crash{Proc: "B", At: crashAt}}}
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: seed, Faults: plan})
	var firstErr, secondErr error
	pa := sys.Spawn("A", func(th *lynx.Thread, boot []*lynx.End) {
		e := boot[0]
		if _, firstErr = th.Connect(e, "one", lynx.Msg{}); firstErr != nil {
			return
		}
		th.Sleep(400 * lynx.Millisecond)
		_, secondErr = th.Connect(e, "two", lynx.Msg{})
		th.Destroy(e)
	})
	pb := sys.Spawn("B", func(th *lynx.Thread, boot []*lynx.End) {
		e, toC := boot[0], boot[1]
		req, err := th.Receive(e)
		if err != nil {
			return
		}
		th.Reply(req, lynx.Msg{})
		th.Sleep(100 * lynx.Millisecond)
		th.Connect(toC, "take", lynx.Msg{Links: []*lynx.End{e}})
		th.Destroy(toC)
	})
	pc := sys.Spawn("C", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			return
		}
		moved := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		th.Serve(moved, func(st *lynx.Thread, r2 *lynx.Request) {
			st.Reply(r2, lynx.Msg{})
		})
	})
	sys.Join(pa, pb)
	sys.Join(pb, pc)
	if err := sys.RunFor(10 * lynx.Second); err != nil {
		t.Fatalf("%v crash@%v seed %d: %v", sub, crashAt, seed, err)
	}
	if firstErr != nil {
		t.Errorf("%v crash@%v seed %d: pre-crash call failed: %v", sub, crashAt, seed, firstErr)
	}
	if pa == nil || pc == nil {
		t.Fatal("spawn failed")
	}
	return fmt.Sprintf("second=%v", secondErr)
}

// TestCrashTeardownDeterministic: a hub holding six boot links crashes
// while six clients wait in Connect on it. Crash teardown destroys the
// hub's links one by one, waking a client each time, so the order it
// walks them in is visible in the event stream and in the order the
// clients fail. Same-seed runs must agree byte for byte on every
// substrate.
func TestCrashTeardownDeterministic(t *testing.T) {
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		wantTrace, wantOrder := crashHubRun(t, sub)
		for run := 1; run < 20; run++ {
			trace, order := crashHubRun(t, sub)
			if order != wantOrder {
				t.Fatalf("run %d: clients failed in order %s, run 0 in %s", run, order, wantOrder)
			}
			if !bytes.Equal(trace, wantTrace) {
				t.Fatalf("run %d: JSONL stream differs from run 0", run)
			}
		}
	})
}

// crashHubRun runs one crash-hub episode and returns its JSONL trace and
// the order in which the clients' Connects failed.
func crashHubRun(t *testing.T, sub lynx.Substrate) ([]byte, string) {
	t.Helper()
	const clients = 6
	plan := &fault.Plan{Events: []fault.Event{fault.Crash{Proc: "hub", At: 500 * lynx.Millisecond}}}
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1, Faults: plan})
	var trace bytes.Buffer
	sys.Obs().Attach(&obs.JSONLExporter{W: &trace})
	hub := sys.Spawn("hub", func(th *lynx.Thread, boot []*lynx.End) {
		th.Sleep(lynx.Second)
	})
	var order []string
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("client-%d", i)
		c := sys.Spawn(name, func(th *lynx.Thread, boot []*lynx.End) {
			if _, err := th.Connect(boot[0], "op", lynx.Msg{}); err != nil {
				order = append(order, name)
			}
		})
		sys.Join(c, hub)
	}
	if err := sys.RunFor(10 * lynx.Second); err != nil {
		t.Fatalf("%v: %v", sub, err)
	}
	if len(order) != clients {
		t.Fatalf("%v: %d of %d clients failed", sub, len(order), clients)
	}
	return trace.Bytes(), fmt.Sprint(order)
}
