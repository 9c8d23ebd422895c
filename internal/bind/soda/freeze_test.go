package sodabind_test

import (
	"errors"
	"testing"

	sodabind "repro/internal/bind/soda"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// newRigCfg is newRig with per-binding configs.
func newRigCfg(nodes int, cfg sodabind.Config) *rig {
	r := newRig(0)
	for i := 0; i < nodes; i++ {
		kp := r.kernel.NewProcess(0)
		r.trs = append(r.trs, sodabind.New(r.env, r.kernel, kp, cfg))
	}
	return r
}

// TestSodaFreezeSearchFindsOwner drives the §4.2 absolute algorithm
// directly: caches and discover are disabled, so the only way to find
// the moved end is to freeze the world and ask.
func TestSodaFreezeSearchFindsOwner(t *testing.T) {
	cfg := sodabind.DefaultConfig()
	cfg.CacheSize = 0
	cfg.DiscoverRetries = 0
	cfg.EnableFreeze = true
	cfg.HintTimeout = 100 * sim.Millisecond
	r := newRigCfg(4, cfg)
	l1a, l1b := sodabind.BootLink(r.trs[0], r.trs[1])
	l2b, l2c := sodabind.BootLink(r.trs[1], r.trs[2])
	costs := calib.DefaultSODARuntime()
	var opOK bool

	core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1a)
		if _, err := th.Connect(e, "one", core.Msg{}); err != nil {
			t.Errorf("one: %v", err)
			return
		}
		th.Sleep(400 * sim.Millisecond)
		if _, err := th.Connect(e, "two", core.Msg{}); err != nil {
			t.Errorf("two: %v", err)
			return
		}
		opOK = true
		th.Destroy(e)
	})
	core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1b)
		toC := th.AdoptBootEnd(l2b)
		req, err := th.Receive(e)
		if err != nil {
			return
		}
		th.Reply(req, core.Msg{})
		th.Sleep(100 * sim.Millisecond)
		th.Connect(toC, "take", core.Msg{Links: []*core.End{e}})
		th.Sleep(2500 * sim.Millisecond)
		th.Destroy(toC)
	})
	core.NewProcess(r.env, "C", r.trs[2], costs, func(th *core.Thread) {
		req, err := th.Receive(th.AdoptBootEnd(l2c))
		if err != nil {
			return
		}
		moved := req.Links()[0]
		th.Reply(req, core.Msg{})
		// Dormant long enough for A's timeout + freeze search to run.
		th.Sleep(1500 * sim.Millisecond)
		th.Serve(moved, func(st *core.Thread, r2 *core.Request) {
			st.Reply(r2, core.Msg{})
		})
	})
	// A fourth, uninvolved process: it must be frozen and thawed too.
	core.NewProcess(r.env, "D", r.trs[3], costs, func(th *core.Thread) {
		th.Sleep(3 * sim.Second)
	})

	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !opOK {
		t.Fatal("operation never completed")
	}
	if count(r.trs[0], obs.MFreezes) != 1 {
		t.Fatalf("freezes = %d, want 1", count(r.trs[0], obs.MFreezes))
	}
	// The frozen bystanders recorded their halt.
	halts := count(r.trs[1], obs.MFreezeHalts) + count(r.trs[2], obs.MFreezeHalts) + count(r.trs[3], obs.MFreezeHalts)
	if halts < 2 {
		t.Fatalf("freeze halts = %d, want >= 2", halts)
	}
	frozen := count(r.trs[1], obs.MFrozenTimeNs) + count(r.trs[2], obs.MFrozenTimeNs) + count(r.trs[3], obs.MFrozenTimeNs)
	if frozen <= 0 {
		t.Fatal("no frozen time recorded")
	}
}

// TestSodaFreezeSearchFailureDeclaresDestroyed: when nobody knows the
// link (true destruction), the searcher must conclude ErrLinkDestroyed.
func TestSodaFreezeFailureMeansDestroyed(t *testing.T) {
	cfg := sodabind.DefaultConfig()
	cfg.CacheSize = 0
	cfg.DiscoverRetries = 0
	cfg.EnableFreeze = true
	cfg.HintTimeout = 80 * sim.Millisecond
	r := newRigCfg(3, cfg)
	l1a, l1b := sodabind.BootLink(r.trs[0], r.trs[1])
	costs := calib.DefaultSODARuntime()
	var errTwo error

	core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1a)
		if _, err := th.Connect(e, "one", core.Msg{}); err != nil {
			return
		}
		th.Sleep(300 * sim.Millisecond)
		_, errTwo = th.Connect(e, "two", core.Msg{})
	})
	core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1b)
		req, err := th.Receive(e)
		if err != nil {
			return
		}
		th.Reply(req, core.Msg{})
		// B dies without announcing; with its cache disabled, no trace
		// of the link remains anywhere.
		th.Sleep(100 * sim.Millisecond)
		th.Process().Crash()
		th.Sleep(sim.Millisecond)
	})
	core.NewProcess(r.env, "C", r.trs[2], costs, func(th *core.Thread) {
		th.Sleep(4 * sim.Second) // a bystander to freeze
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errTwo, core.ErrLinkDestroyed) {
		t.Fatalf("errTwo = %v, want ErrLinkDestroyed", errTwo)
	}
	if count(r.trs[0], obs.MFreezes) == 0 {
		t.Fatal("freeze search never ran")
	}
}

// TestSodaCancelSendWithdraws: aborting a coroutine whose put is still
// unaccepted withdraws it; the request never reaches the peer.
func TestSodaCancelSendWithdraws(t *testing.T) {
	r := newPair(
		func(th *core.Thread, e *core.End) {
			victim := th.Fork("victim", func(tv *core.Thread) {
				tv.Connect(e, "never-served", core.Msg{})
			})
			th.Sleep(60 * sim.Millisecond)
			th.Abort(victim)
			th.Sleep(60 * sim.Millisecond)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			// Never opens its request queue; the put stays unaccepted
			// until withdrawn.
			th.Sleep(200 * sim.Millisecond)
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if count(r.trs[1], obs.MAccepts) != 0 {
		t.Fatalf("peer accepted %d messages, want 0", count(r.trs[1], obs.MAccepts))
	}
}

// TestSodaCacheEviction: a tiny cache evicts (and unadvertises) old
// forwarding entries.
func TestSodaCacheEviction(t *testing.T) {
	cfg := sodabind.DefaultConfig()
	cfg.CacheSize = 1
	r := newRigCfg(3, cfg)
	l1a, l1b := sodabind.BootLink(r.trs[0], r.trs[1])
	l2a, l2b := sodabind.BootLink(r.trs[0], r.trs[1])
	l3b, l3c := sodabind.BootLink(r.trs[1], r.trs[2])
	costs := calib.DefaultSODARuntime()

	core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
		e1 := th.AdoptBootEnd(l1a)
		e2 := th.AdoptBootEnd(l2a)
		th.Sleep(sim.Second)
		th.Destroy(e1)
		th.Destroy(e2)
	})
	core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
		e1 := th.AdoptBootEnd(l1b)
		e2 := th.AdoptBootEnd(l2b)
		toC := th.AdoptBootEnd(l3b)
		// Move both of our ends to C: with CacheSize=1 the first entry
		// is evicted when the second lands.
		if _, err := th.Connect(toC, "take", core.Msg{Links: []*core.End{e1, e2}}); err != nil {
			t.Errorf("move: %v", err)
		}
		th.Sleep(500 * sim.Millisecond)
		th.Destroy(toC)
	})
	core.NewProcess(r.env, "C", r.trs[2], costs, func(th *core.Thread) {
		req, err := th.Receive(th.AdoptBootEnd(l3c))
		if err != nil {
			return
		}
		for _, l := range req.Links() {
			th.Serve(l, func(st *core.Thread, r2 *core.Request) {
				st.Reply(r2, core.Msg{})
			})
		}
		th.Reply(req, core.Msg{})
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if count(r.trs[1], obs.MCacheEvictions) == 0 {
		t.Fatal("no cache evictions with CacheSize=1 and 2 moves")
	}
}
