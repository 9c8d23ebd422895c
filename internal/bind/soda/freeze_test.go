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
		r.trs = append(r.trs, sodabind.New(r.kernel, kp, cfg))
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

// TestSodaCancelDuringPairLimitRetry: a put that waits out a pair-limit
// retry is not posted, so there is nothing to withdraw. Aborting its
// connector marks it cancelled, and the retry drops it instead of
// posting it: the peer never serves it, and its enclosure stays with
// the sender, which moves it in its next request. Five puts on other
// links, unaccepted until B starts receiving at 100 ms, hold every pair
// slot.
func TestSodaCancelDuringPairLimitRetry(t *testing.T) {
	for limit := 1; limit <= 4; limit++ {
		r := newRig(2)
		r.kernel.PairLimit = limit
		var as, bs [6]core.TransEnd
		for i := range as {
			as[i], bs[i] = sodabind.BootLink(r.trs[0], r.trs[1])
		}
		costs := calib.DefaultSODARuntime()
		var pa *core.Process
		var afterErr error
		victims, moved := 0, 0
		pa = core.NewProcess(r.env, "A", r.trs[0], costs, func(th *core.Thread) {
			var ends [6]*core.End
			for i, te := range as {
				ends[i] = th.AdoptBootEnd(te)
				if i < 5 {
					th.Fork("blocked", func(x *core.Thread) { x.Connect(ends[i], "blocked", core.Msg{}) })
				}
			}
			enc, _, _ := th.NewLink()
			links := []*core.End{enc}
			victim := th.Fork("victim", func(v *core.Thread) { v.Connect(ends[5], "victim", core.Msg{Links: links}) })
			th.Sleep(20 * sim.Millisecond)
			th.Abort(victim)
			th.Sleep(200 * sim.Millisecond)
			_, afterErr = th.Connect(ends[5], "after", core.Msg{Links: links})
			for _, e := range ends {
				th.Destroy(e)
			}
		})
		core.NewProcess(r.env, "B", r.trs[1], costs, func(th *core.Thread) {
			var ends [6]*core.End
			for i, te := range bs {
				ends[i] = th.AdoptBootEnd(te)
			}
			// One link at a time: B's status signals to A take pair
			// slots too, and its replies need one.
			th.Sleep(100 * sim.Millisecond)
			for i, e := range ends {
				for {
					req, err := th.Receive(e)
					if err != nil {
						return
					}
					moved += len(req.Links())
					th.Reply(req, core.Msg{})
					if req.Op() == "victim" {
						victims++
					}
					if i < 5 || req.Op() == "after" {
						break
					}
				}
			}
		})
		// A horizon, not Run: a put that nothing drops retries forever.
		if err := r.env.RunUntil(sim.Time(2 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		if !pa.Dead() {
			t.Errorf("limit %d: A still running at the horizon:\n%s", limit, pa.DebugState())
		}
		if retries := count(r.trs[0], obs.MPairLimitRetries); retries == 0 {
			t.Fatalf("limit %d: no pair-limit retries", limit)
		}
		if victims != 0 || moved != 1 || afterErr != nil || pa.Stats().CancelFailures != 0 {
			t.Errorf("limit %d: B served the aborted request %d times and got %d enclosures, next Connect = %v, %d cancel failures; want 0, 1, nil, 0",
				limit, victims, moved, afterErr, pa.Stats().CancelFailures)
		}
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
