package sodabind

import (
	"testing"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/soda"
)

// janitorRig is three SODA processes, A–B and B–C joined by boot links.
type janitorRig struct {
	env   *sim.Env
	trs   []*Transport
	costs calib.LynxRuntimeCosts
}

func newJanitorRig(cfgB Config) *janitorRig {
	env := sim.NewEnv(1)
	k := soda.NewKernel(env, netsim.NewCSMABus(env.Rand().Fork()), calib.DefaultSODA())
	r := &janitorRig{env: env, costs: calib.DefaultSODARuntime()}
	for i, cfg := range []Config{DefaultConfig(), cfgB, DefaultConfig()} {
		r.trs = append(r.trs, New(k, k.NewProcess(netsim.NodeID(i)), cfg))
	}
	return r
}

// janitors returns how many janitor simprocs the run spawned beside
// its procs processes. Pids go out in spawn order, so a probe spawned
// after the run takes the one after every pid handed out.
func (r *janitorRig) janitors(procs int) int {
	return r.env.Spawn("probe", func(*sim.Proc) {}).ID() - 1 - procs
}

// checkIdle fails unless every janitor has exited with nothing queued.
func (r *janitorRig) checkIdle(t *testing.T) {
	t.Helper()
	for i, tr := range r.trs {
		if tr.janitor != nil || len(tr.recoveries) != 0 {
			t.Errorf("process %d: janitor live=%v with %d queued repairs after the run",
				i, tr.janitor != nil, len(tr.recoveries))
		}
	}
}

// TestJanitorNotStartedForPlainRPC: a process that never repairs a hint
// runs as its one simproc; no janitor is ever spawned.
func TestJanitorNotStartedForPlainRPC(t *testing.T) {
	r := newJanitorRig(DefaultConfig())
	ea, eb := BootLink(r.trs[0], r.trs[1])
	core.NewProcess(r.env, "A", r.trs[0], r.costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(ea)
		for i := 0; i < 3; i++ {
			if _, err := th.Connect(e, "echo", core.Msg{Data: []byte{byte(i)}}); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}
		th.Destroy(e)
	})
	core.NewProcess(r.env, "B", r.trs[1], r.costs, func(th *core.Thread) {
		th.Serve(th.AdoptBootEnd(eb), func(st *core.Thread, req *core.Request) {
			st.Reply(req, core.Msg{Data: req.Data()})
		})
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := r.janitors(2); n != 0 {
		t.Errorf("%d janitors spawned in a plain RPC run, want 0", n)
	}
	r.checkIdle(t)
}

// TestJanitorStartsForRepairAndExits: B moves its end of A's link to C
// with forwarding off, so A's put times out and its janitor repairs the
// hint by discover; the janitor then exits.
func TestJanitorStartsForRepairAndExits(t *testing.T) {
	noCache := DefaultConfig()
	noCache.CacheSize = 0
	r := newJanitorRig(noCache)
	l1a, l1b := BootLink(r.trs[0], r.trs[1])
	l2b, l2c := BootLink(r.trs[1], r.trs[2])
	var reply string
	core.NewProcess(r.env, "A", r.trs[0], r.costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1a)
		th.Sleep(400 * sim.Millisecond) // let the move finish first
		rep, err := th.Connect(e, "op", core.Msg{})
		if err != nil {
			t.Errorf("op: %v", err)
			return
		}
		reply = string(rep.Data)
		th.Destroy(e)
	})
	core.NewProcess(r.env, "B", r.trs[1], r.costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1b)
		toC := th.AdoptBootEnd(l2b)
		if _, err := th.Connect(toC, "take", core.Msg{Links: []*core.End{e}}); err != nil {
			t.Errorf("B move: %v", err)
		}
		th.Destroy(toC)
	})
	core.NewProcess(r.env, "C", r.trs[2], r.costs, func(th *core.Thread) {
		req, err := th.Receive(th.AdoptBootEnd(l2c))
		if err != nil {
			t.Errorf("C receive: %v", err)
			return
		}
		moved := req.Links()[0]
		th.Reply(req, core.Msg{})
		th.Sleep(900 * sim.Millisecond) // dormant until A has discovered
		th.Serve(moved, func(st *core.Thread, r2 *core.Request) {
			st.Reply(r2, core.Msg{Data: []byte("from-C")})
		})
	})
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if reply != "from-C" {
		t.Errorf("reply %q, want from-C", reply)
	}
	m := r.trs[0].Obs().Metrics()
	pid := int(r.trs[0].KernelProcess().ID())
	if m.ProcValue(obs.MDiscovers, pid) == 0 || m.ProcValue(obs.MHintFixes, pid) == 0 {
		t.Errorf("A: discovers=%d hint fixes=%d, want both > 0",
			m.ProcValue(obs.MDiscovers, pid), m.ProcValue(obs.MHintFixes, pid))
	}
	if r.janitors(3) == 0 {
		t.Error("the repair ran without a janitor")
	}
	r.checkIdle(t)
}

// TestCancelDuringRepair: a put whose hint is being repaired is not
// posted, so there is nothing to withdraw. Aborting its connector
// marks it cancelled, and the repair drops it instead of posting it to
// the repaired hint: C never serves it, and its enclosure stays with
// A, which moves it in its next request.
func TestCancelDuringRepair(t *testing.T) {
	noCache := DefaultConfig()
	noCache.CacheSize = 0
	r := newJanitorRig(noCache)
	l1a, l1b := BootLink(r.trs[0], r.trs[1])
	l2b, l2c := BootLink(r.trs[1], r.trs[2])
	var pa *core.Process
	var afterErr error
	victims, moved := 0, 0
	pa = core.NewProcess(r.env, "A", r.trs[0], r.costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1a)
		enc, _, _ := th.NewLink()
		links := []*core.End{enc}
		th.Sleep(400 * sim.Millisecond) // let the move finish first
		victim := th.Fork("victim", func(v *core.Thread) { v.Connect(e, "victim", core.Msg{Links: links}) })
		for i := 0; r.trs[0].janitor == nil && i < 1000; i++ {
			th.Sleep(sim.Millisecond) // until the put's hint check starts a repair
		}
		th.Abort(victim)
		th.Sleep(sim.Second)
		_, afterErr = th.Connect(e, "after", core.Msg{Links: links})
		th.Destroy(e)
	})
	core.NewProcess(r.env, "B", r.trs[1], r.costs, func(th *core.Thread) {
		e := th.AdoptBootEnd(l1b)
		toC := th.AdoptBootEnd(l2b)
		if _, err := th.Connect(toC, "take", core.Msg{Links: []*core.End{e}}); err != nil {
			t.Errorf("B move: %v", err)
		}
		th.Destroy(toC)
	})
	core.NewProcess(r.env, "C", r.trs[2], r.costs, func(th *core.Thread) {
		req, err := th.Receive(th.AdoptBootEnd(l2c))
		if err != nil {
			t.Errorf("C receive: %v", err)
			return
		}
		th.Reply(req, core.Msg{})
		th.Sleep(900 * sim.Millisecond) // dormant until A has discovered
		th.Serve(req.Links()[0], func(st *core.Thread, r2 *core.Request) {
			if r2.Op() == "victim" {
				victims++
			}
			moved += len(r2.Links())
			st.Reply(r2, core.Msg{})
		})
	})
	// A horizon, not Run: a wedged send keeps its process alive.
	if err := r.env.RunUntil(sim.Time(5 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if r.janitors(3) == 0 {
		t.Error("no repair ran")
	}
	if victims != 0 || moved != 1 || afterErr != nil || pa.Stats().CancelFailures != 0 {
		t.Errorf("C served the aborted request %d times and got %d enclosures, next Connect = %v, %d cancel failures; want 0, 1, nil, 0",
			victims, moved, afterErr, pa.Stats().CancelFailures)
	}
	r.checkIdle(t)
}
