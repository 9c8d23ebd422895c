package lynx_test

import (
	"fmt"
	"testing"

	"repro/lynx"
	"repro/lynx/fault"
)

// TestRestartLaunchedProcess: a process launched mid-run, crashed, and
// gone from the System's tables by the time its restart fires is still
// restarted from its spec — the System keeps the main function of
// every name the fault plan restarts.
func TestRestartLaunchedProcess(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis, lynx.Ideal} {
		plan := fault.MustParse("crash(worker,50ms);restart(worker,80ms)")
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 3, Faults: plan})
		var first, restarted int
		var callErr error
		worker := func(th *lynx.Thread, boot []*lynx.End) {
			if len(boot) == 0 {
				restarted++ // a restarted incarnation inherits no links
				return
			}
			first++
			th.Sleep(10 * lynx.Second) // asleep when the crash hits
		}
		sys.Spawn("launcher", func(th *lynx.Thread, _ []*lynx.End) {
			end, _ := sys.Launch(th, "worker", worker)
			_, callErr = th.Connect(end, "never-served", lynx.Msg{})
		})
		if err := sys.Run(); err != nil {
			t.Fatalf("%v: %v", sub, err)
		}
		if first != 1 || restarted != 1 {
			t.Errorf("%v: worker ran %d times, restarted %d times; want 1 and 1", sub, first, restarted)
		}
		if callErr == nil {
			t.Errorf("%v: the call to the crashed worker succeeded", sub)
		}
		st := sys.FaultStats()
		if st["crash"] != 1 || st["restart"] != 1 || st["miss"] != 0 {
			t.Errorf("%v: fault stats %v, want one crash, one restart, no miss", sub, st)
		}
	}
}

// TestChurnMissRuleSameForBothShapes: a churn event is a miss only when
// it fired and hit no process in any group, whether or not the run is
// partitioned. An event not yet due when RunFor stops is no miss; an
// event that fires on a name nothing carries is one.
func TestChurnMissRuleSameForBothShapes(t *testing.T) {
	build := func(pairs int, plan string) *lynx.System {
		sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Ideal, Seed: 1, Faults: fault.MustParse(plan)})
		for i := 0; i < pairs; i++ {
			c := sys.Spawn(fmt.Sprintf("c%d", i), func(th *lynx.Thread, boot []*lynx.End) {
				th.Sleep(200 * lynx.Millisecond)
				th.Destroy(boot[0])
			})
			s := sys.Spawn(fmt.Sprintf("s%d", i), func(th *lynx.Thread, boot []*lynx.End) {
				th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) { st.Reply(req, lynx.Msg{}) })
			})
			sys.Join(c, s)
		}
		return sys
	}
	for _, pairs := range []int{1, 2} {
		sys := build(pairs, "crash(s0,500ms)")
		if err := sys.RunFor(100 * lynx.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got, want := sys.Partitioned(), pairs > 1; got != want {
			t.Fatalf("%d pairs: partitioned = %v, want %v", pairs, got, want)
		}
		if st := sys.FaultStats(); len(st) != 0 {
			t.Errorf("%d pairs, event not yet due: fault stats %v, want none", pairs, st)
		}
		sys = build(pairs, "crash(nobody,50ms)")
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if st := sys.FaultStats(); len(st) != 1 || st["miss"] != 1 {
			t.Errorf("%d pairs, event fired on no process: fault stats %v, want one miss", pairs, st)
		}
	}
}
