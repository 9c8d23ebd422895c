package lynx_test

import (
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
