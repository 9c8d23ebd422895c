package lynx_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/lynx"
)

// runEcho runs one request/reply pair between two spawned processes and
// returns the system and both refs (client first).
func runEcho(t *testing.T, cfg lynx.Config) (*lynx.System, *lynx.ProcRef, *lynx.ProcRef) {
	t.Helper()
	sys := lynx.NewSystem(cfg)
	client := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
		if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: []byte("ping")}); err != nil {
			t.Errorf("connect: %v", err)
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
		t.Fatal(err)
	}
	return sys, client, server
}

// TestStatsFacade checks the substrate-neutral Stats() surface: Value
// reads the registry by name, so each substrate's own kernel and
// binding counters are non-zero and the other substrates' read zero.
func TestStatsFacade(t *testing.T) {
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		sys, client, server := runEcho(t, lynx.Config{Substrate: sub, Seed: 21})
		st := sys.Stats()
		if st.Substrate() != sub {
			t.Fatalf("Substrate() = %v, want %v", st.Substrate(), sub)
		}
		if st.Bytes() <= 0 {
			t.Errorf("Stats().Bytes() = %d, want > 0", st.Bytes())
		}
		if st.Value(obs.MKernelBytes) != st.Bytes() {
			t.Errorf("Value(MKernelBytes) = %d != Bytes() = %d",
				st.Value(obs.MKernelBytes), st.Bytes())
		}
		// One kernel counter and one client binding counter per
		// substrate, in Charlotte, SODA, Chrysalis order.
		want := []bool{sub == lynx.Charlotte, sub == lynx.SODA, sub == lynx.Chrysalis}
		kernel := []bool{st.Value(obs.MKernelCalls+"{call=Send}") > 0, st.Value(obs.MKernelAccepts) > 0,
			st.Value(obs.MQueueEnqueues) > 0}
		if fmt.Sprint(kernel) != fmt.Sprint(want) {
			t.Errorf("kernel counters non-zero = %v, want %v", kernel, want)
		}
		cs := client.Stats()
		binding := []bool{cs.Value(obs.MBindKernelSends) > 0, cs.Value(obs.MPuts) > 0,
			cs.Value(obs.MNotices) > 0}
		if fmt.Sprint(binding) != fmt.Sprint(want) {
			t.Errorf("client binding counters non-zero = %v, want %v", binding, want)
		}
		for _, p := range []*lynx.ProcRef{client, server} {
			if p.Stats().Runtime() == nil {
				t.Fatalf("%s: Runtime() nil", p.Name())
			}
		}
		if client.Stats().Runtime().RequestsSent == 0 {
			t.Error("client RequestsSent = 0")
		}
		if server.Stats().Runtime().RequestsServed == 0 {
			t.Error("server RequestsServed = 0")
		}
	})
}

// TestLaunchStatsAttribution launches a child mid-run on every substrate
// and checks the child is a first-class citizen of the stats surface:
// the boot link works, a kernel pid is assigned (distinct from the
// parent's), and counters are attributed to the child.
func TestLaunchStatsAttribution(t *testing.T) {
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 22})
		var child *lynx.ProcRef
		parent := sys.Spawn("parent", func(th *lynx.Thread, boot []*lynx.End) {
			link, ref := sys.Launch(th, "child", func(ct *lynx.Thread, cboot []*lynx.End) {
				ct.Serve(cboot[0], func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{Data: req.Data()})
				})
			})
			child = ref
			if _, err := th.Connect(link, "work", lynx.Msg{Data: []byte("x")}); err != nil {
				t.Errorf("call child: %v", err)
			}
			th.Destroy(link)
		})
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if child == nil {
			t.Fatal("Launch never ran")
		}
		if sub == lynx.Ideal {
			if pid := child.KernelPID(); pid != -1 {
				t.Errorf("Ideal child KernelPID = %d, want -1", pid)
			}
		} else {
			if pid := child.KernelPID(); pid < 0 {
				t.Errorf("child KernelPID = %d, want >= 0", pid)
			}
			if child.KernelPID() == parent.KernelPID() {
				t.Errorf("child and parent share KernelPID %d", child.KernelPID())
			}
		}
		// The child's work is attributed to the child, not the launcher.
		if got := child.Stats().Runtime().RequestsServed; got != 1 {
			t.Errorf("child RequestsServed = %d, want 1", got)
		}
		if got := parent.Stats().Runtime().RequestsServed; got != 0 {
			t.Errorf("parent RequestsServed = %d, want 0", got)
		}
		if got := parent.Stats().Runtime().RequestsSent; got != 1 {
			t.Errorf("parent RequestsSent = %d, want 1", got)
		}
	})
}

// TestMetricsNilSafe pins the Obs()/Metrics() nil chain: a System with
// no recorder must hand back the nil registry, whose lookups report
// zero instead of panicking (the documented obs contract).
func TestMetricsNilSafe(t *testing.T) {
	var s lynx.System // zero value: no kernel, Obs() documents returning nil
	if s.Obs() != nil {
		t.Fatal("zero-value System Obs() != nil")
	}
	if m := s.Metrics(); m != nil {
		t.Fatalf("zero-value System Metrics() = %v, want nil registry", m)
	}
	if v := s.Metrics().Value(obs.MKernelBytes); v != 0 {
		t.Errorf("nil registry Value = %d, want 0", v)
	}
	if v := s.Stats().Bytes(); v != 0 {
		t.Errorf("nil registry Stats().Bytes() = %d, want 0", v)
	}
	if v := s.Stats().Value("no_such_metric"); v != 0 {
		t.Errorf("nil registry Stats().Value = %d, want 0", v)
	}
}

// TestChrysalisTunedChangesTime checks the Chrysalis.Tuned option
// reaches the kernel: the same workload takes a different virtual time
// with the §5.3 optimizations on.
func TestChrysalisTunedChangesTime(t *testing.T) {
	now := func(cfg lynx.Config) lynx.Time {
		sys, _, _ := runEcho(t, cfg)
		return sys.Now()
	}
	tuned := now(lynx.Config{Substrate: lynx.Chrysalis, Seed: 5,
		Chrysalis: lynx.ChrysalisOptions{Tuned: true}})
	untuned := now(lynx.Config{Substrate: lynx.Chrysalis, Seed: 5})
	if untuned == tuned {
		t.Error("Tuned option had no effect")
	}
}
