package core_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bind/ideal"
	"repro/internal/core"
	"repro/internal/sim"
)

// serveRig runs three client threads against a Serve handler whose
// threads sleep before they reply, so several handler threads are
// parked at once. It reports the replies the clients got.
func serveRig(r *rig) *int {
	got := new(int)
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			done := 0
			for i := 0; i < 3; i++ {
				th.Fork("client", func(tc *core.Thread) {
					for k := 0; k < 2; k++ {
						if _, err := tc.Connect(e, "op", core.Msg{Data: []byte{byte(k)}}); err == nil {
							*got++
						}
					}
					done++
				})
			}
			for done < 3 {
				th.Sleep(sim.Millisecond)
			}
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Sleep(sim.Millisecond)
				st.Reply(req, core.Msg{Data: req.Data()})
			})
		},
	)
	return got
}

// TestThreadGoroutinesFlat runs 200 rigs one after another, then 200
// two-worker partitioned runs of two rigs each, whose Serve handlers
// spawn threads: thread goroutines are reused through the shared idle
// list, so the goroutine count does not grow.
func TestThreadGoroutinesFlat(t *testing.T) {
	serial := func() {
		r := newRig()
		got := serveRig(r)
		if err := r.env.Run(); err != nil || *got != 6 {
			t.Fatalf("serial rig: err %v, %d of 6 replies", err, *got)
		}
	}
	parallel := func() {
		root := sim.NewEnv(1)
		var gots []*int
		for _, sh := range root.EnterParallel(sim.ParallelOptions{Groups: 2, Workers: 2}) {
			gots = append(gots, serveRig(&rig{env: sh, fabric: ideal.NewFabric(sh, sim.Millisecond, sim.Microsecond)}))
		}
		if err := root.Run(); err != nil {
			t.Fatal(err)
		}
		for _, got := range gots {
			if *got != 6 {
				t.Fatalf("partitioned rig: %d of 6 replies", *got)
			}
		}
	}
	// Sixty-four procs live at once leave enough idle goroutines for
	// both shards' peaks, however the two shard runs overlap.
	fill := sim.NewEnv(1)
	wq := sim.NewWaitQueue(fill, "fill")
	for i := 0; i < 64; i++ {
		fill.Spawn("fill", func(p *sim.Proc) { wq.Wait(p) })
	}
	fill.Spawn("waker", func(p *sim.Proc) { p.Yield(); wq.WakeAll() })
	if err := fill.Run(); err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(){serial, parallel} {
		base := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			run()
		}
		for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after 200 runs, want <= %d", n, base)
		}
	}
}

// TestThreadGoexitEndsRunGoroutine: a forked thread that calls
// runtime.Goexit (t.FailNow in a thread) exits the goroutine that called
// Run, as a direct call would; Run does not return nil. Runs afterwards
// are unaffected.
func TestThreadGoexitEndsRunGoroutine(t *testing.T) {
	returned := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		r := newRig()
		r.spawnPair(
			func(th *core.Thread, e *core.End) {
				th.Fork("exit", func(tv *core.Thread) {
					tv.Yield()
					runtime.Goexit()
				})
				th.Connect(e, "op", core.Msg{})
			},
			func(th *core.Thread, e *core.End) {
				th.Serve(e, func(st *core.Thread, req *core.Request) {
					st.Sleep(sim.Millisecond)
					st.Reply(req, core.Msg{})
				})
			},
		)
		returned <- r.env.Run()
	}()
	<-exited
	select {
	case err := <-returned:
		if err == nil {
			t.Fatal("Run returned nil after a thread called runtime.Goexit")
		}
	default:
	}
	r := newRig()
	got := serveRig(r)
	if err := r.env.Run(); err != nil || *got != 6 {
		t.Fatalf("run after a Goexit: err %v, %d of 6 replies", err, *got)
	}
}
