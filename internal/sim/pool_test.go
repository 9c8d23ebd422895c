package sim

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to a second: an exiting goroutine is gone,
// and a finalizer runs, a moment after the event that causes it.
func waitFor(cond func() bool) bool {
	for i := 0; i < 200; i++ {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestStrandParksProc has a proc lend itself to two strands that block
// the proc (Delay, WaitQueue.Wait): each park suspends the strand that
// parked, and the proc's resume continues it there. Every park from a
// strand has another proc as its successor (the unstarted waker at
// first, then the waker's timer), so it switches straight there. The
// first strand switches to the second, unstarted one, which ends by
// handing the processor back. A Kill while a strand has the proc parked
// unwinds that strand, resumed by the killer's own park, and the proc
// ends through its own kill path.
func TestStrandParksProc(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "q")
	var at []Time
	var order []string
	var strandUnwound bool
	var killHooks int
	host := e.Spawn("host", func(p *Proc) {
		p.OnKill(func() { killHooks++ })
		var a, b Strand
		a = p.NewStrand(func() *Strand {
			defer func() {
				if r := recover(); r != nil {
					strandUnwound = IsKilled(r)
					panic(r)
				}
			}()
			p.Delay(2 * Millisecond)
			at = append(at, p.Now())
			a.Switch(&b)
			order = append(order, "a")
			wq.Wait(p)
			at = append(at, p.Now())
			wq.Wait(p) // killed here
			t.Error("strand resumed after Kill")
			return nil
		})
		b = p.NewStrand(func() *Strand {
			order = append(order, "b")
			return &a
		})
		p.Lend(&a)
		t.Error("host body continued past the killed strand")
	})
	var hostDoneAfterKill bool
	e.Spawn("waker", func(p *Proc) {
		p.Delay(5 * Millisecond)
		wq.Wake()
		p.Delay(3 * Millisecond)
		host.Kill()
		// The killed host is the waker's successor: the waker's park
		// switches straight to the strand, which unwinds, and the
		// host's end hands the processor back.
		p.Yield()
		hostDoneAfterKill = host.Done()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !hostDoneAfterKill {
		t.Fatal("the waker continued before the killed host had ended")
	}
	if want := []Time{Time(2 * Millisecond), Time(5 * Millisecond)}; len(at) != 2 || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("strand ran at %v, want %v", at, want)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("strands ran in order %v, want [b a]", order)
	}
	if !strandUnwound {
		t.Fatal("the kill did not unwind the strand")
	}
	if killHooks != 1 {
		t.Fatalf("OnKill ran %d times, want 1", killHooks)
	}
	if !host.Done() || e.Now() != Time(8*Millisecond) {
		t.Fatalf("host done %v at %v, want done at 8ms", host.Done(), e.Now())
	}
}

// TestStrandsHandBack: a finishing strand starts an unstarted successor
// on its own goroutine, resumes a parked one, or hands the processor
// back to the proc, whose Lend then returns.
func TestStrandsHandBack(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("host", func(p *Proc) {
		var a, b, c Strand
		a = p.NewStrand(func() *Strand {
			a.Switch(&b)
			order = append(order, "a")
			p.Delay(Millisecond)
			return nil
		})
		b = p.NewStrand(func() *Strand {
			order = append(order, "b")
			return &c
		})
		c = p.NewStrand(func() *Strand {
			order = append(order, "c")
			return &a
		})
		p.Lend(&a)
		order = append(order, "host")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "b c a host" || e.Now() != Time(Millisecond) {
		t.Fatalf("ran %q ending at %v, want \"b c a host\" at 1ms", got, e.Now())
	}
}

// idleProcGoroutines reports the simproc goroutines on the shared idle
// list.
func idleProcGoroutines() int {
	procIdle.Lock()
	defer procIdle.Unlock()
	return len(procIdle.s)
}

// gcLeaf is captured by a body; its finalizer reports that nothing
// reaches it any more.
type gcLeaf struct{ data []byte }

// TestIdleProcGoroutineKeepsNothingReachable: once a run is over, the
// goroutines that ran its procs and strands sit idle, and neither a
// finished body's captures nor the env is reachable from them.
func TestIdleProcGoroutineKeepsNothingReachable(t *testing.T) {
	var bodyLeaf, envLeaf atomic.Bool
	func() {
		e := NewEnv(1)
		l := &gcLeaf{data: make([]byte, 64)}
		runtime.SetFinalizer(l, func(*gcLeaf) { envLeaf.Store(true) })
		// The env keeps l through a timer the run stops short of.
		e.At(Time(Second), func() { l.data[0]++ })
		e.At(Time(Millisecond), func() { e.Stop(nil) })
		leaf := &gcLeaf{data: make([]byte, 64)}
		runtime.SetFinalizer(leaf, func(*gcLeaf) { bodyLeaf.Store(true) })
		for i := 0; i < 3; i++ {
			e.Spawn("leaf", func(p *Proc) {
				p.Delay(Nanosecond)
				p.Yield()
				leaf.data[0]++
			})
		}
		e.Spawn("lender", func(p *Proc) {
			var a, b Strand
			a = p.NewStrand(func() *Strand { a.Switch(&b); leaf.data[0]++; return nil })
			b = p.NewStrand(func() *Strand { p.Yield(); leaf.data[0]++; return &a })
			p.Lend(&a)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if idleProcGoroutines() == 0 {
			t.Fatal("no idle simproc goroutine after the run")
		}
	}()
	if !waitFor(func() bool { runtime.GC(); return bodyLeaf.Load() && envLeaf.Load() }) {
		t.Fatalf("reachable from an idle simproc goroutine: body capture %v, env %v",
			!bodyLeaf.Load(), !envLeaf.Load())
	}
}

// churn spawns procs in waves on e: each wave's procs park, spawn a
// helper mid-run and finish, so the goroutines that ran them are
// reused within the run and handed back at its end.
func churn(e *Env) {
	for w := 0; w < 3; w++ {
		e.At(Time(w)*Time(Millisecond), func() {
			for i := 0; i < 4; i++ {
				e.Spawn("churn", func(p *Proc) {
					p.Delay(Microsecond)
					e.Spawn("helper", func(h *Proc) { h.Yield() })
					p.Yield()
				})
			}
		})
	}
}

// TestProcGoroutinesFlat runs 200 envs one after another, then 200
// two-worker partitioned runs: simproc goroutines are reused through
// the idle list, so the goroutine count does not grow.
func TestProcGoroutinesFlat(t *testing.T) {
	serial := func() {
		e := NewEnv(1)
		churn(e)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	parallel := func() {
		root := NewEnv(1)
		for _, sh := range root.EnterParallel(ParallelOptions{Groups: 2, Workers: 2}) {
			churn(sh)
		}
		if err := root.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Sixteen procs live at once leave enough idle goroutines for both
	// shards' peaks, however the two shard runs overlap.
	fill := NewEnv(1)
	wq := NewWaitQueue(fill, "fill")
	for i := 0; i < 16; i++ {
		fill.Spawn("fill", func(p *Proc) { wq.Wait(p) })
	}
	fill.Spawn("waker", func(p *Proc) { p.Yield(); wq.WakeAll() })
	if err := fill.Run(); err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(){serial, parallel} {
		base := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			run()
		}
		if !waitFor(func() bool { return runtime.NumGoroutine() <= base }) {
			t.Fatalf("%d goroutines after 200 runs, want <= %d", runtime.NumGoroutine(), base)
		}
	}
}

// TestProcGoexitEndsRunGoroutine: a body that calls runtime.Goexit
// (t.FailNow in a simproc) exits the goroutine that called Run, as a
// direct call would; Run does not return nil. Runs afterwards are
// unaffected.
func TestProcGoexitEndsRunGoroutine(t *testing.T) {
	returned := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e := NewEnv(1)
		e.Spawn("other", func(p *Proc) { p.Delay(Millisecond) })
		e.Spawn("exit", func(p *Proc) {
			p.Yield()
			runtime.Goexit()
		})
		returned <- e.Run()
	}()
	<-exited
	select {
	case err := <-returned:
		if err == nil {
			t.Fatal("Run returned nil after a simproc called runtime.Goexit")
		}
	default:
	}
	var ran int
	e := NewEnv(1)
	churn(e)
	e.Spawn("after", func(p *Proc) { p.Yield(); ran++ })
	if err := e.Run(); err != nil || ran != 1 {
		t.Fatalf("run after a Goexit: err %v, ran %d", err, ran)
	}
}

// TestCallbackPanicReachesRunCaller: a panic raised on a simproc
// goroutine outside the body's own recovery (here a timer callback
// fired while a finishing proc picks its successor) panics in Run's
// caller with the same value. Runs afterwards are unaffected.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("a", func(p *Proc) {
		p.Yield()
		e.After(Millisecond, func() { panic("boom") })
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("Run's caller recovered %v, want boom", r)
			}
		}()
		e.Run()
		t.Fatal("Run returned")
	}()
	var ran int
	e2 := NewEnv(1)
	churn(e2)
	e2.Spawn("after", func(p *Proc) { p.Yield(); ran++ })
	if err := e2.Run(); err != nil || ran != 1 {
		t.Fatalf("run after a panic: err %v, ran %d", err, ran)
	}
}
