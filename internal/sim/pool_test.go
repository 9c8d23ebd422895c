package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// idleCoros reports the coroutines on the free list.
func idleCoros() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.idle)
}

// waitFor polls cond for up to a second: a stopped coroutine's
// goroutine exits, and a finalizer runs, a moment after the event that
// causes it.
func waitFor(cond func() bool) bool {
	for i := 0; i < 200; i++ {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func TestCoroRunsBodiesToCompletion(t *testing.T) {
	const bodies = poolIdleCap + 36
	var ran int
	cs := make([]*Coro, bodies)
	for i := range cs {
		var c *Coro
		c = NewCoro(func() {
			c.Park() // all live at once: more coroutines than the cap
			ran++
		})
		cs[i] = c
	}
	for _, c := range cs {
		if c.Resume() {
			t.Fatal("a body returned before its first Park")
		}
	}
	for _, c := range cs {
		if !c.Resume() {
			t.Fatal("a body parked again after its only Park")
		}
	}
	if ran != bodies {
		t.Fatalf("%d of %d bodies ran", ran, bodies)
	}
	if got := idleCoros(); got != poolIdleCap {
		t.Fatalf("%d idle coroutines after a burst, want the cap %d", got, poolIdleCap)
	}
}

// TestCoroReuse runs 1,000 short procs one after another: each starts
// on a coroutine the previous ones returned, so the goroutine count
// never grows past the pool's idle cap.
func TestCoroReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv(1)
	var ran int
	for i := 0; i < 1000; i++ {
		e.At(Time(i)*Time(Microsecond), func() {
			e.Spawn("short", func(p *Proc) {
				p.Delay(Nanosecond)
				ran++
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1000 {
		t.Fatalf("%d of 1000 procs ran", ran)
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= base+poolIdleCap }) {
		t.Fatalf("%d goroutines after 1000 sequential procs, want <= %d (baseline %d + idle cap %d)",
			runtime.NumGoroutine(), base+poolIdleCap, base, poolIdleCap)
	}
	// A new body takes an idle coroutine rather than a new one.
	idle := idleCoros()
	if idle == 0 {
		t.Fatal("no idle coroutine after the run")
	}
	c := NewCoro(func() {})
	if got := idleCoros(); got != idle-1 {
		t.Fatalf("idle coroutines %d after NewCoro, want %d", got, idle-1)
	}
	c.Resume()
}

// coroLeaf is captured by a pooled body; its finalizer reports that the
// idle coroutine no longer reaches it.
type coroLeaf struct{ data []byte }

func TestIdleCoroKeepsNothingReachable(t *testing.T) {
	var collected atomic.Bool
	func() {
		leaf := &coroLeaf{data: make([]byte, 64)}
		runtime.SetFinalizer(leaf, func(*coroLeaf) { collected.Store(true) })
		if !NewCoro(func() { leaf.data[0]++ }).Resume() {
			t.Fatal("body did not return")
		}
	}()
	if !waitFor(func() bool { runtime.GC(); return collected.Load() }) {
		t.Fatal("an object captured by a finished body is still reachable from its idle coroutine")
	}
}

// TestNestedCoroParksProc has a proc body resume a second coroutine
// that blocks the proc (Delay, WaitQueue.Wait): each park suspends the
// inner coroutine, and the proc's resume continues it there. A Kill
// while the inner coroutine has the proc parked unwinds it there, and
// the proc ends through its own kill path.
func TestNestedCoroParksProc(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "q")
	var at []Time
	var innerUnwound bool
	var killHooks int
	host := e.Spawn("host", func(p *Proc) {
		p.OnKill(func() { killHooks++ })
		inner := NewCoro(func() {
			defer func() {
				if r := recover(); r != nil {
					innerUnwound = IsKilled(r)
					panic(r)
				}
			}()
			p.Delay(2 * Millisecond)
			at = append(at, p.Now())
			wq.Wait(p)
			at = append(at, p.Now())
			wq.Wait(p) // killed here
			t.Error("inner coroutine resumed after Kill")
		})
		inner.Resume()
		t.Error("host body continued past the killed inner coroutine")
	})
	e.Spawn("waker", func(p *Proc) {
		p.Delay(5 * Millisecond)
		wq.Wake()
		p.Delay(3 * Millisecond)
		host.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{Time(2 * Millisecond), Time(5 * Millisecond)}; len(at) != 2 || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("inner coroutine ran at %v, want %v", at, want)
	}
	if !innerUnwound {
		t.Fatal("the kill did not unwind the inner coroutine")
	}
	if killHooks != 1 {
		t.Fatalf("OnKill ran %d times, want 1", killHooks)
	}
	if !host.Done() || e.Now() != Time(8*Millisecond) {
		t.Fatalf("host done %v at %v, want done at 8ms", host.Done(), e.Now())
	}
}
