package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// idleWorkers reports the workers parked in the pool.
func idleWorkers() int {
	pool.Lock()
	defer pool.Unlock()
	return len(pool.idle)
}

// waitFor polls cond for up to a second: a worker returns itself to the
// pool just after its body's last statement, so tests observing the
// pool allow it that moment.
func waitFor(cond func() bool) bool {
	for i := 0; i < 200; i++ {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func TestGoRunsBodiesToCompletion(t *testing.T) {
	const bodies = poolIdleCap + 36
	var ran atomic.Int64
	var started, wg sync.WaitGroup
	started.Add(bodies)
	wg.Add(bodies)
	for i := 0; i < bodies; i++ {
		Go(func() {
			defer wg.Done()
			started.Done()
			started.Wait() // all run at once: more workers than the cap
			ran.Add(1)
		})
	}
	wg.Wait()
	if got := ran.Load(); got != bodies {
		t.Fatalf("%d of %d bodies ran", got, bodies)
	}
	if !waitFor(func() bool { return idleWorkers() == poolIdleCap }) {
		t.Fatalf("%d idle workers after a burst, want the cap %d", idleWorkers(), poolIdleCap)
	}
}

// TestGoReusesWorkers runs 1,000 short procs one after another: each
// starts on a worker the previous ones returned, so the goroutine count
// never grows past the pool's idle cap.
func TestGoReusesWorkers(t *testing.T) {
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
	// A start takes a parked worker rather than a new goroutine. Read
	// the idle count once the last proc's worker has parked.
	var idle int
	waitFor(func() bool {
		idle = idleWorkers()
		time.Sleep(5 * time.Millisecond)
		return idle > 0 && idle == idleWorkers()
	})
	if idle == 0 {
		t.Fatal("no idle worker after the run")
	}
	release := make(chan struct{})
	Go(func() { <-release })
	if got := idleWorkers(); got != idle-1 {
		t.Fatalf("idle workers %d after Go, want %d", got, idle-1)
	}
	close(release)
}

// goLeaf is captured by a pooled body; its finalizer reports that the
// idle worker no longer reaches it.
type goLeaf struct{ data []byte }

func TestIdleWorkerKeepsNothingReachable(t *testing.T) {
	var collected atomic.Bool
	done := make(chan struct{})
	func() {
		leaf := &goLeaf{data: make([]byte, 64)}
		runtime.SetFinalizer(leaf, func(*goLeaf) { collected.Store(true) })
		Go(func() {
			leaf.data[0]++
			close(done)
		})
	}()
	<-done
	if !waitFor(func() bool { runtime.GC(); return collected.Load() }) {
		t.Fatal("an object captured by a finished body is still reachable from its idle worker")
	}
}
