package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	e := NewEnv(1)
	if err := e.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved with no events: %v", e.Now())
	}
}

func TestSingleProcDelay(t *testing.T) {
	e := NewEnv(1)
	var at Time
	e.Spawn("a", func(p *Proc) {
		p.Delay(5 * Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", at)
	}
}

func TestDelayZeroYields(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Delay(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestTimerOrdering(t *testing.T) {
	e := NewEnv(1)
	var fired []int
	// Schedule in reverse; expect firing in time order, ties by insertion.
	e.After(30*Microsecond, func() { fired = append(fired, 30) })
	e.After(10*Microsecond, func() { fired = append(fired, 10) })
	e.After(20*Microsecond, func() { fired = append(fired, 20) })
	e.After(10*Microsecond, func() { fired = append(fired, 11) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{10, 11, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "never")
	e.Spawn("stuck", func(p *Proc) {
		wq.Wait(p)
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "q")
	var order []string
	for _, n := range []string{"a", "b", "c"} {
		name := n
		e.Spawn(name, func(p *Proc) {
			wq.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Delay(Millisecond)
		wq.Wake()
		wq.Wake()
		wq.Wake()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("order %v", order)
	}
}

func TestWakeValue(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "q")
	var got any
	e.Spawn("w", func(p *Proc) {
		got = wq.Wait(p)
	})
	e.Spawn("s", func(p *Proc) {
		wq.WakeValue(42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestWakeAll(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "q")
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprint("w", i), func(p *Proc) {
			wq.Wait(p)
			woken++
		})
	}
	e.Spawn("s", func(p *Proc) {
		p.Delay(1)
		if n := wq.WakeAll(); n != 5 {
			t.Errorf("WakeAll reported %d", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestQueue(t *testing.T) {
	e := NewEnv(1)
	var q Queue[int]
	q.Init(e, "q")
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Delay(Millisecond)
			q.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("got %v", got)
	}
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty succeeded")
	}
	q.Put(7)
	if v, ok := q.TryGet(); !ok || v != 7 || q.Len() != 0 {
		t.Fatalf("TryGet = %v, %v; Len %d", v, ok, q.Len())
	}
}

// A queue that never drains moves its backlog down over the consumed
// head instead of growing, and keeps no value it handed out.
func TestQueueNeverEmptyStaysBounded(t *testing.T) {
	var q Queue[*int]
	q.Init(NewEnv(1), "q")
	q.Put(new(int))
	for i := 0; i < 1000; i++ {
		q.Put(new(int))
		if _, ok := q.TryGet(); !ok {
			t.Fatal("TryGet on a backlog of 2 failed")
		}
	}
	if q.Len() != 1 || cap(q.items) > 4 {
		t.Fatalf("backlog %d in a backing array of %d", q.Len(), cap(q.items))
	}
	for i, v := range q.items[:q.head] {
		if v != nil {
			t.Fatalf("consumed slot %d still holds a value", i)
		}
	}
}

func TestKillParkedProc(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "q")
	cleaned := false
	reached := false
	victim := e.Spawn("victim", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				cleaned = true
				panic(r) // propagate the kill
			}
		}()
		wq.Wait(p)
		reached = true
	})
	e.Spawn("killer", func(p *Proc) {
		p.Delay(Millisecond)
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("victim ran past kill point")
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run")
	}
	if wq.Len() != 0 {
		t.Fatal("victim left on wait queue")
	}
}

func TestKillSleepingProc(t *testing.T) {
	e := NewEnv(1)
	victim := e.Spawn("victim", func(p *Proc) {
		p.Delay(Second)
		t.Error("victim survived kill")
	})
	e.Spawn("killer", func(p *Proc) {
		p.Delay(Millisecond)
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() >= Time(Second) {
		t.Fatalf("clock ran to %v; cancelled timer still fired", e.Now())
	}
}

func TestOnKillHooksLIFO(t *testing.T) {
	e := NewEnv(1)
	var order []int
	wq := NewWaitQueue(e, "q")
	victim := e.Spawn("victim", func(p *Proc) {
		p.OnKill(func() { order = append(order, 1) })
		p.OnKill(func() { order = append(order, 2) })
		wq.Wait(p)
	})
	e.Spawn("killer", func(p *Proc) {
		victim.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[2 1]" {
		t.Fatalf("hook order %v", order)
	}
}

func TestKillFinishedProcNoop(t *testing.T) {
	e := NewEnv(1)
	p := e.Spawn("quick", func(p *Proc) {})
	e.Spawn("killer", func(q *Proc) {
		q.Delay(Millisecond)
		p.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Fatal("proc not done")
	}
}

func TestKillAt(t *testing.T) {
	e := NewEnv(1)
	steps := 0
	victim := e.Spawn("victim", func(p *Proc) {
		// Bounded so that a run that misses the kill ends.
		for steps < 100 {
			p.Delay(Millisecond)
			steps++
		}
	})
	victim.KillAt(Time(5*Millisecond) + 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
}

func TestProcPanicSurfacesThroughRun(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("bad", func(p *Proc) {
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}

func TestStop(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Delay(Millisecond)
		}
	})
	sentinel := errors.New("halt")
	e.After(10*Millisecond, func() { e.Stop(sentinel) })
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv(1)
	ticks := 0
	e.Spawn("loop", func(p *Proc) {
		// Bounded so that a run that ignores the horizon ends.
		for ticks < 100 {
			p.Delay(Millisecond)
			ticks++
		}
	})
	if err := e.RunUntil(Time(10 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d", ticks)
	}
}

// TestSerialRunUntilResumes is the serial twin of
// TestParallelRunUntilResumes: the timer a RunUntil stops at is
// re-armed by the next run, so procs sleeping across the horizon wake
// on time.
func TestSerialRunUntilResumes(t *testing.T) {
	e := NewEnv(3)
	woke := make([]Time, 2)
	for g := range woke {
		g := g
		e.Spawn(fmt.Sprintf("sleeper%d", g), func(p *Proc) {
			p.Delay(Duration(10*(g+1)) * Microsecond)
			woke[g] = e.Now()
		})
	}
	if err := e.RunUntil(Time(5 * Microsecond)); err != nil {
		t.Fatalf("first RunUntil: %v", err)
	}
	if woke[0] != 0 || woke[1] != 0 {
		t.Fatalf("sleepers woke before the horizon: %v", woke)
	}
	if err := e.RunUntil(Time(15 * Microsecond)); err != nil {
		t.Fatalf("second RunUntil: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("final Run: %v", err)
	}
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond)}
	if fmt.Sprint(woke) != fmt.Sprint(want) {
		t.Fatalf("sleepers woke at %v, want %v", woke, want)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEnv(1)
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Env().Spawn("child", func(c *Proc) {
			c.Delay(Millisecond)
			childRan = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

// Property: with the same seed, two identical simulations produce
// identical interleavings.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []string {
		var log []string
		e := NewEnv(seed)
		wq := NewWaitQueue(e, "q")
		for i := 0; i < 4; i++ {
			name := fmt.Sprint("p", i)
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Delay(Duration(e.Rand().Intn(1000)) * Microsecond)
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
					if e.Rand().Bool(0.5) {
						wq.Wake()
					} else if e.Rand().Bool(0.3) {
						wq.Wait(p)
					}
				}
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for {
				p.Delay(10 * Millisecond)
				if wq.WakeAll() == 0 && p.Now() > Time(Second) {
					return
				}
			}
		})
		_ = e.RunUntil(Time(2 * Second))
		return log
	}
	a, b := run(42), run(42)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different traces")
	}
	c := run(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// Property: timers always fire in non-decreasing time order.
func TestTimerMonotonicityProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEnv(7)
		var fired []Time
		for _, d := range delays {
			e.After(Duration(d)*Microsecond, func() {
				fired = append(fired, e.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn stays in range and Float64 in [0,1).
func TestRandRangesProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
			if f := r.Float64(); f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestYield(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a1 b a2]" {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 0 {
		t.Fatalf("Yield advanced the clock to %v", e.Now())
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(7)
	child := r.Fork()
	// Streams should diverge.
	same := 0
	for i := 0; i < 16; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("forked stream identical to parent")
	}
	if r.DurationN(0) != 0 {
		t.Fatal("DurationN(0) must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestTimeDurationStrings(t *testing.T) {
	if Time(1500*Microsecond).String() != "1.500ms" {
		t.Fatalf("Time string %q", Time(1500*Microsecond).String())
	}
	if Duration(2*Millisecond).String() != "2.000ms" {
		t.Fatalf("Duration string %q", Duration(2*Millisecond).String())
	}
	if Duration(Second).Milliseconds() != 1000 {
		t.Fatal("Milliseconds conversion")
	}
}

func TestWaitQueueNameAndLen(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "queue-name")
	if wq.Name() != "queue-name" || wq.Len() != 0 {
		t.Fatal("wait queue accessors")
	}
}
