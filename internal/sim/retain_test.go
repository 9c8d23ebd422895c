package sim

import (
	"errors"
	"testing"
)

// TestDeadlockDiagnoseText pins the exact deadlock report: one line per
// proc parked on a wait queue, sorted, naming the queue. Finished procs,
// killed waiters and empty queues leave no line.
func TestDeadlockDiagnoseText(t *testing.T) {
	e := NewEnv(1)
	qa := NewWaitQueue(e, "qa")
	qb := NewWaitQueue(e, "qb")
	NewWaitQueue(e, "qempty")
	relay := NewWaitQueue(e, "relay")
	e.Spawn("x", func(p *Proc) { qa.Wait(p) })
	victim := e.Spawn("victim", func(p *Proc) { qa.Wait(p) })
	e.Spawn("y", func(p *Proc) { qa.Wait(p) })
	e.Spawn("z", func(p *Proc) {
		relay.Wait(p) // woken once, then parks for good on qb
		qb.Wait(p)
	})
	e.Spawn("done", func(p *Proc) {
		p.Delay(Millisecond)
		victim.Kill()
		relay.Wake()
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	want := "sim: deadlock: live procs blocked with no pending timers at 1.000ms\n" +
		"  proc 1 (x) blocked on qa\n" +
		"  proc 3 (y) blocked on qa\n" +
		"  proc 4 (z) blocked on qb"
	if err.Error() != want {
		t.Fatalf("deadlock report:\n got %q\nwant %q", err.Error(), want)
	}
}

// TestDeadlockDiagnoseRawPark pins the report when the only live proc is
// parked outside any wait queue.
func TestDeadlockDiagnoseRawPark(t *testing.T) {
	e := NewEnv(1)
	e.Spawn("raw", func(p *Proc) { p.park() })
	err := e.Run()
	want := "sim: deadlock: live procs blocked with no pending timers at 0.000ms\n" +
		"  (no registered wait queues; procs blocked on raw parks)"
	if err == nil || err.Error() != want {
		t.Fatalf("deadlock report:\n got %q\nwant %q", err, want)
	}
}

// noStaleSlots reports an error if any slot of wq's backing array past its length
// still points at a proc: a vacated slot must not keep a woken or killed
// proc (and everything its closure reaches) alive.
func noStaleSlots(t *testing.T, what string, wq *WaitQueue) {
	t.Helper()
	full := wq.waiters[:cap(wq.waiters)]
	for i := len(wq.waiters); i < len(full); i++ {
		if full[i] != nil {
			t.Errorf("%s: slot %d of %d still holds proc %q", what, i, cap(full), full[i].name)
			return
		}
	}
}

func TestWaitQueueClearsVacatedSlots(t *testing.T) {
	e := NewEnv(1)
	wq := NewWaitQueue(e, "q")
	all := NewWaitQueue(e, "all")
	var procs []*Proc
	for _, n := range []string{"a", "b", "c", "d"} {
		procs = append(procs, e.Spawn(n, func(p *Proc) { wq.Wait(p) }))
	}
	for _, n := range []string{"e", "f", "g"} {
		e.Spawn(n, func(p *Proc) { all.Wait(p) })
	}
	e.Spawn("waker", func(p *Proc) {
		p.Yield()
		wq.WakeValue(1)
		noStaleSlots(t, "WakeValue", wq)
		procs[2].Kill() // c: removed from the middle
		noStaleSlots(t, "Kill from the middle", wq)
		procs[3].Kill() // d: removed from the tail
		noStaleSlots(t, "Kill at the tail", wq)
		wq.Wake()
		noStaleSlots(t, "Wake", wq)
		if wq.Len() != 0 {
			t.Errorf("queue still holds %d waiters", wq.Len())
		}
		all.WakeAll()
		noStaleSlots(t, "WakeAll", all)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
