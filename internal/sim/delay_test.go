package sim

import (
	"errors"
	"strings"
	"testing"
)

// Delay advances the clock in place when nothing could run before its
// wake. Each test below pins one condition under which it must take the
// timer path instead, with the behaviour that path gives.

// A callback due at the wake instant was scheduled first, so it runs
// first: timers due at one instant fire in scheduling order.
func TestDelayInPlaceTie(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("lone", func(p *Proc) {
		e.After(Millisecond, func() { order = append(order, "callback@"+e.Now().String()) })
		p.Delay(Millisecond)
		order = append(order, "proc@"+p.Now().String())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "callback@1.000ms proc@1.000ms"; got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// A proc killed while running does not run past its next Delay; its
// OnKill hooks run at the wake time the timer path reaches.
func TestDelayInPlaceKilled(t *testing.T) {
	e := NewEnv(1)
	var hookAt Time = -1
	reached := false
	e.Spawn("victim", func(p *Proc) {
		p.Delay(Millisecond)
		p.OnKill(func() { hookAt = p.Now() })
		p.Kill()
		p.Delay(2 * Millisecond)
		reached = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed proc ran past its Delay")
	}
	if hookAt != Time(3*Millisecond) {
		t.Fatalf("OnKill hook ran at %v, want 3.000ms", hookAt)
	}
}

// A Delay after Stop ends the run with Stop's error, the clock unmoved.
func TestDelayInPlaceStopped(t *testing.T) {
	e := NewEnv(1)
	sentinel := errors.New("halt")
	e.Spawn("stopper", func(p *Proc) {
		p.Delay(Millisecond)
		e.Stop(sentinel)
		p.Delay(Millisecond)
		t.Error("proc ran past a Delay after Stop")
	})
	if err := e.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("Run = %v, want %v", err, sentinel)
	}
	if e.Now() != Time(Millisecond) {
		t.Fatalf("clock at %v after Stop, want 1.000ms", e.Now())
	}
}

// A Delay whose wake lies past RunUntil's horizon stops the run there,
// the clock at the last wake within it.
func TestDelayInPlaceHorizon(t *testing.T) {
	e := NewEnv(1)
	ticks := 0
	e.Spawn("loop", func(p *Proc) {
		// Bounded so that a run that ignores the horizon ends.
		for ticks < 100 {
			p.Delay(3 * Millisecond)
			ticks++
		}
	})
	if err := e.RunUntil(Time(10 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 || e.Now() != Time(9*Millisecond) {
		t.Fatalf("ticks = %d at %v, want 3 at 9.000ms", ticks, e.Now())
	}
}
