//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// This file holds the two kinds of runtime coroutine (iter.Pull) the
// engine runs on:
//
//   - Coro, an asymmetric coroutine: Resume switches to its body and
//     Park switches back. LYNX threads run on Coros, resumed by their
//     process's simproc. Idle Coros wait on a free list capped at
//     poolIdleCap.
//   - switchPoint, used symmetrically: simprocs run on goroutines that
//     hand the processor straight to one another through switch points,
//     one coroutine switch per handoff, as Modula-2's TRANSFER does.
//     Idle simproc goroutines wait on their own list, procIdle.

// poolIdleCap bounds the Coros kept idle for reuse. It is sized to the
// swing in live processes of an open-loop run (each live process keeps
// any parked thread's Coro): at 64, a SODA open loop near saturation
// starts a new coroutine for about one completed unit in three, against
// 13 per unit with none kept. An idle coroutine costs only its stack,
// which the garbage collector shrinks while it sits idle.
const poolIdleCap = 64

// pool is the free list of idle coroutines behind NewCoro.
var pool struct {
	sync.Mutex
	idle []*Coro
}

// Coro runs a body on a runtime coroutine (iter.Pull): Resume switches
// to the body and Park switches back, without entering the Go
// scheduler. LYNX threads run on Coros. A Coro whose body has returned
// goes back to a free list, so the next body starts on a stack that
// earlier bodies already grew.
//
// A coroutine does not care which goroutine switches it, so a body may
// park the simproc that resumed it (a LYNX thread parks its process's
// simproc): the body's goroutine then waits on the simproc's switch
// point, and the simproc's next resume continues the body there.
type Coro struct {
	next  func() (bool, bool)
	stop  func()
	yield func(bool) bool
	fn    func()
}

// NewCoro returns a Coro that runs fn from its first Resume, taking an
// idle one from the free list when there is one.
func NewCoro(fn func()) *Coro {
	pool.Lock()
	if n := len(pool.idle); n > 0 {
		c := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		pool.Unlock()
		c.fn = fn
		return c
	}
	pool.Unlock()
	c := &Coro{fn: fn}
	// The body loop yields true each time a body returns; Park yields
	// false. stop makes the pending yield return false, ending the loop.
	c.next, c.stop = iter.Pull(func(yield func(bool) bool) {
		c.yield = yield
		for {
			fn := c.fn
			c.fn = nil
			fn()
			if !yield(true) {
				return
			}
		}
	})
	return c
}

// Resume runs c's body until it parks or returns, and reports whether
// it returned. A returned body's Coro is back on the free list: the
// caller must drop it. A panic in the body ends the coroutine and
// re-raises in the caller.
func (c *Coro) Resume() bool {
	if done, _ := c.next(); !done {
		return false
	}
	pool.Lock()
	if len(pool.idle) < poolIdleCap {
		pool.idle = append(pool.idle, c)
		pool.Unlock()
		return true
	}
	pool.Unlock()
	c.stop()
	return true
}

// Park suspends c's body until its next Resume. It is called from
// within the body, or from a coroutine the body resumed.
func (c *Coro) Park() { c.yield(false) }

// A switchPoint is a runtime coroutine used as a symmetric switch. Every
// switch point has exactly one goroutine parked on it. transfer parks
// the calling goroutine there and resumes the one that was parked, so a
// switch point passes from goroutine to goroutine, and whoever resumes
// a parked goroutine must know the point it is parked on: a parked proc
// records it in Proc.sp, the driver in Env.drv, and an idle simproc
// goroutine is listed by it.
//
// iter.Pull's next and yield are the two sides of one switch: a
// goroutine parked by next is resumed by yield, and one parked by yield
// (or the point's own goroutine before it first runs) is resumed by
// next. transfer resumes the parked goroutine with next or yield
// according to the side it parked on, which onNext records; calling the
// other would panic in iter.Pull.
type switchPoint struct {
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	onNext bool
	// start is the proc an idle goroutine resumed here starts, set by
	// the resumer (see runProcs).
	start *Proc
}

// transfer parks the calling goroutine on s and resumes the goroutine
// parked there; it returns when another goroutine transfers on the
// switch point the caller is then parked on, which is s again.
func (s *switchPoint) transfer() {
	if s.onNext {
		s.onNext = false
		s.yield(struct{}{})
		return
	}
	s.onNext = true
	s.next()
}

// procIdle is the shared list of idle simproc goroutines, each named by
// the switch point it is parked on. Goroutines move between envs, and
// between the workers of a parallel partition, through it.
//
// Nothing trims the list: it is the high-water mark of simprocs live at
// once in the process (51 after the benchmark's open-soda workload),
// not bounded by poolIdleCap. A goroutine can exit only through its own
// switch point, waking the goroutine parked there, and that is safe
// only when the goroutine parked there is the one stopping it. An idle
// goroutine parked on a switch point another goroutine owns cannot be
// stopped.
var procIdle struct {
	sync.Mutex
	s []*switchPoint
}

// idleG returns a switch point with an idle simproc goroutine parked on
// it: one this env retired during the current run, else one from the
// shared list, else a new one.
func (e *Env) idleG() *switchPoint {
	if n := len(e.idle); n > 0 {
		s := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return s
	}
	procIdle.Lock()
	if n := len(procIdle.s); n > 0 {
		s := procIdle.s[n-1]
		procIdle.s[n-1] = nil
		procIdle.s = procIdle.s[:n-1]
		procIdle.Unlock()
		return s
	}
	procIdle.Unlock()
	s := &switchPoint{}
	// The goroutine never returns from runProcs, so stop is not needed.
	s.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		s.yield = yield
		runProcs(s)
	})
	return s
}

// releaseIdle hands the goroutines that finished bodies during the run
// to the shared list. A goroutine reaches the shared list only after it
// has parked, because another shard's worker could otherwise resume it
// in the middle of its switch. So during the run the env keeps them,
// and only its own procs start on them (by the time one of those runs,
// the goroutine that went idle has finished its switch); releaseIdle
// runs on the driver after the run, when every one has parked.
func (e *Env) releaseIdle() {
	if len(e.idle) == 0 {
		return
	}
	procIdle.Lock()
	procIdle.s = append(procIdle.s, e.idle...)
	procIdle.Unlock()
	clear(e.idle)
	e.idle = e.idle[:0]
}

// runProcs is the body of a simproc goroutine, first resumed on its own
// switch point s. It starts the proc the resumer named, then each
// unstarted successor in turn, with no switch. When the successor is a
// parked proc, or the driver at the end of the run, it joins the env's
// idle list parked on that proc's switch point, until a resumer names
// the next proc it starts.
func runProcs(s *switchPoint) {
	for {
		p := s.start
		s.start = nil
		e := p.env
		n := e.runBody(p)
		for n != nil && n.sp == nil {
			n = e.runBody(n)
		}
		// The successor is resolved before this goroutine joins the
		// idle list, so it can never be handed to itself.
		s = e.pointOf(n)
		e.idle = append(e.idle, s)
		s.transfer()
	}
}
