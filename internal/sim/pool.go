//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// poolIdleCap bounds the coroutines kept idle for reuse. It is sized to
// the swing in live processes of an open-loop run (each live process
// keeps its simproc's coroutine and any parked thread's): at 64, a SODA
// open loop near saturation starts a new coroutine for about one
// completed unit in three, against 13 per unit with none kept. An idle
// coroutine costs only its stack, which the garbage collector shrinks
// while it sits idle.
const poolIdleCap = 64

// pool is the free list of idle coroutines behind NewCoro.
var pool struct {
	sync.Mutex
	idle []*Coro
}

// Coro runs a body on a runtime coroutine (iter.Pull): Resume switches
// to the body and Park switches back, without entering the Go
// scheduler. Simprocs and LYNX threads run on Coros. A Coro whose body
// has returned goes back to a free list, so the next body starts on a
// stack that earlier bodies already grew.
//
// A coroutine does not care which goroutine switches it, so a body may
// resume a second Coro that parks the first one: the second is then
// the one the first's next Resume continues.
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
