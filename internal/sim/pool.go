package sim

import "sync"

// poolIdleCap bounds the workers Go keeps parked for reuse. It is sized
// to the swing in live processes of an open-loop run (each live process
// keeps its simproc's goroutine and any parked thread's): at 64, a SODA
// open loop near saturation starts a new goroutine for about one
// completed unit in three, against 13 per unit with none kept. An idle
// worker costs only its stack, which the garbage collector shrinks
// while it sits idle.
const poolIdleCap = 64

// pool is the free list of idle workers behind Go: each entry is the
// channel an idle worker waits on for its next body.
var pool struct {
	sync.Mutex
	idle []chan func()
}

// Go runs fn on a recycled goroutine, starting a new one only when no
// idle worker is parked. A reused worker keeps the stack it grew for
// earlier bodies, so simprocs and LYNX threads do not each pay for
// stack growth by copying. An idle worker holds no reference to the
// bodies it ran.
func Go(fn func()) {
	pool.Lock()
	if n := len(pool.idle); n > 0 {
		work := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		pool.Unlock()
		work <- fn
		return
	}
	pool.Unlock()
	go worker(make(chan func(), 1), fn)
}

// worker runs bodies until the pool is full when one finishes.
func worker(work chan func(), fn func()) {
	for {
		fn()
		fn = nil
		pool.Lock()
		if len(pool.idle) >= poolIdleCap {
			pool.Unlock()
			return
		}
		pool.idle = append(pool.idle, work)
		pool.Unlock()
		fn = <-work
	}
}
