package sim

import (
	"errors"
	"fmt"
)

// ErrKilled is the panic payload delivered to a simproc resumed after
// Kill. The proc wrapper recovers it; user code that must clean up on
// crash may also recover it, re-panicking if the payload is unexpected.
type killedPanic struct{ p *Proc }

func (k killedPanic) Error() string {
	return fmt.Sprintf("sim: proc %d (%s) killed", k.p.id, k.p.name)
}

// ErrProcDone is returned by operations attempted on a finished proc.
var ErrProcDone = errors.New("sim: proc already finished")

// Proc is a simulated process: a body run on a goroutine scheduled by
// an Env.
type Proc struct {
	env  *Env
	id   int
	name string
	fn   func(p *Proc)
	// sp is the switch point the goroutine that parked the proc (its
	// own, or a strand's) is parked on while the proc is parked; nil
	// while it runs, before it starts and after it finishes.
	sp *switchPoint
	// lent is the switch point the proc's own goroutine is parked on
	// while the proc is lent to its strands (see Lend).
	lent   *switchPoint
	done   bool
	killed bool

	// Park bookkeeping: at most one of these is active while parked.
	waitQ     *WaitQueue // queue this proc is enqueued on, if any
	sleepTmr  *timer     // pending Delay timer, if any
	onKill    []func()   // LIFO cleanup hooks run when the proc dies killed
	wakeValue any        // value passed by the waker, returned by Wait

	// prevLive/nextLive link the proc into its env's live list from
	// Spawn until it finishes (deadlock diagnostics walk the list).
	prevLive, nextLive *Proc
}

// ID reports the proc's unique id within its Env (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Name reports the label given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now reports current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done reports whether the proc's function has returned.
func (p *Proc) Done() bool { return p.done }

// run is the proc's body wrapping the user function, run by runBody.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				// Surface the panic through Stop, so Run returns it
				// as an error instead of panicking in its caller.
				p.env.Stop(fmt.Errorf("sim: proc %d (%s) panicked: %v", p.id, p.name, r))
			}
			for i := len(p.onKill) - 1; i >= 0; i-- {
				p.onKill[i]()
			}
		}
		p.done = true
	}()
	// Run the body — unless the proc was killed before it ever ran
	// (spawned and killed within the same scheduling step, e.g. a helper
	// whose owner exits at spawn time). Kill's ready-queue branch relies
	// on the next resume-from-park to observe the flag, but a never-run
	// proc has no park to resume from: without this check its body would
	// start and could block forever on state its (dead) owner will never
	// advance.
	if p.killed {
		panic(killedPanic{p})
	}
	p.fn(p)
}

// park gives up the processor until woken. The parking proc runs the
// scheduling decision itself: if it is its own successor, park returns
// with no switch at all (the fast path); otherwise it records the
// switch point it parks on and transfers there, resuming its successor
// (or the driver, when the run is over) in one coroutine switch. On
// wake, if the proc was killed while parked, park panics with
// killedPanic, unwinding the user function (deferred cleanups run).
func (p *Proc) park() {
	e := p.env
	if n := e.next(); n != p {
		p.sp = e.pointOf(n)
		p.sp.transfer()
	}
	if p.killed {
		panic(killedPanic{p})
	}
}

// pointOf returns the switch point to transfer on to resume n: the
// point n's goroutine is parked on, or the driver's when n is nil. The
// caller is about to park there, so the record is cleared. An unstarted
// proc gets an idle goroutine, which starts its body when resumed.
func (e *Env) pointOf(n *Proc) *switchPoint {
	if n == nil {
		return take(&e.drv)
	}
	if n.sp == nil {
		s := e.idleG()
		s.start = n
		return s
	}
	return take(&n.sp)
}

// take clears the record *sp of a parked goroutine's switch point and
// returns the point.
func take(sp **switchPoint) *switchPoint {
	s := *sp
	*sp = nil
	return s
}

// runBody runs p's body on the calling goroutine, retires p and returns
// its successor.
func (e *Env) runBody(p *Proc) (succ *Proc) {
	finished := false
	defer func() {
		if finished {
			return
		}
		if r := recover(); r != nil {
			// A panic that escaped the body's own recovery (an OnKill
			// hook, or a timer callback fired while the successor was
			// picked) ends the run; the driver raises it again.
			e.panicked = r
			succ = nil
			return
		}
		// runtime.Goexit in the body (t.FailNow in a simproc) cannot be
		// stopped: the goroutine ends the run, so that the driver exits
		// the goroutine that called Run, as a direct call would. It
		// stays parked on the driver's switch point for good, since its
		// own exit would wake whatever is parked on its own point.
		e.goexit = true
		e.pointOf(nil).transfer()
	}()
	p.run()
	succ = e.finish(p)
	finished = true
	return succ
}

// A Strand is a line of control that runs under a simproc's identity
// on a goroutine of its own; a LYNX thread is a strand of its process's
// simproc. The proc's goroutine lends the proc to its strands (Lend).
// They take turns, handing the processor straight to one another
// (Switch), and a strand that parks the proc (Delay, WaitQueue.Wait) is
// the one the proc's next resume continues. A Strand is kept by value
// and must not move once it has started.
type Strand struct {
	p *Proc
	// fn is the body until the strand starts. It returns the strand to
	// hand the processor to as it ends, nil for the proc's goroutine.
	fn func() *Strand
	// sp is the switch point the strand's goroutine is parked on while
	// the strand is parked.
	sp *switchPoint
}

// NewStrand returns a strand of p that runs fn once switched to.
func (p *Proc) NewStrand(fn func() *Strand) Strand { return Strand{p: p, fn: fn} }

// Lend parks p's goroutine, switching to first, until a strand hands
// the processor back. A panic or runtime.Goexit that ends a strand's
// turn is raised again here, so a kill raised in a strand unwinds p
// through its own kill path.
func (p *Proc) Lend(first *Strand) {
	p.lent = p.strandPoint(first)
	p.lent.transfer()
	p.env.raise()
}

// Switch hands the processor from st, the running strand, to n, in one
// coroutine switch; it returns when a strand switches back to st.
func (st *Strand) Switch(n *Strand) {
	st.sp = st.p.strandPoint(n)
	st.sp.transfer()
}

// strandPoint is pointOf for p's strands, with p's own goroutine in the
// driver's place.
func (p *Proc) strandPoint(n *Strand) *switchPoint {
	if n == nil {
		return take(&p.lent)
	}
	if n.sp == nil {
		s := p.env.idleG()
		s.strand = n
		return s
	}
	return take(&n.sp)
}

// runStrands runs st's body on the calling goroutine, then each
// unstarted successor in turn, and returns the switch point of the
// first successor that has started. Like runBody, it hands a panic or
// runtime.Goexit that escapes a body to p's goroutine to raise again.
func runStrands(st *Strand) (s *switchPoint) {
	p := st.p
	defer func() {
		if s != nil {
			return
		}
		if r := recover(); r != nil {
			p.env.panicked = r
			s = take(&p.lent)
			return
		}
		// runtime.Goexit: the goroutine stays parked there for good.
		p.env.goexit = true
		take(&p.lent).transfer()
	}()
	for {
		fn := st.fn
		st.fn = nil
		if st = fn(); st == nil || st.fn == nil {
			return p.strandPoint(st)
		}
	}
}

// Yield gives up the processor until the scheduler next reaches this proc
// (same virtual instant; other ready procs run first).
func (p *Proc) Yield() {
	p.env.wake(p)
	p.park()
}

// Delay parks the proc for d of virtual time. It yields to procs
// already ready and to timers due at or before its wake time, so
// Delay(0) still yields to those due at the same instant.
//
// When nothing could run before the wake (the ready queue is empty and
// no timer is due by then) Delay advances the clock in place and
// returns: the sleep timer it would push is the one the scheduler
// would pop next, handing the processor straight back. A killed proc,
// a stopped run and a wake past the horizon take the timer path, whose
// park raises the kill, ends the run or stops at the horizon.
func (p *Proc) Delay(d Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	t := e.now + Time(d)
	if !p.killed && !e.stopped && e.ready.n == 0 &&
		(e.timers.len() == 0 || e.timers.s[0].at > t) &&
		(e.limit < 0 || t <= e.limit) {
		e.now = t
		return
	}
	p.sleepTmr = e.schedSleep(t, p)
	p.park()
}

// OnKill registers fn to run (LIFO) if the proc dies via Kill. Used by
// kernels to model "process termination destroys its resources".
func (p *Proc) OnKill(fn func()) {
	p.onKill = append(p.onKill, fn)
}

// Kill marks the proc dead. If it is parked, it is woken immediately and
// unwinds with cleanup; if it is currently running it unwinds at its next
// park. Killing a finished proc is a no-op.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	switch {
	case p.waitQ != nil:
		p.waitQ.remove(p)
		p.env.wake(p)
	case p.sleepTmr != nil:
		p.sleepTmr.cancelled = true
		p.sleepTmr = nil
		p.env.wake(p)
	default:
		// Running, or already in the ready queue (between park and
		// resume): either way its park observes the flag when it next
		// returns. Nothing more to do.
	}
}

// KillAt schedules a Kill at absolute virtual time t (crash injection).
func (p *Proc) KillAt(t Time) {
	p.env.At(t, func() { p.Kill() })
}

// IsKilled reports whether a recovered panic value is the kill signal a
// parked proc receives after Kill. Strands use it to distinguish crash
// unwinding from real panics.
func IsKilled(r any) bool {
	_, ok := r.(killedPanic)
	return ok
}
