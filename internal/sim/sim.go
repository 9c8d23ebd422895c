// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel runs simulated processes ("simprocs") under a strict token
// handoff discipline: exactly one simproc executes at any instant, and
// virtual time advances only when every simproc is parked. This makes
// every run with the same seed bit-for-bit reproducible, which is what
// lets the experiment harness reproduce the paper's latency tables as
// stable virtual-time measurements.
//
// A simproc is a function body wrapped by a *Proc and run on a
// goroutine recycled from earlier bodies, so it starts on a stack they
// already grew. It may block on timers (Delay), on wait queues
// (WaitQueue), or simply finish. The scheduler resumes runnable
// simprocs in deterministic FIFO order and, when none are runnable,
// pops the earliest timer and advances the virtual clock.
//
// The simproc that gives up the processor makes the next scheduling
// decision itself and hands the processor straight to its successor,
// as Modula-2's TRANSFER does: one runtime coroutine switch (see
// switchPoint), never a trip through the Go scheduler. A parking proc
// records the switch point it parks on; a finishing one starts an
// unstarted successor on its own goroutine, with no switch, or else
// goes idle. When a simproc is its own successor (it yielded but is
// already runnable again) park returns with no switch at all, and a
// Delay that nothing could interrupt (no proc ready, no timer due by
// its wake) does not park: it advances the clock in place, with no
// timer pushed, popped or fired (see Proc.Delay). The driver (runCore,
// on Env.Run's goroutine or a shard's worker) resumes the first proc
// and is resumed only when the run is over.
//
// Token discipline: a simproc may lend its identity to strands (a LYNX
// thread is a strand of its process's simproc; see Strand). Its own
// goroutine parks while they run, and they hand the processor among
// themselves the same way, one switch per handoff, so at most one of
// them uses the Proc at a time. Parking the proc from a strand suspends
// that strand, so it is the one the proc's next resume continues.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// Time is a virtual-time instant in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

func (t Time) String() string {
	return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
}

func (d Duration) String() string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
}

// Milliseconds reports d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// ErrDeadlock is returned by Env.Run when live simprocs remain but none
// is runnable and no timer is pending.
var ErrDeadlock = errors.New("sim: deadlock: live procs blocked with no pending timers")

// endReason records why scheduling stopped; Run turns it into a return
// value.
type endReason int

const (
	endDone     endReason = iota // no live procs remain
	endStopped                   // Stop was called
	endLimit                     // virtual time would pass RunUntil's horizon
	endDeadlock                  // live procs, nothing runnable, no timers
)

// Env is a simulation environment: a virtual clock, a scheduler, and the
// set of simprocs it multiplexes.
type Env struct {
	now     Time
	ready   procRing // FIFO ready queue
	timers  timerHeap
	seq     int64 // tiebreak for simultaneous timers
	nextPID int
	live    int // procs spawned and not yet finished
	rng     *Rand
	running bool
	stopped bool
	stopErr error
	// liveHead lists the live procs, linked through
	// Proc.prevLive/nextLive; only deadlock diagnostics read it.
	liveHead *Proc

	// limit and end are the active run's horizon and exit reason.
	limit Time
	end   endReason
	// drv is the switch point the driver is parked on during a run; the
	// goroutine that ends the run transfers there.
	drv *switchPoint
	// idle lists the goroutines that finished bodies during the current
	// run, by the switch point each is parked on (see releaseIdle).
	idle []*switchPoint
	// panicked and goexit record a panic or runtime.Goexit that ended
	// the run (or a strand's turn) on another goroutine, for the driver
	// (or Lend) to raise again.
	panicked any
	goexit   bool
	// timerFree is a freelist of recycled timers (hot paths schedule
	// and retire one timer per scheduling decision).
	timerFree *timer

	// sh is non-nil when this env is one shard (proc group) of a
	// parallel partition; par is non-nil on the root env that owns the
	// partition. See parallel.go.
	sh  *shardState
	par *parCoord
	// overHorizon stashes the timer a run popped beyond its horizon, so
	// the next RunUntil can re-arm it.
	overHorizon *timer
}

// NewEnv creates an environment whose random source is seeded with seed.
func NewEnv(seed uint64) *Env {
	return &Env{
		rng:   NewRand(seed),
		limit: -1,
	}
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *Rand { return e.rng }

// Spawn creates a new simproc running fn and places it at the back of the
// ready queue. It may be called before Run, from simproc/timer context,
// or — on a shard env — during a parallel run: a mid-run spawn lands on
// the shard it was issued on (its home shard) and draws its pid from
// that shard's strided allocator, so its pid is the same at any worker
// count.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:  e,
		id:   e.allocPID(),
		name: name,
		fn:   fn,
	}
	e.live++
	p.nextLive = e.liveHead
	if e.liveHead != nil {
		e.liveHead.prevLive = p
	}
	e.liveHead = p
	e.wake(p)
	return p
}

// allocPID assigns the next proc id. Before the partition's first run,
// shard envs draw from the root's counter (so pid assignment matches
// the serial run that would have spawned the same procs in the same
// program order on one env). From the first run on, each shard owns a
// strided pid sequence (base + idx, step = shard count): a shard's pids
// are then a pure function of its own spawn order, never of how
// concurrently executing groups interleave, which keeps mid-run
// launches deterministic at any worker count.
func (e *Env) allocPID() int {
	if e.par != nil {
		panic(fmt.Sprintf(
			"sim: Spawn on the partitioned root env (%d shards); a mid-run launch lives on its creator's home shard — Spawn on that shard env (see Env.EnterParallel)",
			len(e.par.shards)))
	}
	if sh := e.sh; sh != nil {
		if sh.co.started {
			pid := sh.pidNext
			sh.pidNext += sh.pidStride
			return pid
		}
		sh.co.root.nextPID++
		return sh.co.root.nextPID
	}
	e.nextPID++
	return e.nextPID
}

// After schedules fn to run in scheduler context at now+d. The callback
// must not block; it may spawn procs, wake waiters, and schedule further
// callbacks. Callbacks are the mechanism kernels use for message
// delivery.
func (e *Env) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedFunc(e.now+Time(d), fn)
}

// At schedules fn to run in scheduler context at time t (or now, if t is
// in the past).
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedFunc(t, fn)
}

// schedFunc schedules a callback timer.
func (e *Env) schedFunc(t Time, fn func()) {
	if e.par != nil {
		panic(fmt.Sprintf(
			"sim: timer on the partitioned root env (%d shards); schedule on the home shard env that owns the affected procs — root timers would race the shard runs (see Env.EnterParallel)",
			len(e.par.shards)))
	}
	tm := e.allocTimer()
	tm.at = t
	e.seq++
	tm.seq = e.seq
	tm.fn = fn
	e.timers.push(tm)
}

// schedSleep schedules a proc wakeup timer (the allocation-free Delay
// path: no callback closure is needed to wake a proc).
func (e *Env) schedSleep(t Time, p *Proc) *timer {
	tm := e.allocTimer()
	tm.at = t
	e.seq++
	tm.seq = e.seq
	tm.proc = p
	e.timers.push(tm)
	return tm
}

// timerChunk is the arena granularity for shard envs. Shards allocate
// timers in chunks so each group's timer state lives in a handful of
// contiguous blocks owned by that group's cache lines, instead of
// heap-interleaved one-at-a-time allocations shared across groups.
const timerChunk = 256

// allocTimer takes a timer from the freelist, or allocates one.
func (e *Env) allocTimer() *timer {
	if t := e.timerFree; t != nil {
		e.timerFree = t.nextFree
		t.nextFree = nil
		return t
	}
	if e.sh != nil {
		chunk := make([]timer, timerChunk)
		for i := len(chunk) - 1; i > 0; i-- {
			chunk[i].nextFree = e.timerFree
			e.timerFree = &chunk[i]
		}
		return &chunk[0]
	}
	return &timer{}
}

// freeTimer recycles a retired timer. Callers must guarantee no live
// reference remains (Delay's sleepTmr is cleared before its timer fires
// or is cancelled).
func (e *Env) freeTimer(t *timer) {
	t.fn = nil
	t.proc = nil
	t.cancelled = false
	t.nextFree = e.timerFree
	e.timerFree = t
}

// Stop aborts the run: Env.Run returns err (or nil) after the currently
// executing simproc next yields. Remaining procs are left parked.
func (e *Env) Stop(err error) {
	e.stopped = true
	e.stopErr = err
}

// Run executes the simulation until no live simprocs remain, a deadlock
// is detected, or Stop is called. It returns nil on clean completion.
func (e *Env) Run() error {
	return e.RunUntil(-1)
}

// RunUntil is Run with a horizon: once virtual time would advance past
// limit (limit >= 0), the run stops cleanly and returns nil. Procs still
// live at the horizon stay parked, and a later RunUntil or Run resumes
// them.
func (e *Env) RunUntil(limit Time) error {
	if e.par != nil {
		return e.par.runRoot(limit)
	}
	if sh := e.sh; sh != nil {
		return fmt.Errorf("sim: Run on shard env %d (run the partitioned root env)", sh.idx)
	}
	if e.running {
		return errors.New("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()

	e.runCore(limit)
	switch e.end {
	case endStopped:
		return e.stopErr
	case endDeadlock:
		return fmt.Errorf("%w at %v\n%s", ErrDeadlock, e.now, e.diagnose())
	default: // endDone, endLimit
		return nil
	}
}

// runCore is the driver: it resumes the first proc the scheduler picks
// and is itself resumed when the run is over; e.end records why it
// stopped. In between, simproc goroutines hand the processor straight
// to one another.
func (e *Env) runCore(limit Time) {
	e.limit = limit
	if t := e.overHorizon; t != nil {
		// Re-arm the timer the previous run popped beyond its horizon.
		e.overHorizon = nil
		e.timers.push(t)
	}
	if n := e.next(); n != nil {
		e.drv = e.pointOf(n)
		e.drv.transfer()
	}
	e.releaseIdle()
	e.raise()
}

// raise raises again, on the calling goroutine, the panic or
// runtime.Goexit recorded in panicked or goexit.
func (e *Env) raise() {
	if e.goexit {
		e.goexit = false
		runtime.Goexit()
	}
	if r := e.panicked; r != nil {
		e.panicked = nil
		panic(r)
	}
}

// next makes one scheduling decision on behalf of the proc giving up
// the processor (or the driver, at the start of a run): it returns the
// next proc to run, firing due timers (which advances the virtual
// clock) until one becomes runnable. A nil result means the run is
// over; e.end says why.
func (e *Env) next() *Proc {
	for {
		if e.stopped {
			e.end = endStopped
			return nil
		}
		if p := e.ready.pop(); p != nil {
			return p
		}
		if e.timers.len() > 0 {
			t := e.timers.pop()
			if t.cancelled {
				e.freeTimer(t)
				continue // discard without advancing the clock
			}
			if e.limit >= 0 && t.at > e.limit {
				e.overHorizon = t
				e.end = endLimit
				return nil
			}
			if t.at > e.now {
				e.now = t.at
			}
			e.fire(t)
			continue
		}
		if e.live == 0 {
			e.end = endDone
			return nil
		}
		e.end = endDeadlock
		return nil
	}
}

// fire runs one due timer and recycles it.
func (e *Env) fire(t *timer) {
	if p := t.proc; p != nil {
		// Sleep timer: wake the proc directly.
		p.sleepTmr = nil
		e.freeTimer(t)
		e.wake(p)
		return
	}
	fn := t.fn
	e.freeTimer(t)
	fn()
}

// finish retires p, the current proc (already marked done), and
// returns its successor. Called on the proc's goroutine as its body
// ends. Unlinking p from the live list leaves the env holding no
// reference to it.
func (e *Env) finish(p *Proc) *Proc {
	e.live--
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		e.liveHead = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
	return e.next()
}

// wake moves p to the back of the ready queue. It is idempotent per park:
// p must currently be parked and not already readied.
func (e *Env) wake(p *Proc) {
	e.ready.push(p)
}

// diagnose renders the set of parked procs for deadlock reports.
func (e *Env) diagnose() string {
	lines := e.diagnoseLines()
	sort.Strings(lines)
	if len(lines) == 0 {
		return "  (no registered wait queues; procs blocked on raw parks)"
	}
	return strings.Join(lines, "\n")
}

// diagnoseLines renders one line per parked proc, unsorted (the parallel
// coordinator merges lines from several shards before sorting).
func (e *Env) diagnoseLines() []string {
	// A parked proc records the queue it waits on; procs parked on a
	// timer or outside any queue have no line.
	var lines []string
	for p := e.liveHead; p != nil; p = p.nextLive {
		if wq := p.waitQ; wq != nil {
			lines = append(lines, fmt.Sprintf("  proc %d (%s) blocked on %s", p.id, p.name, wq.name))
		}
	}
	return lines
}

// procRing is a growable ring buffer of procs: the FIFO ready queue
// without the per-pop slice shift of the old []*Proc representation.
// Capacity is always a power of two.
type procRing struct {
	buf  []*Proc
	head int
	n    int
}

func (r *procRing) push(p *Proc) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *procRing) pop() *Proc {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *procRing) grow() {
	size := len(r.buf) * 2
	if size < 16 {
		size = 16
	}
	buf := make([]*Proc, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

type timer struct {
	at  Time
	seq int64
	// Exactly one of fn/proc is set: a callback timer runs fn in
	// scheduler context; a sleep timer wakes proc.
	fn        func()
	proc      *Proc
	cancelled bool
	nextFree  *timer
}

// timerLess orders timers by firing time, ties broken by scheduling
// order — the total order that makes runs deterministic.
func timerLess(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerHeap is an indexed 4-ary min-heap. The wider fan-out roughly
// halves the levels touched per push/pop versus a binary heap, and the
// concrete element type avoids container/heap's interface boxing on
// every operation.
type timerHeap struct {
	s []*timer
}

func (h *timerHeap) len() int { return len(h.s) }

func (h *timerHeap) push(t *timer) {
	h.s = append(h.s, t)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !timerLess(t, h.s[parent]) {
			break
		}
		h.s[i] = h.s[parent]
		i = parent
	}
	h.s[i] = t
}

func (h *timerHeap) pop() *timer {
	s := h.s
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	h.s = s[:n]
	if n == 0 {
		return top
	}
	// Sift the displaced last element down from the root.
	s = h.s
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if timerLess(s[c], s[m]) {
				m = c
			}
		}
		if !timerLess(s[m], last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}
