package core

import (
	"fmt"

	"repro/internal/sim"
)

// Thread is a LYNX thread of control: a coroutine within a process.
// Threads execute in mutual exclusion — exactly one thread runs at a
// time, and control changes hands only at well-defined block points —
// mirroring §2's "threads execute in mutual exclusion and may be
// managed by the language run-time package, much like the coroutines of
// Modula-2". Each thread is a strand of the process's simproc (see
// sim.Strand), run on a goroutine of its own: the blocking thread runs
// the dispatcher itself and switches straight to the next thread, as
// Modula-2's TRANSFER does.
//
// All Thread methods must be called from the thread's own goroutine
// while it is the running thread.
type Thread struct {
	pr *Process
	id int
	// name is the thread's label; for a Serve handler thread (serve
	// set) it is the operation name, and Name adds the "serve:" prefix.
	name  string
	serve bool
	// fn is the thread's body until its strand starts it.
	fn func(*Thread)
	// st is the strand the thread runs on, a value to save an allocation.
	st   sim.Strand
	dead bool
	// abortErr, when set by Abort, is delivered at the thread's next
	// (or current) block point.
	abortErr error
	// blocked describes what the thread is waiting on, for diagnostics
	// and for Abort to find and detach the waiter registration.
	blocked blockState
	// pendingWake carries the wake value attached by flushWakes until
	// park takes it (valid only while hasWake is set).
	pendingWake wake
	hasWake     bool
}

// wake is what a parked thread receives on resumption.
type wake struct {
	val any
	err error
}

// blockState records why a thread is parked.
type blockState struct {
	kind    blockKind
	end     *End
	sendRec *sendRecord // kind == blockSend or blockReply
	multi   []*End      // kind == blockReceive via ReceiveAny
}

type blockKind int

const (
	blockNone    blockKind = iota
	blockSend              // awaiting delivery of a sent message
	blockReply             // awaiting a reply to a delivered request
	blockReceive           // awaiting an incoming request
	blockSleep             // in Thread.Sleep
)

// ID returns the thread id (unique within its process).
func (t *Thread) ID() int { return t.id }

// Name returns the thread's label.
func (t *Thread) Name() string {
	if t.serve {
		return "serve:" + t.name
	}
	return t.name
}

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.pr }

// park gives up the processor and blocks until this thread is
// rescheduled, returning the wake value. It runs the dispatcher itself:
// if this thread is its own successor it continues with no switch;
// otherwise it switches straight to the next thread. If an abort is
// pending it is delivered here.
func (t *Thread) park() wake {
	if n := t.pr.step(); n != t {
		t.st.Switch(&n.st)
	}
	w := t.takeWake()
	if t.abortErr != nil && w.err == nil {
		w.err = t.abortErr
		t.abortErr = nil
	}
	t.blocked = blockState{}
	return w
}

// takeWake removes and returns the wake value flushWakes attached.
func (t *Thread) takeWake() wake {
	if !t.hasWake {
		return wake{}
	}
	w := t.pendingWake
	t.pendingWake = wake{}
	t.hasWake = false
	return w
}

// Yield voluntarily gives other threads (and incoming messages) a chance
// to run; the thread continues afterwards. This is a block point.
func (t *Thread) Yield() {
	t.pr.readyThreads = append(t.pr.readyThreads, t)
	t.park()
}

// Delay charges d of virtual compute time to the process while this
// thread runs (the thread keeps the processor; this is NOT a block
// point — other threads do not run, per the mutual exclusion rule).
func (t *Thread) Delay(d sim.Duration) {
	t.pr.sp.Delay(d)
}

// Sleep blocks this thread for d of virtual time. Unlike Delay, this IS
// a block point: other threads (and incoming messages) run meanwhile.
// It returns early with an error only if the thread is aborted.
func (t *Thread) Sleep(d sim.Duration) error {
	return t.sleepUntil(t.Now() + sim.Time(max(d, 0)))
}

// SleepUntil blocks this thread until absolute virtual time at (or
// returns immediately if at is not in the future). Like Sleep it is a
// block point; unlike Sleep it cannot drift — a generator thread that
// does work between wakeups still wakes exactly on its schedule, which
// is what open-loop arrival processes need.
func (t *Thread) SleepUntil(at sim.Time) error {
	if at <= t.Now() {
		return nil
	}
	return t.sleepUntil(at)
}

// sleepUntil parks this thread until at, which may be now.
func (t *Thread) sleepUntil(at sim.Time) error {
	pr := t.pr
	pr.env.At(at, func() {
		pr.wakeThread(t, wake{})
		pr.events.Put(Event{Kind: EvTick})
	})
	t.blocked = blockState{kind: blockSleep}
	return t.park().err
}

// Now reports current virtual time.
func (t *Thread) Now() sim.Time { return t.pr.sp.Now() }

// Fork creates a new thread running fn, scheduled after the current
// thread next blocks. It returns the new thread.
func (t *Thread) Fork(name string, fn func(*Thread)) *Thread {
	return t.pr.spawnThread(name, false, fn)
}

// Abort delivers an asynchronous exception to another thread of the same
// process: if target is blocked, it is unblocked with ErrAborted (its
// pending operation is cancelled as far as the transport allows); if it
// is ready or running, the exception surfaces at its next block point.
// Aborting yourself or a dead thread is a no-op. This models LYNX's
// local exceptions aborting a waiting coroutine (§3.2.1 scenario c).
func (t *Thread) Abort(target *Thread) {
	if target == t || target.dead {
		return
	}
	t.pr.abortThread(target, ErrAborted)
}

// run is the body of a thread's strand: its function, then the
// dispatcher step that picks the strand that runs next.
func (t *Thread) run() *sim.Strand {
	pr := t.pr
	fn := t.fn
	t.fn = nil
	if t.abortErr == nil { // not aborted before it ever ran
		t.call(fn)
	}
	t.dead = true
	pr.liveThreads--
	delete(pr.threads, t.id)
	if n := pr.step(); n != nil {
		return &n.st
	}
	return nil
}

// call runs the thread's function. A panic stops the run, except the
// kill signal, which passes through to the simproc's goroutine (see
// sim.Proc.Lend) and unwinds it.
func (t *Thread) call(fn func(*Thread)) {
	defer func() {
		if r := recover(); r != nil {
			if sim.IsKilled(r) {
				panic(r)
			}
			t.pr.env.Stop(fmt.Errorf("lynx: process %s thread %d (%s) panicked: %v",
				t.pr.name, t.id, t.Name(), r))
		}
	}()
	fn(t)
}
