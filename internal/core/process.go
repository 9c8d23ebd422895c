package core

import (
	"fmt"
	"strings"

	"repro/internal/calib"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stats counts run-time package activity for the experiment harness.
type Stats struct {
	RequestsSent   int64
	RequestsServed int64
	EnclosuresSent int64
	EnclosuresRecv int64
	CancelFailures int64 // aborted sends the transport could not recall
}

// Process is a LYNX process: an address space with coroutine threads, a
// set of link ends, and a kernel-specific Transport underneath.
type Process struct {
	name  string
	env   *sim.Env
	sp    *sim.Proc
	tr    Transport
	costs calib.LynxRuntimeCosts

	threads      map[int]*Thread
	readyThreads []*Thread
	nextTID      int
	liveThreads  int

	ends         map[TransEnd]*End
	endOrder     []TransEnd // creation order, for seed-stable exit teardown
	dropped      []TransEnd // ends dropped since endOrder was last compacted
	events       sim.Queue[Event]
	pendingWakes []pendingWake
	nextSeq      uint64

	dead   bool
	stats  Stats
	onExit []func()

	rec       *obs.Recorder  // the transport's recorder
	blockHist *obs.Histogram // proc_block_ns: time parked at the block point
	queueHist *obs.Histogram // queue_wait_ns: request time in an open queue
}

// NewProcess creates a LYNX process whose main thread runs mainFn, and
// schedules it on env. The transport tr must have been created for this
// process. Runtime overhead is charged per costs.
func NewProcess(env *sim.Env, name string, tr Transport, costs calib.LynxRuntimeCosts, mainFn func(*Thread)) *Process {
	pr := &Process{
		name:    name,
		env:     env,
		tr:      tr,
		costs:   costs,
		threads: make(map[int]*Thread),
		ends:    make(map[TransEnd]*End),
		rec:     tr.Obs(),
	}
	pr.blockHist = pr.rec.Histogram(obs.MProcBlockNs)
	pr.queueHist = pr.rec.Histogram(obs.MQueueWaitNs)
	pr.events.Init(env, "lynx:"+name+".events")
	pr.sp = env.Spawn("lynx:"+name, func(p *sim.Proc) {
		p.OnKill(func() {
			pr.dead = true
			pr.tr.Shutdown()
			pr.exited()
		})
		pr.run()
	})
	pr.spawnThread("main", false, mainFn)
	// The simproc exists but has not run yet: safe to hand it to the
	// binding before any traffic.
	tr.SetSink(func(ev Event) { pr.events.Put(ev) }, pr.sp)
	if sc, ok := tr.(Screened); ok {
		sc.SetScreen(pr.screen)
	}
	return pr
}

// screen is the process's message-screening predicate (see ScreenFunc).
// A reply is wanted if a coroutine awaits that seq, even while its
// request is still settling.
func (pr *Process) screen(te TransEnd, kind MsgKind, seq uint64) bool {
	e, ok := pr.ends[te]
	if !ok || e.dead {
		return false
	}
	if kind == KindRequest {
		return e.wantRequests()
	}
	return e.request(seq) != nil
}

// Name returns the process name.
func (pr *Process) Name() string { return pr.name }

// Stats returns the run-time package's counters.
func (pr *Process) Stats() *Stats { return &pr.stats }

// Env returns the simulation environment.
func (pr *Process) Env() *sim.Env { return pr.env }

// SimProc returns the underlying simproc (crash injection in tests).
func (pr *Process) SimProc() *sim.Proc { return pr.sp }

// Crash kills the process abruptly: links are destroyed by the kernel
// (transport Shutdown), blocked peers feel exceptions.
func (pr *Process) Crash() { pr.sp.Kill() }

// Dead reports whether the process has terminated or crashed.
func (pr *Process) Dead() bool { return pr.dead || pr.sp.Done() }

// DebugState renders the process's run-time state — live threads with
// their block reasons, and per-end queue state and pending sends, ends
// in creation order — for diagnosing a wedged system.
func (pr *Process) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "process %s: dead=%v liveThreads=%d ends=%d\n",
		pr.name, pr.dead, pr.liveThreads, len(pr.ends))
	for _, t := range pr.threads {
		fmt.Fprintf(&b, "  thread %d (%s): blocked=%v end=%v\n",
			t.id, t.Name(), t.blocked.kind, t.blocked.end)
	}
	for _, te := range pr.endOrder {
		e, ok := pr.ends[te]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  end %v: dead=%v moving=%v handler=%v outReq=%d outRep=%d owed=%d inReq=%d recvWait=%d replyWait=%d\n",
			e.te, e.dead, e.moving, e.handler != nil, len(e.out[0]), len(e.out[1]),
			e.owedReplies, len(e.inReq), len(e.recvWaiters), len(e.awaiting))
		for _, q := range e.out {
			for _, rec := range q {
				fmt.Fprintf(&b, "    pending send seq=%d kind=%v inFlight=%v detached=%v\n",
					rec.msg.Seq, rec.msg.Kind, rec.inFlight, rec.t == nil)
			}
		}
	}
	return b.String()
}

// spawnThread creates a thread and marks it ready. Its strand starts
// when it is first dispatched. A Serve handler thread is named
// by its operation (serve), so serving a request formats no string.
func (pr *Process) spawnThread(name string, serve bool, fn func(*Thread)) *Thread {
	pr.nextTID++
	t := &Thread{
		pr:    pr,
		id:    pr.nextTID,
		name:  name,
		serve: serve,
		fn:    fn,
	}
	t.st = pr.sp.NewStrand(t.run)
	pr.threads[t.id] = t
	pr.liveThreads++
	pr.readyThreads = append(pr.readyThreads, t)
	return t
}

// run is the body of the process's simproc: it lends the simproc to
// its threads (see step) until the process is idle, then tears the
// process down. The kill signal, raised in whichever thread has the
// simproc parked, is raised again here by Lend.
func (pr *Process) run() {
	if t := pr.step(); t != nil {
		pr.sp.Lend(&t.st)
	}
	pr.dead = true
	// Orderly exit: destroy every still-live end first, so peers get the
	// language's link-destroyed exception through the normal protocol. A
	// silent disappearance would read as a crash on substrates (SODA)
	// whose crash recovery runs expensive searches. Creation order keeps
	// the announcement sequence seed-stable.
	for _, te := range pr.endOrder {
		if e, ok := pr.ends[te]; ok && !e.dead {
			e.dead = true
			pr.tr.Destroy(te)
		}
	}
	pr.tr.Shutdown()
	pr.exited()
}

// step is the dispatcher, run by the thread giving up the processor
// (or the simproc, at the start): drain the events that arrived
// while threads ran, so woken threads and fresh messages interleave
// fairly, then pick the next ready thread. When none is ready, this is
// the process's block point: wait for transport events on the simproc.
// A nil result means the process is idle and should end.
func (pr *Process) step() *Thread {
	for {
		for {
			ev, ok := pr.events.TryGet()
			if !ok {
				break
			}
			pr.handleEvent(ev)
		}
		pr.flushWakes()
		if len(pr.readyThreads) > 0 {
			t := pr.readyThreads[0]
			pr.readyThreads = pr.readyThreads[0:copy(pr.readyThreads, pr.readyThreads[1:])]
			if t.dead {
				continue
			}
			return t
		}
		if pr.idle() {
			return nil
		}
		// Block point: wait for one of the open queues or a completion.
		blockedAt := pr.env.Now()
		ev := pr.events.Get(pr.sp)
		wait := sim.Duration(pr.env.Now() - blockedAt)
		pr.blockHist.Observe(wait)
		if pr.rec.Active() {
			pr.rec.EmitEnv(pr.env, obs.Event{Kind: obs.KindQueueWait, Src: pr.name, Wait: wait})
		}
		pr.handleEvent(ev)
	}
}

// OnExit registers fn to run once when the process ends, by orderly
// exit or crash, after its transport has shut down. Hooks run on the
// process's own simproc, in registration order; register them before
// the process ends (its threads may register their own).
func (pr *Process) OnExit(fn func()) { pr.onExit = append(pr.onExit, fn) }

// exited runs the OnExit hooks, at most once.
func (pr *Process) exited() {
	hooks := pr.onExit
	pr.onExit = nil
	for _, fn := range hooks {
		fn()
	}
}

// idle reports whether the process has no further work and should
// terminate: no live threads and no prospect of new ones (a Serve
// handler on a live end can still spawn threads).
func (pr *Process) idle() bool {
	if pr.liveThreads > 0 {
		return false
	}
	for _, e := range pr.ends {
		if e.handler != nil && !e.dead {
			return false
		}
		if len(e.inReq) > 0 || len(e.out[0]) > 0 || len(e.out[1]) > 0 {
			return false
		}
	}
	return true
}

// wakeThread schedules t to resume with the given wake value at the next
// dispatch opportunity.
func (pr *Process) wakeThread(t *Thread, w wake) {
	pr.pendingWakes = append(pr.pendingWakes, pendingWake{t: t, w: w})
}

// pendingWake carries a wake value to a parked thread.
type pendingWake struct {
	t *Thread
	w wake
}

// deregisterReceiver removes t from every receive-waiter list it is on
// (a ReceiveAny waiter sits on several ends; once one end wakes it, the
// others must forget it immediately or a second delivery could double-
// wake it).
func (pr *Process) deregisterReceiver(t *Thread) {
	ends := t.blocked.multi
	if t.blocked.end != nil {
		ends = []*End{t.blocked.end}
	}
	for _, e := range ends {
		if remove(&e.recvWaiters, t) {
			e.syncInterest()
		}
	}
}

// abortThread implements Thread.Abort and link-death unblocking.
func (pr *Process) abortThread(target *Thread, err error) {
	b := target.blocked
	switch b.kind {
	case blockSend:
		rec := b.sendRec
		if rec.inFlight {
			if pr.tr.CancelSend(rec.end.te, &rec.msg) {
				// Recalled before receipt: detach cleanly.
				pr.finishSend(rec, false)
				pr.unmoveEnclosures(rec)
			} else {
				// The message was (or will be) received anyway — the
				// paper's problem case. Detach the coroutine; the
				// eventual EvDelivered settles the record, and any
				// enclosures travel with the message.
				pr.stats.CancelFailures++
				rec.t = nil
			}
		} else {
			// Still queued locally: just remove it.
			remove(&rec.end.out[rec.msg.Kind.Slot()], rec)
			pr.unmoveEnclosures(rec)
		}
		rec.end.syncInterest()
		pr.wakeThread(target, wake{err: err})
	case blockReply:
		remove(&b.end.awaiting, b.sendRec)
		b.end.syncInterest()
		pr.wakeThread(target, wake{err: err})
	case blockReceive:
		pr.deregisterReceiver(target)
		pr.wakeThread(target, wake{err: err})
	default:
		// Ready or running: deliver at next block point.
		target.abortErr = err
	}
}

// handleEvent applies one transport event to runtime state.
func (pr *Process) handleEvent(ev Event) {
	switch ev.Kind {
	case EvIncoming:
		pr.handleIncoming(ev)
	case EvDelivered:
		if rec := pr.sendOf(ev); rec != nil {
			pr.finishSend(rec, true)
		}
	case EvSendFailed:
		if rec := pr.sendOf(ev); rec != nil {
			pr.failSend(rec, ev.Err)
		}
	case EvLinkDead:
		e, ok := pr.ends[ev.End]
		if !ok {
			return
		}
		pr.killEnd(e)
		pr.dropKilled(e)
	case EvTick:
		// Internal wakeup; the work is in pendingWakes.
	}
	pr.flushWakes()
}

// sendOf returns the in-flight send an event settles, or nil: an event
// about a send that has already settled finds another record, or none,
// in flight.
func (pr *Process) sendOf(ev Event) *sendRecord {
	e, ok := pr.ends[ev.End]
	if !ok {
		return nil
	}
	if rec := e.inFlight(ev.Msg.Kind); rec != nil && &rec.msg == ev.Msg {
		return rec
	}
	return nil
}

// flushWakes moves pending wakes into the ready queue, attaching each
// wake value to its thread for its park to take.
func (pr *Process) flushWakes() {
	for i := range pr.pendingWakes {
		t, w := pr.pendingWakes[i].t, pr.pendingWakes[i].w
		pr.pendingWakes[i] = pendingWake{} // release references
		if t.dead {
			continue
		}
		pr.readyThreads = append(pr.readyThreads, t)
		// Stash the wake value for the thread's park to take.
		t.pendingWake = w
		t.hasWake = true
	}
	pr.pendingWakes = pr.pendingWakes[:0]
}

// handleIncoming dispatches a wanted message.
func (pr *Process) handleIncoming(ev Event) {
	e, ok := pr.ends[ev.End]
	if !ok {
		// A message for an end we no longer own (it moved away after
		// the transport queued the event). The transport's hints will
		// redirect the sender; drop here.
		return
	}
	m := ev.Msg
	// Charge scatter/type-check cost for accepting the message.
	pr.sp.Delay(sim.Duration(len(m.Data)) * pr.costs.PerByte)
	// Adopt enclosures: the moved ends now belong to this process.
	links := pr.adoptAll(m.Encl)
	pr.stats.EnclosuresRecv += int64(len(links))
	switch m.Kind {
	case KindRequest:
		e.owedReplies++
		req := &Request{end: e, op: m.Op, seq: m.Seq, data: m.Data, links: links}
		pr.stats.RequestsServed++
		switch {
		case len(e.recvWaiters) > 0:
			t := e.recvWaiters[0]
			e.recvWaiters = e.recvWaiters[0:copy(e.recvWaiters, e.recvWaiters[1:])]
			pr.deregisterReceiver(t)
			pr.wakeThread(t, wake{val: req})
		case e.handler != nil:
			h := e.handler
			pr.spawnThread(m.Op, true, func(t *Thread) {
				h(t, req)
			})
		default:
			// Queue opened explicitly; a thread will Receive it later.
			e.inReq = append(e.inReq, m)
			e.inReqAt = append(e.inReqAt, pr.env.Now())
		}
		e.syncInterest()
	case KindReply:
		rec := e.request(m.Seq)
		if rec == nil {
			// No coroutine wants this reply (it was aborted). On
			// transports that can, the binding has already failed the
			// *sender*; here the reply is dropped, and its enclosures
			// stay adopted by this process (the language calls this
			// situation a program error).
			return
		}
		reply := &Msg{Data: m.Data, Links: links, op: m.Op}
		if rec.inFlight {
			// The reply overtook the delivery confirmation of the
			// request it answers: hold it for finishSend.
			rec.early = reply
			return
		}
		remove(&e.awaiting, rec)
		e.syncInterest()
		pr.answer(rec, reply)
	}
}

// answer wakes rec's connector with reply, or with ErrBadReply if the
// reply's operation name does not confirm the request's.
func (pr *Process) answer(rec *sendRecord, reply *Msg) {
	if rec.msg.Op != "" && reply.op != rec.msg.Op {
		pr.wakeThread(rec.t, wake{err: ErrBadReply})
	} else {
		pr.wakeThread(rec.t, wake{val: reply})
	}
	rec.t = nil
}

// adoptEnd registers ownership of a transport end that just moved here
// (or returns the existing End if we already track it).
func (pr *Process) adoptEnd(te TransEnd) *End {
	if e, ok := pr.ends[te]; ok {
		e.moving = false
		return e
	}
	return pr.newEnd(te)
}

// adoptAll adopts each of tes (see adoptEnd).
func (pr *Process) adoptAll(tes []TransEnd) []*End {
	links := make([]*End, 0, len(tes))
	for _, te := range tes {
		links = append(links, pr.adoptEnd(te))
	}
	return links
}

func (pr *Process) newEnd(te TransEnd) *End {
	e := &End{pr: pr, te: te}
	pr.ends[te] = e
	pr.endOrder = append(pr.endOrder, te)
	return e
}

// finishSend settles a send record: removes it from the end's queue,
// wakes the sender (delivered case), and pumps the next queued message
// of that kind.
func (pr *Process) finishSend(rec *sendRecord, delivered bool) {
	e := rec.end
	remove(&e.out[rec.msg.Kind.Slot()], rec)
	rec.inFlight = false
	if delivered {
		// Enclosed ends have left this process for good — unless the
		// message travelled a loopback link and adoptEnd already
		// reclaimed the end (its moving flag was cleared on re-adoption).
		for _, enc := range rec.encl {
			if enc.moving {
				delete(pr.ends, enc.te)
				enc.killed = false
			}
		}
		if rec.msg.Kind == KindReply {
			e.owedReplies--
			if rec.t != nil {
				pr.wakeThread(rec.t, wake{})
				rec.t = nil
			}
		}
		// Request senders stay blocked awaiting the reply; transition
		// their block state — unless the reply already overtook this
		// confirmation, in which case hand it over now.
		if rec.msg.Kind == KindRequest && rec.t != nil {
			if rec.early != nil {
				pr.answer(rec, rec.early)
				rec.early = nil
			} else {
				rec.t.blocked = blockState{kind: blockReply, end: e, sendRec: rec}
				e.awaiting = append(e.awaiting, rec)
				e.syncInterest()
			}
		}
	}
	// Settled without a live waiter (failed send or aborted connector):
	// a held reply is unwanted after all.
	rec.early = nil
	pr.pump(e, rec.msg.Kind)
	e.syncInterest()
}

// pump starts the next queued send of the given kind if none is in
// flight.
func (pr *Process) pump(e *End, k MsgKind) {
	if e.dead {
		return
	}
	q := e.out[k.Slot()]
	if len(q) == 0 || q[0].inFlight {
		return
	}
	rec := q[0]
	rec.inFlight = true
	if err := pr.tr.StartSend(e.te, &rec.msg); err != nil {
		pr.failSend(rec, err)
	}
}

// failSend settles rec as never received and raises err in its sender.
func (pr *Process) failSend(rec *sendRecord, err error) {
	pr.finishSend(rec, false)
	pr.unmoveEnclosures(rec)
	if rec.t != nil {
		pr.wakeThread(rec.t, wake{err: err})
		rec.t = nil
	}
}

// unmoveEnclosures releases the moving mark after a failed/aborted send.
func (pr *Process) unmoveEnclosures(rec *sendRecord) {
	for _, enc := range rec.encl {
		if !enc.dead {
			enc.moving = false
		}
	}
}

// dropKilled forgets an end whose link died under it: the end table no
// longer holds it, so a long-lived process does not accumulate one End
// per link it ever had. A dead end never comes back to life, so its
// endOrder entries can go too; they are swept out in batches once the
// dropped ends make up half the list, which keeps the exit teardown's
// Destroy sequence unchanged.
func (pr *Process) dropKilled(e *End) {
	delete(pr.ends, e.te)
	e.killed = true
	pr.dropped = append(pr.dropped, e.te)
	if len(pr.dropped) < 16 || 2*len(pr.dropped) < len(pr.endOrder) {
		return
	}
	gone := make(map[TransEnd]bool, len(pr.dropped))
	for _, te := range pr.dropped {
		gone[te] = true
	}
	keep := pr.endOrder[:0]
	for _, te := range pr.endOrder {
		if _, live := pr.ends[te]; live || !gone[te] {
			keep = append(keep, te)
		}
	}
	clear(pr.endOrder[len(keep):])
	pr.endOrder = keep
	clear(pr.dropped)
	pr.dropped = pr.dropped[:0]
}

// killEnd marks an end dead and raises ErrLinkDestroyed in every thread
// touching it. This settles all of the end's pending work: transports
// announce link death with EvLinkDead alone. Connectors wake in seq
// order (delivered requests, then queued ones), then repliers, then
// receivers.
func (pr *Process) killEnd(e *End) {
	if e.dead {
		return
	}
	e.dead = true
	for _, rec := range e.awaiting {
		pr.wakeThread(rec.t, wake{err: ErrLinkDestroyed})
	}
	for _, q := range e.out {
		for _, rec := range q {
			pr.unmoveEnclosures(rec)
			if rec.t != nil {
				pr.wakeThread(rec.t, wake{err: ErrLinkDestroyed})
				rec.t = nil
			}
		}
	}
	e.awaiting, e.out = nil, [2][]*sendRecord{}
	for len(e.recvWaiters) > 0 {
		t := e.recvWaiters[0]
		e.recvWaiters = e.recvWaiters[0:copy(e.recvWaiters, e.recvWaiters[1:])]
		// A ReceiveAny waiter keeps waiting while any of its other ends
		// is still alive: only this end's queue died.
		if len(t.blocked.multi) > 0 {
			anyLive := false
			for _, me := range t.blocked.multi {
				if !me.dead {
					anyLive = true
					break
				}
			}
			if anyLive {
				continue
			}
		}
		pr.deregisterReceiver(t)
		pr.wakeThread(t, wake{err: ErrLinkDestroyed})
	}
	e.handler = nil
	e.inReq = nil
	e.inReqAt = nil
}
