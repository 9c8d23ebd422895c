// Package charlotte reimplements the Charlotte distributed operating
// system kernel (Artsy, Chang & Finkel; U. Wisconsin) as described in §3
// of the paper, running on the sim/netsim substrate.
//
// Charlotte is the paper's *high-level* kernel: links are a kernel
// abstraction. The kernel interface is exactly the paper's:
//
//	MakeLink(end1, end2)             create a link, return both ends
//	Destroy(myend)                   destroy the link with a given end
//	Send(L, buffer, enclosure)       start a send activity (≤1 enclosure)
//	Receive(L, buffer)               start a receive activity
//	Cancel(L, direction)             attempt to cancel an activity
//	Wait() description               block for an activity completion
//
// The kernel matches send and receive activities on opposite ends of a
// link; it allows only one outstanding activity in each direction on a
// given end, and a completion must be reported by Wait before another
// similar activity can be started. All calls but Wait complete in
// bounded time. Process termination destroys all the process's links,
// and any attempt to use a destroyed link fails with a status code.
//
// Link movement follows Charlotte's three-party agreement discipline: an
// end being enclosed in a message is unusable ("moving") until the
// transfer completes, and enclosing an end that has outstanding
// activities is rejected — these are the kernel-interface rules that §3.2
// of the paper has to program around.
package charlotte

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/calib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Status is the result code returned by every kernel call and carried in
// every completion description.
type Status int

// Kernel call and completion status codes.
const (
	OK Status = iota
	// Destroyed: the link was destroyed (by the far end, the near end,
	// or process termination).
	Destroyed
	// Moving: the end is enclosed in an in-flight message and cannot be
	// used until the move completes.
	Moving
	// NotOwner: the calling process does not own the end.
	NotOwner
	// Busy: an activity in that direction is already outstanding.
	Busy
	// NoActivity: Cancel found nothing to cancel.
	NoActivity
	// CancelFailed: the activity has already matched or completed; its
	// completion will still be reported by Wait.
	CancelFailed
	// EnclosureBusy: the enclosed end has outstanding activities or is
	// already moving.
	EnclosureBusy
	// EnclosureSelf: a message may not enclose an end of the link it is
	// sent on.
	EnclosureSelf
	// Truncated: the received message was longer than the posted buffer.
	Truncated
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case Destroyed:
		return "DESTROYED"
	case Moving:
		return "MOVING"
	case NotOwner:
		return "NOT_OWNER"
	case Busy:
		return "BUSY"
	case NoActivity:
		return "NO_ACTIVITY"
	case CancelFailed:
		return "CANCEL_FAILED"
	case EnclosureBusy:
		return "ENCLOSURE_BUSY"
	case EnclosureSelf:
		return "ENCLOSURE_SELF"
	case Truncated:
		return "TRUNCATED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Direction distinguishes send and receive activities.
type Direction int

// Activity directions.
const (
	SendDir Direction = iota
	RecvDir
)

func (d Direction) String() string {
	if d == SendDir {
		return "send"
	}
	return "recv"
}

// EndRef is a capability for one end of a link. The zero EndRef is "no
// end" (used for absent enclosures).
type EndRef struct {
	link int
	side int // 0 or 1
}

// Nil reports whether the reference denotes no end.
func (e EndRef) Nil() bool { return e.link == 0 }

func (e EndRef) String() string {
	if e.Nil() {
		return "end<nil>"
	}
	return fmt.Sprintf("end<%d.%d>", e.link, e.side)
}

// peer returns the reference for the opposite end of the same link.
func (e EndRef) peer() EndRef { return EndRef{link: e.link, side: 1 - e.side} }

// Description reports one completed activity, as returned by Wait.
type Description struct {
	End       EndRef
	Dir       Direction
	Status    Status
	Length    int    // bytes transferred
	Data      []byte // receive completions only
	Enclosure EndRef // moved end, if any (receive completions only)
}

// Kernel is the (logically replicated) Charlotte kernel. One Kernel
// value serves all nodes; per-node CPU costs are charged to the calling
// process's simproc and internode wire time to the netsim model.
//
// The kernel's state lives in groups: one from construction, and one
// per shard env after Partition, each with its own link table, network
// segment and strided id allocators, so processes of different groups
// share no mutable kernel state mid-run. Destruction marks a link
// record destroyed; its table entry stays, so stale EndRefs keep
// resolving to Destroyed.
type Kernel struct {
	env   *sim.Env
	net   netsim.Network
	costs calib.CharlotteCosts

	groups []*kgroup // one until Partition, then one per shard env

	rec   *obs.Recorder
	calls map[string]*obs.Counter // kernel-call name -> counter handle
	// Instrument handles, resolved once so hot paths skip the registry.
	cDestroys, cMessages, cBytes, cEnclosures *obs.Counter
}

// kgroup is one group of the kernel: the env its processes run on,
// the network segment they transmit over, its link table, and strided
// id allocators whose output depends only on this group's own call
// order.
type kgroup struct {
	k   *Kernel
	env *sim.Env
	net netsim.Network

	links    map[int]*link
	nextLink int
	nextPID  int
	stride   int

	// free holds activity records for reuse. Only this group's
	// processes and deliveries take from and return to it, so groups
	// never share one.
	free []*activity
}

// newActivity takes an activity record from the group's free list, or
// makes one. A Charlotte end has at most one outstanding activity per
// direction (§3.1), so the list never holds more records than the
// group's processes once had outstanding at the same time.
func (g *kgroup) newActivity() *activity {
	if n := len(g.free); n > 0 {
		a := g.free[n-1]
		g.free = g.free[:n-1]
		return a
	}
	a := &activity{}
	a.deliver = func() { a.g.k.deliver(a) }
	return a
}

// release clears a and returns it to the group's free list. A matched
// send is released only by its own delivery callback, which is still
// scheduled until it runs.
func (g *kgroup) release(a *activity) {
	*a = activity{deliver: a.deliver}
	g.free = append(g.free, a)
}

// NewKernel creates a Charlotte kernel over the given network model.
func NewKernel(env *sim.Env, net netsim.Network, costs calib.CharlotteCosts) *Kernel {
	rec := obs.NewRecorder(env, "charlotte")
	k := &Kernel{
		env:         env,
		net:         net,
		costs:       costs,
		rec:         rec,
		calls:       make(map[string]*obs.Counter),
		cDestroys:   rec.Counter(obs.MLinkDestroys),
		cMessages:   rec.Counter(obs.MKernelMessages),
		cBytes:      rec.Counter(obs.MKernelBytes),
		cEnclosures: rec.Counter(obs.MEnclosureMoves),
	}
	k.groups = []*kgroup{{k: k, env: env, net: net, links: make(map[int]*link), nextLink: 1, nextPID: 1, stride: 1}}
	for _, what := range []string{"MakeLink", "Send", "Receive", "Cancel", "Wait", "Destroy"} {
		k.calls[what] = rec.Counter(obs.MKernelCalls + "{call=" + what + "}")
	}
	return k
}

// Partition splits the kernel into one group per shard env for a
// conservative parallel run: group i's processes run on envs[i] and
// transmit over segment i of the kernel's medium, which it splits and
// returns. Each group gets its own copy of the boot group's link
// table, so the copies cost len(envs) × (links made so far). Ids
// allocated from here on are strided per group, so mid-run
// MakeLink/NewProcessIn stay deterministic at any worker count. Call
// once, before the run starts, then AssignGroup every process.
func (k *Kernel) Partition(envs []*sim.Env) []netsim.Network {
	if len(k.groups) != 1 {
		panic("charlotte: Partition called twice")
	}
	segs := k.net.Partition(len(envs))
	boot := k.groups[0]
	k.groups = make([]*kgroup, len(envs))
	for i := range envs {
		k.groups[i] = &kgroup{
			k: k, env: envs[i], net: segs[i],
			links:    maps.Clone(boot.links),
			nextLink: boot.nextLink + i,
			nextPID:  boot.nextPID + i,
			stride:   len(envs),
		}
	}
	return segs
}

// Obs returns the kernel's observability recorder; the binding shares
// it, and sinks attach to it.
func (k *Kernel) Obs() *obs.Recorder { return k.rec }

// countCall bumps the per-call-name kernel counter. Every call name is
// pre-created in NewKernel (the map must not grow mid-run: groups read
// it concurrently).
func (k *Kernel) countCall(what string) {
	k.calls[what].Inc()
}

// link is the kernel's record of a link: two ends, each with at most one
// outstanding activity per direction.
type link struct {
	id        int
	destroyed bool
	ends      [2]endState
}

type endState struct {
	owner  *Process
	moving bool // enclosed in an in-flight message
	send   *activity
	recv   *activity
}

// activity is one outstanding send or receive. Records are reused
// through their partition group's free list.
type activity struct {
	data      []byte // send: payload
	capacity  int    // recv: buffer capacity
	enclosure EndRef
	matched   bool // transfer in flight; Cancel must fail

	// A matched send's transfer: the link and side it leaves from and
	// the group whose env times it. deliver completes the transfer; it
	// is made once per record and survives release.
	l       *link
	side    int
	g       *kgroup
	deliver func()
}

// Process is a Charlotte process: the unit of link ownership and the
// target of activity-completion notifications.
type Process struct {
	k           *Kernel
	g           *kgroup
	id          int
	node        netsim.NodeID
	completions sim.Queue[Description]
	dead        bool
	ends        map[EndRef]bool
}

// NewProcess registers a process living on the given node, in group 0.
// The returned Process's kernel calls must be made from simproc context
// (they charge virtual CPU time via p).
func (k *Kernel) NewProcess(node netsim.NodeID) *Process {
	return k.newProcessIn(k.groups[0], node)
}

// NewProcessIn registers a process directly into partition group g —
// the home-shard placement path for processes launched mid-run, whose
// pid comes from the group's strided allocator.
func (k *Kernel) NewProcessIn(g int, node netsim.NodeID) *Process {
	return k.newProcessIn(k.groups[g], node)
}

func (k *Kernel) newProcessIn(g *kgroup, node netsim.NodeID) *Process {
	id := g.nextPID
	g.nextPID += g.stride
	pr := &Process{
		k:    k,
		g:    g,
		id:   id,
		node: node,
		ends: make(map[EndRef]bool),
	}
	pr.completions.Init(g.env, fmt.Sprintf("charlotte.p%d.completions", id))
	return pr
}

// AssignGroup moves a boot-time process into partition group g (its
// home shard). The completion queue stays: a wait queue wakes each
// waiter through the waiter's own env.
func (pr *Process) AssignGroup(g int) { pr.g = pr.k.groups[g] }

// Env returns the env of the process's group: the env its binding
// schedules on.
func (pr *Process) Env() *sim.Env { return pr.g.env }

// ID returns the process id.
func (pr *Process) ID() int { return pr.id }

// Kernel returns the kernel the process belongs to.
func (pr *Process) Kernel() *Kernel { return pr.k }

// Owns reports whether the process currently owns the given end.
func (pr *Process) Owns(e EndRef) bool { return pr.ends[e] }

// PendingCompletions reports how many completions are queued for Wait.
func (pr *Process) PendingCompletions() int { return pr.completions.Len() }

// charge spends one kernel-call's CPU on the calling simproc.
func (pr *Process) charge(p *sim.Proc, what string) {
	pr.k.countCall(what)
	p.Delay(pr.k.costs.KernelCall)
}

// MakeLink creates a new link with both ends owned by the caller.
func (pr *Process) MakeLink(p *sim.Proc) (end1, end2 EndRef, st Status) {
	pr.charge(p, "MakeLink")
	if pr.dead {
		return EndRef{}, EndRef{}, Destroyed
	}
	g := pr.g
	l := &link{id: g.nextLink}
	g.nextLink += g.stride
	l.ends[0].owner = pr
	l.ends[1].owner = pr
	g.links[l.id] = l
	e1 := EndRef{link: l.id, side: 0}
	e2 := EndRef{link: l.id, side: 1}
	pr.ends[e1] = true
	pr.ends[e2] = true
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(g.env, obs.Event{Kind: obs.KindLinkMake, Proc: pr.id, Link: l.id})
	}
	return e1, e2, OK
}

// BootLink creates a link with one end owned by each of two processes,
// without charging kernel time: the loader's initial wiring. The link
// is allocated from a's group, so mid-run launches (both processes on
// one shard, per lynx's home-shard placement) get group-local strided
// ids; before partitioning a's group is group 0 and the allocation is
// the classic serial sequence.
func (k *Kernel) BootLink(a, b *Process) (EndRef, EndRef) {
	g := a.g
	l := &link{id: g.nextLink}
	g.nextLink += g.stride
	l.ends[0].owner = a
	l.ends[1].owner = b
	g.links[l.id] = l
	e1 := EndRef{link: l.id, side: 0}
	e2 := EndRef{link: l.id, side: 1}
	a.ends[e1] = true
	b.ends[e2] = true
	return e1, e2
}

// lookup validates that e names a live link end owned by pr and returns
// the link. It maps every failure to the status the real kernel returns.
func (pr *Process) lookup(e EndRef) (*link, Status) {
	l, ok := pr.g.links[e.link]
	if !ok {
		return nil, Destroyed
	}
	if l.destroyed {
		return l, Destroyed
	}
	es := &l.ends[e.side]
	if es.owner != pr {
		if es.moving {
			return l, Moving
		}
		return l, NotOwner
	}
	if es.moving {
		return l, Moving
	}
	return l, OK
}

// Send starts a send activity on end e carrying data, optionally
// enclosing one other link end. It returns immediately; completion is
// reported by Wait.
func (pr *Process) Send(p *sim.Proc, e EndRef, data []byte, enclosure EndRef) Status {
	pr.charge(p, "Send")
	l, st := pr.lookup(e)
	if st != OK {
		return st
	}
	es := &l.ends[e.side]
	if es.send != nil {
		return Busy
	}
	if !enclosure.Nil() {
		if enclosure.link == e.link {
			return EnclosureSelf
		}
		el, est := pr.lookup(enclosure)
		if est != OK {
			return est
		}
		ees := &el.ends[enclosure.side]
		if ees.send != nil || ees.recv != nil || ees.moving {
			return EnclosureBusy
		}
		// The end is now moving: the three-party agreement begins. It
		// stays unusable until delivery (or send failure).
		ees.moving = true
	}
	// The kernel's one copy: it becomes the receiver's Data.
	a := pr.g.newActivity()
	a.data = make([]byte, len(data))
	copy(a.data, data)
	a.enclosure = enclosure
	es.send = a
	if pr.k.rec.Active() {
		var detail string
		if pr.k.rec.WantDetail() {
			detail = e.String()
			if !enclosure.Nil() {
				detail += " enc=" + enclosure.String()
			}
		}
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindKernelSend, Proc: pr.id, Link: e.link,
			Bytes: len(data), Detail: detail,
		})
	}
	pr.k.tryMatch(l, e.side)
	return OK
}

// Receive starts a receive activity on end e with the given buffer
// capacity. Completion is reported by Wait.
func (pr *Process) Receive(p *sim.Proc, e EndRef, capacity int) Status {
	pr.charge(p, "Receive")
	l, st := pr.lookup(e)
	if st != OK {
		return st
	}
	es := &l.ends[e.side]
	if es.recv != nil {
		return Busy
	}
	a := pr.g.newActivity()
	a.capacity = capacity
	es.recv = a
	if pr.k.rec.Active() {
		var detail string
		if pr.k.rec.WantDetail() {
			detail = e.String()
		}
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindKernelReceive, Proc: pr.id, Link: e.link,
			Bytes: capacity, Detail: detail,
		})
	}
	// A send may be waiting on the far end.
	pr.k.tryMatch(l, 1-e.side)
	return OK
}

// Cancel attempts to cancel the outstanding activity in direction d on
// end e. It fails with CancelFailed if the activity has already matched
// (its completion will still arrive via Wait).
func (pr *Process) Cancel(p *sim.Proc, e EndRef, d Direction) Status {
	pr.charge(p, "Cancel")
	l, st := pr.lookup(e)
	if st != OK {
		return st
	}
	es := &l.ends[e.side]
	var slot **activity
	if d == SendDir {
		slot = &es.send
	} else {
		slot = &es.recv
	}
	if *slot == nil {
		return NoActivity
	}
	if (*slot).matched {
		return CancelFailed
	}
	if d == SendDir && !(*slot).enclosure.Nil() {
		// Release the moving end: the move never happened.
		if el, ok := pr.g.links[(*slot).enclosure.link]; ok {
			el.ends[(*slot).enclosure.side].moving = false
		}
	}
	pr.g.release(*slot)
	*slot = nil
	if pr.k.rec.Active() {
		var detail string
		if pr.k.rec.WantDetail() {
			detail = fmt.Sprintf("%v %v", e, d)
		}
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindKernelCancel, Proc: pr.id, Link: e.link,
			Detail: detail,
		})
	}
	return OK
}

// Wait blocks until an activity completes and returns its description.
func (pr *Process) Wait(p *sim.Proc) Description {
	pr.k.countCall("Wait")
	d := pr.completions.Get(p)
	p.Delay(pr.k.costs.KernelCall)
	if pr.k.rec.Active() {
		var detail string
		if pr.k.rec.WantDetail() {
			detail = fmt.Sprintf("Wait -> %v %v %v", d.End, d.Dir, d.Status)
		}
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindQueueService, Proc: pr.id, Link: d.End.link, Bytes: d.Length,
			Detail: detail,
		})
	}
	return d
}

// Destroy destroys the link with the given end. Outstanding activities
// on both ends complete with Destroyed status; the far end's owner also
// receives an unsolicited Destroyed notification if it had no activity
// posted (Charlotte guarantees destruction is eventually visible).
func (pr *Process) Destroy(p *sim.Proc, e EndRef) Status {
	pr.charge(p, "Destroy")
	l, st := pr.lookup(e)
	if st == Destroyed {
		return Destroyed
	}
	if st != OK {
		return st
	}
	pr.k.destroyLink(pr.g, l)
	return OK
}

// Terminate destroys all links attached to the process, as the kernel
// does when a process dies. Safe to call from OnKill hooks.
func (pr *Process) Terminate() {
	if pr.dead {
		return
	}
	pr.dead = true
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{Kind: obs.KindMark, Proc: pr.id, Detail: "terminate"})
	}
	// Walk the ends in (link, side) order: destruction completes peers'
	// activities and emits events, so map order would make same-seed runs
	// diverge.
	ends := make([]EndRef, 0, len(pr.ends))
	for e := range pr.ends {
		ends = append(ends, e)
	}
	sort.Slice(ends, func(i, j int) bool {
		if ends[i].link != ends[j].link {
			return ends[i].link < ends[j].link
		}
		return ends[i].side < ends[j].side
	})
	for _, e := range ends {
		if l, ok := pr.g.links[e.link]; ok && !l.destroyed {
			pr.k.destroyLink(pr.g, l)
		}
	}
}

// destroyLink marks the link destroyed and flushes completions. The
// caller passes the partition group the link lives in (destruction
// tombstones the record; the link stays in its map so stale EndRefs
// keep resolving to Destroyed).
func (k *Kernel) destroyLink(g *kgroup, l *link) {
	l.destroyed = true
	k.cDestroys.Inc()
	if k.rec.Active() {
		k.rec.EmitEnv(g.env, obs.Event{Kind: obs.KindLinkDestroy, Link: l.id})
	}
	for side := 0; side < 2; side++ {
		es := &l.ends[side]
		owner := es.owner
		if owner == nil {
			continue
		}
		notified := false
		if es.send != nil {
			if !es.send.enclosure.Nil() {
				// The move never completes; the enclosed end is released
				// back to the sender (best case; E8 explores the crash
				// case where even this is impossible).
				if el, ok := g.links[es.send.enclosure.link]; ok {
					el.ends[es.send.enclosure.side].moving = false
				}
			}
			owner.complete(Description{End: EndRef{l.id, side}, Dir: SendDir, Status: Destroyed})
			if !es.send.matched {
				g.release(es.send)
			}
			es.send = nil
			notified = true
		}
		if es.recv != nil {
			owner.complete(Description{End: EndRef{l.id, side}, Dir: RecvDir, Status: Destroyed})
			g.release(es.recv)
			es.recv = nil
			notified = true
		}
		if !notified && !owner.dead {
			// Unsolicited destruction notice so the owner eventually
			// learns; modeled as a zero-length recv completion.
			owner.complete(Description{End: EndRef{l.id, side}, Dir: RecvDir, Status: Destroyed})
		}
		delete(owner.ends, EndRef{l.id, side})
		es.owner = nil
	}
}

// complete queues a description for Wait.
func (pr *Process) complete(d Description) {
	if pr.dead {
		return
	}
	pr.completions.Put(d)
}

// tryMatch checks whether the send pending on l.ends[sendSide] can match
// a receive on the opposite end, and if so starts the transfer.
func (k *Kernel) tryMatch(l *link, sendSide int) {
	if l.destroyed {
		return
	}
	snd := &l.ends[sendSide]
	rcv := &l.ends[1-sendSide]
	if snd.send == nil || snd.send.matched || rcv.recv == nil || rcv.recv.matched {
		return
	}
	if snd.owner == nil || rcv.owner == nil || snd.moving || rcv.moving {
		return
	}
	act := snd.send
	act.matched = true
	rcv.recv.matched = true
	act.l, act.side, act.g = l, sendSide, snd.owner.g

	n := len(act.data)
	cost := k.costs.MessagePath + sim.Duration(n)*k.costs.PerByte
	if !act.enclosure.Nil() {
		cost += k.costs.MoveAgreement
	}
	if snd.owner.node != rcv.owner.node {
		act.g.transmit(snd.owner.node, rcv.owner.node, n, cost, act.deliver)
	} else {
		wire := sim.Duration(n) * 100 * sim.Nanosecond // local loopback copy
		act.g.env.After(cost+wire, act.deliver)
	}
}

// retransmitDelay is the kernel's frame-loss detection timeout: how
// long after initiating an internode frame the sender resends when an
// injected fault dropped it. Charlotte's real kernel piggybacked acks
// on the link protocol; the constant stands in for that round trip.
const retransmitDelay = 5 * sim.Millisecond

// transmit charges one internode frame on the wire and schedules done
// at its delivery instant, consulting the network's fault hook (if
// any) for the frame's fate. A dropped frame is retransmitted after
// retransmitDelay, re-reserving the medium at retransmission time and
// getting re-judged by the hook (so a healed partition lets the retry
// through). A duplicated frame charges the medium for the ghost copy
// at delivery; the receiver sees one delivery (the kernel's link
// protocol discards duplicates). Extra is injected latency. cpu is the
// kernel path cost, charged once regardless of retries. With no hook
// installed the path is byte-identical to a plain SendTime + After.
func (g *kgroup) transmit(src, dst netsim.NodeID, nbytes int, cpu sim.Duration, done func()) {
	wire := g.net.SendTime(g.env.Now(), src, dst, nbytes)
	if h := g.net.FaultHook(); h != nil {
		v := h.Frame(g.env.Now(), src, dst, nbytes, wire, false)
		if v.Drop {
			g.env.After(cpu+retransmitDelay, func() { g.transmit(src, dst, nbytes, 0, done) })
			return
		}
		wire += v.Extra
		if v.Dup {
			g.env.After(cpu+wire, func() {
				g.net.SendTime(g.env.Now(), src, dst, nbytes) // ghost copy occupies the medium
				done()
			})
			return
		}
	}
	g.env.After(cpu+wire, done)
}

// deliver completes the matched send act: payload and enclosure reach
// the receiver, and both parties get completion descriptions. It runs
// on the env of act's group, and both activity records go back to that
// group's free list.
func (k *Kernel) deliver(act *activity) {
	g, l := act.g, act.l
	sendEnd := EndRef{l.id, act.side}
	snd := &l.ends[sendEnd.side]
	rcv := &l.ends[1-sendEnd.side]
	ract := rcv.recv
	if snd.send != act || ract == nil || l.destroyed {
		// The link was destroyed in flight; its completions went out
		// then, and only this record waited for the callback.
		g.release(act)
		return
	}
	sender, receiver := snd.owner, rcv.owner
	snd.send = nil
	rcv.recv = nil
	data, enclosure, capacity := act.data, act.enclosure, ract.capacity
	g.release(act)
	g.release(ract)

	st := OK
	n := len(data)
	if n > capacity {
		st = Truncated
		n = capacity
		data = data[:n]
	}
	k.cMessages.Inc()
	k.cBytes.Add(int64(n))
	if k.rec.Active() {
		k.rec.EmitEnv(g.env, obs.Event{
			Kind: obs.KindKernelDeliver, Proc: sender.id, Peer: receiver.id,
			Link: l.id, Bytes: n,
		})
	}

	// Move the enclosure: ownership passes to the receiver; the
	// three-party agreement concludes.
	if !enclosure.Nil() {
		if el, ok := g.links[enclosure.link]; ok {
			ees := &el.ends[enclosure.side]
			ees.moving = false
			if ees.owner != nil {
				delete(ees.owner.ends, enclosure)
			}
			ees.owner = receiver
			receiver.ends[enclosure] = true
			k.cEnclosures.Inc()
			if k.rec.Active() {
				k.rec.EmitEnv(g.env, obs.Event{
					Kind: obs.KindLinkMove, Proc: sender.id, Peer: receiver.id,
					Link: enclosure.link, Detail: enclosure.String(),
				})
			}
		}
	}

	sender.complete(Description{End: sendEnd, Dir: SendDir, Status: OK, Length: n})
	receiver.complete(Description{
		End: sendEnd.peer(), Dir: RecvDir, Status: st,
		Length: n, Data: data, Enclosure: enclosure,
	})
}
