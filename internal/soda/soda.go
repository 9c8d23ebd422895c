// Package soda reimplements Kepecs & Solomon's SODA ("Simplified
// Operating system for Distributed Applications") kernel as described in
// §4 of the paper, running on the sim/netsim substrate.
//
// SODA is better described as a communications protocol for a broadcast
// medium with many single-process nodes. Each node pairs a client
// processor with a kernel processor; we model the pair as one simulated
// process whose kernel costs are charged in virtual time.
//
// The interface is the paper's:
//
//   - every process has a unique id and *advertises* names it will
//     respond to; a kernel call generates names unique over space & time;
//   - *discover* uses unreliable broadcast to find a process advertising
//     a given name;
//   - processes do not send messages: they *request a transfer* (name,
//     process id, small out-of-band data, bytes-to-send, bytes-willing-
//     to-receive) — put/get/signal/exchange by which counts are zero;
//   - the target feels a *software interrupt* (single handler, maskable)
//     describing the request, and may *accept* it at any later time,
//     completing the transfer in both directions at once;
//   - completion interrupts are queued while the handler is closed;
//     requests for unadvertised names are delayed and retried by the
//     requesting kernel; a crash interrupt is delivered if the target
//     dies first.
package soda

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/calib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ProcID identifies a SODA process (equivalently, its node).
type ProcID int

// Name is a capability-like identifier, unique over space and time.
type Name uint64

// OOB is the small out-of-band datum carried by requests and accepts.
// SODA leaves its size unspecified but small; the paper's LYNX design
// wants at least 48 bits, so we provide exactly 48 (enforcing the
// scarcity that §4.2.1 worries about).
type OOB [6]byte

// OOBFromUint64 packs the low 48 bits of v into an OOB.
func OOBFromUint64(v uint64) OOB {
	var o OOB
	for i := 0; i < 6; i++ {
		o[i] = byte(v >> (8 * i))
	}
	return o
}

// Uint64 unpacks the OOB into the low 48 bits of a uint64.
func (o OOB) Uint64() uint64 {
	var v uint64
	for i := 0; i < 6; i++ {
		v |= uint64(o[i]) << (8 * i)
	}
	return v
}

// Status is the result of a SODA kernel call.
type Status int

// Kernel call status codes.
const (
	OK Status = iota
	// NoSuchProc: the target id names no live process.
	NoSuchProc
	// DeadProc: the target died (also delivered via crash interrupts).
	DeadProc
	// TooManyRequests: the per-pair outstanding-request limit would be
	// exceeded (§4.2.1's "unspecified constant").
	TooManyRequests
	// NoSuchRequest: Accept named an unknown or already-accepted request.
	NoSuchRequest
	// NotFound: Discover failed to find an advertiser.
	NotFound
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case NoSuchProc:
		return "NO_SUCH_PROC"
	case DeadProc:
		return "DEAD_PROC"
	case TooManyRequests:
		return "TOO_MANY_REQUESTS"
	case NoSuchRequest:
		return "NO_SUCH_REQUEST"
	case NotFound:
		return "NOT_FOUND"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ReqID identifies an outstanding request.
type ReqID int64

// Kind classifies a request by its transfer directions.
type Kind int

// Request kinds. The kind is implied by which byte counts are nonzero:
// put sends, get receives, signal does neither, exchange does both.
const (
	Signal Kind = iota
	Put
	Get
	Exchange
)

func (k Kind) String() string {
	switch k {
	case Signal:
		return "signal"
	case Put:
		return "put"
	case Get:
		return "get"
	default:
		return "exchange"
	}
}

// KindOf derives the kind from the requested transfer sizes.
func KindOf(sendBytes, recvBytes int) Kind {
	switch {
	case sendBytes > 0 && recvBytes > 0:
		return Exchange
	case sendBytes > 0:
		return Put
	case recvBytes > 0:
		return Get
	default:
		return Signal
	}
}

// Interrupt is a software interrupt delivered to a process's handler.
type Interrupt struct {
	// Kind of interrupt.
	IKind IntKind
	// Req identifies the request this interrupt concerns.
	Req ReqID
	// From is the peer process (requester for IntRequest, accepter for
	// IntCompletion, the dead process for IntCrash).
	From ProcID
	// Name is the advertised name the request specified (IntRequest).
	Name Name
	// OOB carries the request's or accept's out-of-band data.
	OOB OOB
	// Kind of the underlying request (IntRequest).
	ReqKind Kind
	// SendBytes/RecvBytes are the requester's declared sizes (IntRequest).
	SendBytes, RecvBytes int
	// Data is the payload received by this process in the completed
	// transfer (IntCompletion only; nil otherwise).
	Data []byte
	// Sent is how many bytes this process's outgoing payload actually
	// transferred (IntCompletion).
	Sent int
}

// IntKind classifies interrupts.
type IntKind int

// Interrupt kinds.
const (
	IntRequest IntKind = iota
	IntCompletion
	IntCrash
)

func (k IntKind) String() string {
	switch k {
	case IntRequest:
		return "request"
	case IntCompletion:
		return "completion"
	default:
		return "crash"
	}
}

// Handler receives software interrupts. Handlers run in scheduler
// context and must not block; they typically record state and wake a
// waiting simproc.
type Handler func(Interrupt)

// charge spends CPU time on the calling simproc. Kernel calls made from
// interrupt-handler context pass a nil proc: the kernel processor does
// the work asynchronously and no client CPU is charged.
func charge(p *sim.Proc, d sim.Duration) {
	if p != nil {
		p.Delay(d)
	}
}

// Kernel is the SODA network: the set of kernel processors and the bus.
//
// The kernel's state lives in groups: one from construction, and one
// per shard env after Partition, each with its own process table, bus
// segment and strided id allocators, so processes of different groups
// share no mutable kernel state mid-run. A request addressed across
// groups fails with NoSuchProc — partition groups are connected
// components of the boot wiring, so no correct program crosses them.
type Kernel struct {
	env   *sim.Env
	bus   *netsim.CSMABus
	costs calib.SODACosts

	groups []*kgroup // one until Partition, then one per shard env

	rec *obs.Recorder
	// Instrument handles, resolved once so hot paths skip the registry.
	cRequests, cAccepts, cInterrupts, cDiscovers *obs.Counter
	cBroadcasts, cRetries, cBytes                *obs.Counter
	// PairLimit is the maximum outstanding requests between an ordered
	// pair of processes (§4.2.1). Zero means unlimited.
	PairLimit int
}

// kgroup is one group of the kernel: the env its processes run on,
// the bus segment they transmit over, its process table, and strided
// id allocators whose output depends only on this group's own call
// order.
type kgroup struct {
	k   *Kernel
	env *sim.Env
	net netsim.Network

	procs    map[ProcID]*Process
	nextProc ProcID
	nextName uint64
	nextReq  ReqID
	stride   int

	// gone holds the ids of this group's terminated processes, dropped
	// from procs, so requests to them still fail with DeadProc rather
	// than NoSuchProc. It is allocated on the first termination.
	gone map[ProcID]struct{}

	// free holds request records for reuse. Only this group's processes
	// and frames take from and return to it, so groups never share one.
	free []*request
}

// newRequest takes a request record from the group's free list, or
// makes one with its two frame callbacks bound.
func (g *kgroup) newRequest() *request {
	if n := len(g.free); n > 0 {
		r := g.free[n-1]
		g.free = g.free[:n-1]
		return r
	}
	r := &request{g: g}
	r.arrive = r.onArrive
	r.complete = r.onComplete
	return r
}

// drop releases one of r's holds. The last one clears r and returns it
// to its group's free list; the payload copy r held already belongs to
// the accepter, or to nobody.
func (r *request) drop() {
	if r.holds--; r.holds > 0 {
		return
	}
	g := r.g
	*r = request{g: g, arrive: r.arrive, complete: r.complete}
	g.free = append(g.free, r)
}

// NewKernel creates a SODA kernel over the given bus.
func NewKernel(env *sim.Env, bus *netsim.CSMABus, costs calib.SODACosts) *Kernel {
	rec := obs.NewRecorder(env, "soda")
	k := &Kernel{
		env:         env,
		bus:         bus,
		costs:       costs,
		rec:         rec,
		cRequests:   rec.Counter(obs.MKernelRequests),
		cAccepts:    rec.Counter(obs.MKernelAccepts),
		cInterrupts: rec.Counter(obs.MKernelInterrupts),
		cDiscovers:  rec.Counter(obs.MKernelDiscovers),
		cBroadcasts: rec.Counter(obs.MKernelBroadcasts),
		cRetries:    rec.Counter(obs.MKernelRetries),
		cBytes:      rec.Counter(obs.MKernelBytes),
		PairLimit:   8,
	}
	k.groups = []*kgroup{{k: k, env: env, net: bus, procs: make(map[ProcID]*Process),
		nextProc: 1, nextName: 1, nextReq: 1, stride: 1}}
	return k
}

// Partition splits the kernel into one group per shard env for a
// conservative parallel run: group i's processes run on envs[i] and
// transmit over segment i of the kernel's bus, which it splits and
// returns. Each group gets its own copy of the boot group's process
// table, so the copies cost len(envs) × (processes registered so far).
// Ids allocated from here on are strided per group, so mid-run
// NewName/Request/NewProcessIn stay deterministic at any worker count.
// Call once, before the run starts, then AssignGroup every process.
func (k *Kernel) Partition(envs []*sim.Env) []netsim.Network {
	if len(k.groups) != 1 {
		panic("soda: Partition called twice")
	}
	segs := k.bus.Partition(len(envs))
	boot := k.groups[0]
	k.groups = make([]*kgroup, len(envs))
	for i := range envs {
		k.groups[i] = &kgroup{
			k: k, env: envs[i], net: segs[i],
			procs:    maps.Clone(boot.procs),
			gone:     maps.Clone(boot.gone),
			nextProc: boot.nextProc + ProcID(i),
			nextName: boot.nextName + uint64(i),
			nextReq:  boot.nextReq + ReqID(i),
			stride:   len(envs),
		}
	}
	return segs
}

// transmit charges one request/accept frame on the bus and schedules
// deliver at its arrival instant, consulting the bus's fault hook (if
// any) for the frame's fate. pre is the kernel path cost before the
// wire and post the cost after it (copy loops, interrupt dispatch);
// both are charged once regardless of retries. A dropped frame is
// resent after the kernel's RetryInterval — the same periodic retry
// SODA's kernel already uses for parked requests — and is re-judged by
// the hook on each attempt, so a healed partition lets the retry
// through. While a request frame is lost the requester still observes
// ReqInFlight, so bindings keep waiting instead of misreading the loss
// as a stale hint. A duplicated frame charges the bus for the ghost
// copy at delivery; the kernel discards the duplicate (request and
// completion handling are idempotent), so only bandwidth is lost. With
// no hook installed the path is byte-identical to SendTime + After.
func (g *kgroup) transmit(src, dst netsim.NodeID, nbytes int, pre, post sim.Duration, deliver func()) {
	wire := g.net.SendTime(g.env.Now(), src, dst, nbytes)
	if h := g.net.FaultHook(); h != nil {
		v := h.Frame(g.env.Now(), src, dst, nbytes, wire, false)
		if v.Drop {
			g.env.After(pre+g.k.costs.RetryInterval, func() { g.transmit(src, dst, nbytes, 0, post, deliver) })
			return
		}
		wire += v.Extra
		if v.Dup {
			g.env.After(pre+wire+post, func() {
				g.net.SendTime(g.env.Now(), src, dst, nbytes) // ghost copy occupies the bus
				deliver()
			})
			return
		}
	}
	g.env.After(pre+wire+post, deliver)
}

// Obs returns the kernel's observability recorder; the binding shares
// it, and sinks attach to it.
func (k *Kernel) Obs() *obs.Recorder { return k.rec }

// eventKind maps a request kind onto its typed event kind.
func eventKind(k Kind) obs.Kind {
	switch k {
	case Put:
		return obs.KindPut
	case Get:
		return obs.KindGet
	case Exchange:
		return obs.KindExchange
	default:
		return obs.KindSignal
	}
}

// DataDelay reports how long n bytes of accepted payload take to become
// usable at the receiving client processor: kernel copy plus bus
// serialization. Bindings use it to defer message visibility to match
// the physical transfer the kernel charges on the completion path.
func (k *Kernel) DataDelay(n int) sim.Duration {
	wirePerByte := sim.Duration(8 * int64(sim.Second) / k.bus.BitRate)
	return sim.Duration(n) * (k.costs.PerByte + wirePerByte)
}

// LiveIDs returns the ids of all live processes in this process's
// group, ascending. SODA "makes it easy to guess their ids"; the
// freeze protocol needs this. Groups are connected components of the
// boot wiring, so the group is "every process in existence" as far as
// any protocol of pr's can observe.
func (pr *Process) LiveIDs() []ProcID {
	return pr.g.liveIDs()
}

// liveIDs lists the group's live member processes, ascending by id.
// The table also holds copies of other groups' boot processes, which
// are skipped.
func (g *kgroup) liveIDs() []ProcID {
	var ids []ProcID
	for id, p := range g.procs {
		if p.g == g && !p.dead {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// request is the kernel-side record of an outstanding request. Records
// are reused through their partition group's free list.
type request struct {
	id        ReqID
	from, to  *Process // requester and target
	name      Name
	oob       OOB
	data      []byte // requester's outgoing payload
	recvBytes int    // requester's willingness to receive
	arrived   bool   // request frame has crossed the bus to the target
	delivered bool   // interrupt raised at target (name was advertised)
	accepted  bool
	withdrawn bool

	// The accept's half of the transfer, raised at the requester when
	// the completion frame arrives.
	reply    []byte
	replyOOB OOB
	sent     int

	// holds counts what can still reach the record: the target's
	// inbound table, the requester's outbound table, and each of its
	// frames on the bus. A terminated requester drops its outbound
	// table without counting down, so its records are left to the
	// collector.
	holds int
	g     *kgroup
	// arrive and complete are the descriptor's and the completion's
	// frame callbacks, made once per record; they survive release.
	arrive, complete func()
}

// Process is one SODA node: client processor + kernel processor.
type Process struct {
	k          *Kernel
	g          *kgroup
	id         ProcID
	node       netsim.NodeID
	advertised map[Name]bool
	handler    Handler
	open       bool
	dead       bool
	queue      []Interrupt // interrupts queued while closed
	// inbound: requests addressed to this process.
	inbound reqTable
	// outbound: requests this process posted.
	outbound reqTable
}

// NewProcess registers a process on the given node in group 0 with its
// interrupt handler initially open.
func (k *Kernel) NewProcess(node netsim.NodeID) *Process {
	return newProcessIn(k.groups[0], node)
}

// NewProcessIn registers a process directly in partition group g: the
// home-group placement for processes launched after the run has
// started. Its id comes from the group's strided allocator.
func (k *Kernel) NewProcessIn(g int, node netsim.NodeID) *Process {
	return newProcessIn(k.groups[g], node)
}

func newProcessIn(g *kgroup, node netsim.NodeID) *Process {
	pr := &Process{
		k:          g.k,
		g:          g,
		id:         g.nextProc,
		node:       node,
		advertised: make(map[Name]bool),
		open:       true,
	}
	g.nextProc += ProcID(g.stride)
	g.procs[pr.id] = pr
	return pr
}

// AssignGroup moves a boot-registered process into partition group g.
// Call after Kernel.Partition, before the run starts.
func (pr *Process) AssignGroup(g int) { pr.g = pr.k.groups[g] }

// Env returns the env of the process's group: the env its binding
// schedules on.
func (pr *Process) Env() *sim.Env { return pr.g.env }

// ID returns the process id.
func (pr *Process) ID() ProcID { return pr.id }

// NewName generates a name unique over space and time.
func (pr *Process) NewName(p *sim.Proc) Name {
	n := pr.g.nextName
	pr.g.nextName += uint64(pr.g.stride)
	charge(p, pr.k.costs.ClientCall) // cheap local kernel call
	return Name(n)
}

// Advertise begins responding to a name. Requests that were delayed
// waiting for the advertisement are delivered now.
func (pr *Process) Advertise(p *sim.Proc, n Name) {
	charge(p, pr.k.costs.ClientCall)
	if pr.advertised == nil { // terminated: Terminate dropped the table
		pr.advertised = make(map[Name]bool)
	}
	pr.advertised[n] = true
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindMark, Proc: int(pr.id),
			Detail: fmt.Sprintf("advertise %d", n),
		})
	}
	for _, r := range pr.pendingFor(n) {
		pr.k.cRetries.Inc()
		pr.deliverRequest(r)
	}
}

// Unadvertise stops responding to a name.
func (pr *Process) Unadvertise(p *sim.Proc, n Name) {
	charge(p, pr.k.costs.ClientCall)
	delete(pr.advertised, n)
}

// Advertises reports whether the process currently advertises n.
func (pr *Process) Advertises(n Name) bool { return pr.advertised[n] }

// pendingFor returns undelivered inbound requests naming n, oldest
// first.
func (pr *Process) pendingFor(n Name) []*request {
	var rs []*request
	for _, r := range pr.inbound {
		// Only frames that have physically arrived: an Advertise must not
		// deliver a request still serializing onto the bus.
		if r.arrived && !r.delivered && !r.accepted && r.name == n {
			rs = append(rs, r)
		}
	}
	return rs
}

// reqTable is a process's inbound or outbound requests in ascending id
// order, which is posting order: ids grow with posting time within a
// group, and all of a process's traffic is one group's.
type reqTable []*request

// find returns where id is in t, or where it would go.
func (t reqTable) find(id ReqID) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].id == id
}

// get returns the request with the given id, or nil.
func (t reqTable) get(id ReqID) *request {
	if i, ok := t.find(id); ok {
		return t[i]
	}
	return nil
}

func (t *reqTable) insert(r *request) {
	i, _ := t.find(r.id)
	*t = slices.Insert(*t, i, r)
}

// remove takes the request with the given id out of the table.
func (t *reqTable) remove(id ReqID) (*request, bool) {
	i, ok := t.find(id)
	if !ok {
		return nil, false
	}
	r := (*t)[i]
	*t = slices.Delete(*t, i, i+1)
	return r, true
}

// SetHandler installs the single software-interrupt handler.
func (pr *Process) SetHandler(h Handler) { pr.handler = h }

// CloseHandler masks interrupts; they queue until OpenHandler.
func (pr *Process) CloseHandler() { pr.open = false }

// OpenHandler unmasks interrupts and flushes the queue in arrival order.
func (pr *Process) OpenHandler() {
	pr.open = true
	for len(pr.queue) > 0 && pr.open {
		ir := pr.queue[0]
		pr.queue = pr.queue[0:copy(pr.queue, pr.queue[1:])]
		pr.raise(ir)
	}
}

// raise delivers an interrupt to the handler, or queues it while masked.
func (pr *Process) raise(ir Interrupt) {
	if pr.dead {
		return
	}
	if !pr.open || pr.handler == nil {
		pr.queue = append(pr.queue, ir)
		return
	}
	if ir.IKind == IntCompletion {
		// The transfer's bookkeeping ends only now that the requester
		// actually sees the completion (see Accept).
		if r, ok := pr.outbound.remove(ir.Req); ok {
			r.drop()
		}
	}
	pr.k.cInterrupts.Inc()
	pr.handler(ir)
}

// Request posts a transfer request to process `to` under advertised name
// `name`. data is what the requester wants to send (put/exchange);
// recvBytes is how much it is willing to receive (get/exchange). The
// request id is returned immediately; completion (or crash) arrives as an
// interrupt. The requesting user can proceed meanwhile.
func (pr *Process) Request(p *sim.Proc, to ProcID, name Name, oob OOB, data []byte, recvBytes int) (ReqID, Status) {
	charge(p, pr.k.costs.ClientCall)
	pr.k.cRequests.Inc()
	target, ok := pr.g.procs[to]
	if !ok || target.g != pr.g {
		if _, dead := pr.g.gone[to]; dead {
			return 0, DeadProc
		}
		// A target outside the partition group is unreachable: groups are
		// connected components of the boot wiring, and its state belongs
		// to a concurrently executing shard. (Membership is checked before
		// any mutable field of target is read; a member in the table is
		// alive, for Terminate moves it to gone.)
		return 0, NoSuchProc
	}
	if lim := pr.k.PairLimit; lim > 0 {
		n := 0
		for _, r := range pr.outbound {
			if r.to.id == to && !r.accepted {
				n++
			}
		}
		if n >= lim {
			return 0, TooManyRequests
		}
	}
	r := pr.g.newRequest()
	r.id = pr.g.nextReq
	pr.g.nextReq += ReqID(pr.g.stride)
	r.from, r.to = pr, target
	r.name, r.oob, r.recvBytes = name, oob, recvBytes
	// The kernel's one copy: it becomes the accepter's data.
	r.data = make([]byte, len(data))
	copy(r.data, data)
	pr.outbound.insert(r)
	target.inbound.insert(r)
	r.holds = 3 // both tables and the descriptor frame

	// The request descriptor crosses the bus (a small frame).
	k := pr.k
	pr.g.transmit(pr.node, target.node, 32, k.costs.RequestPath, k.costs.InterruptDelivery, r.arrive)
	if k.rec.Active() {
		k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: eventKind(KindOf(len(data), recvBytes)),
			Proc: int(pr.id), Peer: int(to), Seq: uint64(r.id), Bytes: len(r.data),
			Detail: fmt.Sprintf("name=%d recv=%d", name, recvBytes),
		})
	}
	return r.id, OK
}

// onArrive is the descriptor frame's arrival at the target.
func (r *request) onArrive() {
	if !r.withdrawn && !r.accepted && !r.to.dead {
		r.arrived = true
		if r.to.advertised[r.name] {
			r.to.deliverRequest(r)
		}
		// Else: parked; Advertise will deliver it (the kernel's
		// periodic retry, modeled without the bus traffic).
	}
	r.drop()
}

// onComplete is the completion frame's arrival at the requester.
func (r *request) onComplete() {
	r.from.raise(Interrupt{
		IKind: IntCompletion, Req: r.id, From: r.to.id, OOB: r.replyOOB,
		Data: r.reply, Sent: r.sent,
	})
	r.drop()
}

// deliverRequest raises the request interrupt at the target.
func (pr *Process) deliverRequest(r *request) {
	r.delivered = true
	pr.raise(Interrupt{
		IKind: IntRequest, Req: r.id, From: r.from.id, Name: r.name,
		OOB: r.oob, ReqKind: KindOf(len(r.data), r.recvBytes),
		SendBytes: len(r.data), RecvBytes: r.recvBytes,
	})
}

// Accept completes a previously posted request. data is what the
// accepter sends back toward the requester (bounded by the requester's
// recvBytes); recvBytes is how much of the requester's payload the
// accepter takes (bounded by what was sent). The transfer happens in
// both directions simultaneously; the requester feels a completion
// interrupt carrying oob. Accepting does not block the accepter.
func (pr *Process) Accept(p *sim.Proc, id ReqID, oob OOB, data []byte, recvBytes int) (got []byte, st Status) {
	charge(p, pr.k.costs.ClientCall)
	r := pr.inbound.get(id)
	if r == nil || r.accepted {
		return nil, NoSuchRequest
	}
	requester := r.from
	if requester.dead {
		pr.inbound.remove(id)
		r.drop()
		return nil, DeadProc
	}
	r.accepted = true
	// The inbound table's hold passes to the completion frame.
	pr.inbound.remove(id)
	// The requester's outbound entry survives (marked accepted) until its
	// completion interrupt is actually dispatched: RequestDelivered must
	// keep answering true across the accept→interrupt window, or a hint
	// timeout firing inside it would misread a successful transfer as a
	// stale hint and re-post a put that was already taken.
	pr.k.cAccepts.Inc()

	// Transfer sizes: the smaller of the two parties' declarations.
	toAccepter := r.data
	if len(toAccepter) > recvBytes {
		toAccepter = toAccepter[:recvBytes]
	}
	toRequester := data
	if len(toRequester) > r.recvBytes {
		toRequester = toRequester[:r.recvBytes]
	}
	n := len(toAccepter) + len(toRequester)
	pr.k.cBytes.Add(int64(n))

	copyCost := sim.Duration(n) * pr.k.costs.PerByte
	r.reply = make([]byte, len(toRequester))
	copy(r.reply, toRequester)
	r.replyOOB, r.sent = oob, len(toAccepter)
	k := pr.k
	if k.rec.Active() {
		k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindAccept, Proc: int(pr.id), Peer: int(requester.id),
			Seq: uint64(id), Bytes: n,
			Detail: fmt.Sprintf("%dB back, %dB taken", len(r.reply), r.sent),
		})
	}
	pr.g.transmit(pr.node, requester.node, n+32, k.costs.RequestPath, copyCost+k.costs.InterruptDelivery, r.complete)
	return toAccepter, OK
}

// Discover broadcasts for a process advertising n and blocks for the
// first answer (or the discover timeout). The broadcast is unreliable:
// each advertiser independently misses it with the bus's loss rate.
func (pr *Process) Discover(p *sim.Proc, n Name) (ProcID, Status) {
	pr.k.cDiscovers.Inc()
	pr.k.cBroadcasts.Inc()
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindDiscover, Proc: int(pr.id),
			Detail: fmt.Sprintf("name=%d", n),
		})
	}
	charge(p, pr.k.costs.ClientCall)
	g := pr.g
	wire := g.net.BroadcastTime(g.env.Now(), pr.node, 16)
	p.Delay(wire)
	// Candidate advertisers, ascending by id, scoped to the caller's
	// partition group: a broadcast never leaves its bus segment, and the
	// rng draw per candidate must follow the group's own stream.
	var found, foundNode = ProcID(0), netsim.NodeID(0)
	for _, id := range g.liveIDs() {
		q := g.procs[id]
		if q.id == pr.id || !q.advertised[n] {
			continue
		}
		if g.net.BroadcastDelivers(q.node) {
			found, foundNode = q.id, q.node
			break
		}
	}
	if found == 0 {
		// Wait out the timeout window for (absent) answers.
		p.Delay(pr.k.costs.DiscoverTimeout)
		return 0, NotFound
	}
	// The answer frame returns over the bus.
	back := g.net.SendTime(g.env.Now(), foundNode, pr.node, 16)
	p.Delay(back)
	return found, OK
}

// ReqState is the requester-visible lifecycle of an outstanding request.
type ReqState int

const (
	// ReqGone: not outstanding (completed, crashed, or withdrawn).
	ReqGone ReqState = iota
	// ReqInFlight: the request frame is still crossing the bus. Says
	// nothing about the hint's freshness — under load the shared medium
	// can hold a frame far longer than any staleness timeout.
	ReqInFlight
	// ReqUndeliverable: the frame arrived but the target does not
	// advertise the name. The hint is stale (or the advertiser is only
	// briefly between names); recovery is warranted.
	ReqUndeliverable
	// ReqDelivered: the target has seen the request and is simply not
	// accepting yet — normal stop-and-wait blocking.
	ReqDelivered
)

// RequestState reports where an outstanding request of ours is in its
// lifecycle. Bindings use this to tell bus congestion (ReqInFlight)
// apart from a stale hint (ReqUndeliverable): only the latter should
// trigger rediscovery.
func (pr *Process) RequestState(id ReqID) ReqState {
	r := pr.outbound.get(id)
	switch {
	case r == nil:
		return ReqGone
	case r.delivered:
		return ReqDelivered
	case r.arrived:
		return ReqUndeliverable
	default:
		return ReqInFlight
	}
}

// RequestDelivered reports whether an outstanding request of ours has
// had its interrupt raised at the target (i.e. the target advertises the
// name and has seen the descriptor). A LYNX binding uses this to
// distinguish "hint is stale / name unadvertised" (recovery needed) from
// "delivered but not yet accepted" (normal stop-and-wait blocking).
func (pr *Process) RequestDelivered(id ReqID) bool {
	r := pr.outbound.get(id)
	return r != nil && r.delivered
}

// Withdraw retracts an unaccepted request this process posted: the
// requesting kernel simply stops retrying and the target forgets the
// descriptor. It fails with NoSuchRequest if the request was already
// accepted (the transfer happened).
func (pr *Process) Withdraw(p *sim.Proc, id ReqID) Status {
	charge(p, pr.k.costs.ClientCall)
	r := pr.outbound.get(id)
	if r == nil || r.accepted {
		return NoSuchRequest
	}
	r.withdrawn = true
	if _, ok := r.to.inbound.remove(id); ok {
		r.drop()
	}
	pr.outbound.remove(id)
	r.drop()
	return OK
}

// OutstandingTo counts unaccepted requests this process has posted to a
// given target.
func (pr *Process) OutstandingTo(to ProcID) int {
	n := 0
	for _, r := range pr.outbound {
		if r.to.id == to && !r.accepted {
			n++
		}
	}
	return n
}

// Terminate kills the process: its advertisements vanish, inbound
// requests die, and every process with an outstanding request to it
// feels a crash interrupt. Safe to call from OnKill hooks.
//
// The kernel then forgets everything but the id: the process leaves its
// group's table for the group's gone set (the DeadProc answer), and its
// handler, queue and request tables are dropped, so nothing the handler
// reached stays alive through the kernel.
func (pr *Process) Terminate() {
	if pr.dead {
		return
	}
	pr.dead = true
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{Kind: obs.KindMark, Proc: int(pr.id), Detail: "terminate"})
	}
	// Walk inbound in request-id order: each entry schedules a timer,
	// and timer ties break by scheduling sequence. The crash interrupts
	// fire on the group env — inbound traffic is group-local by
	// construction.
	for _, r := range pr.inbound {
		if requester := r.from; !requester.dead {
			if _, ok := requester.outbound.remove(r.id); ok {
				r.drop()
			}
			reqID, from := r.id, pr.id
			pr.g.env.After(pr.k.costs.RetryInterval, func() {
				requester.raise(Interrupt{IKind: IntCrash, Req: reqID, From: from})
			})
		}
		r.drop() // the inbound table's hold
	}
	pr.inbound, pr.outbound, pr.advertised = nil, nil, nil
	pr.handler, pr.queue = nil, nil
	g := pr.g
	delete(g.procs, pr.id)
	if g.gone == nil {
		g.gone = make(map[ProcID]struct{})
	}
	g.gone[pr.id] = struct{}{}
}

// Dead reports whether the process has terminated.
func (pr *Process) Dead() bool { return pr.dead }
