// Package chrysalis reimplements the BBN Butterfly's Chrysalis operating
// system primitives as described in §5 of the paper, on the sim/netsim
// substrate.
//
// Chrysalis is the paper's lowest-level interface: it provides no
// messages at all. Its (largely microcoded) abstractions are:
//
//   - memory objects, mappable into the address spaces of arbitrarily
//     many processes, with kernel reference counts and reclamation;
//   - event blocks: binary semaphores whose V carries a 32-bit datum
//     returned by a subsequent P; only the owner may wait, but any
//     process that knows the name may post;
//   - dual queues: bounded buffers of 32-bit data that, once drained,
//     flip into queues of event-block names — a dequeue on an empty
//     queue enqueues the caller's event block, and an enqueue on a queue
//     of event names posts the oldest event instead of buffering.
//
// Atomic operations on 16-bit quantities are microcoded and cheap;
// atomic updates wider than 16 bits are costly, so wide writes are
// non-atomic. The simulation makes the resulting torn-read window real:
// Write32 writes two halves separated by virtual time, and a concurrent
// Read32 can observe the mix, exactly the hazard §5.2 tiptoes around
// when a moved link's dual-queue name is updated.
package chrysalis

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

// Status is the result of a Chrysalis call.
type Status int

// Call status codes.
const (
	OK Status = iota
	// NoSuchObject: the name denotes no live memory object.
	NoSuchObject
	// NotMapped: the process has not mapped the object.
	NotMapped
	// NotOwner: only the owner may wait on an event block.
	NotOwner
	// OverPost: V on an already-posted event block.
	OverPost
	// QueueFull: the dual queue's data buffer is full.
	QueueFull
	// NoSuchEvent: the name denotes no live event block.
	NoSuchEvent
	// NoSuchQueue: the name denotes no live dual queue.
	NoSuchQueue
	// BadAccess: out-of-range object offset.
	BadAccess
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case NoSuchObject:
		return "NO_SUCH_OBJECT"
	case NotMapped:
		return "NOT_MAPPED"
	case NotOwner:
		return "NOT_OWNER"
	case OverPost:
		return "OVER_POST"
	case QueueFull:
		return "QUEUE_FULL"
	case NoSuchEvent:
		return "NO_SUCH_EVENT"
	case NoSuchQueue:
		return "NO_SUCH_QUEUE"
	case BadAccess:
		return "BAD_ACCESS"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ObjName is the address-space-independent name of a memory object.
type ObjName uint32

// EventName names an event block.
type EventName uint32

// QueueName names a dual queue. Queue names are wider than 16 bits,
// which is why the paper's link objects update them non-atomically.
type QueueName uint32

// Kernel is the Chrysalis instance shared by all processors of one
// Butterfly machine.
//
// The kernel's state lives in groups: one from construction, and one
// per shard env after Partition, each with its own object, event and
// queue tables, backplane segment and strided allocators, so processes
// of different groups share no mutable kernel state. Kernel names are
// unforgeable capabilities handed over links, and links never cross
// partition groups, so no correct program reaches another group's
// structures.
type Kernel struct {
	env   *sim.Env
	bp    *netsim.Backplane
	costs calib.ChrysalisCosts

	groups []*kgroup // one until Partition, then one per shard env

	rec *obs.Recorder
	// Cached counter handles: atomic flag ops are the hottest path in
	// the whole repo, so increments must not pay a registry probe.
	cAtomicOps, cEnqueues, cDequeues   *obs.Counter
	cEventPosts, cEventWaits           *obs.Counter
	cMaps, cUnmaps                     *obs.Counter
	cBytesMoved, cReclaimed, cTornRead *obs.Counter
	// TuneFactor scales fixed primitive costs (1.0 = paper's measured
	// system; calib.ChrysalisTunedFactor = with the optimizations §5.3
	// says were under development). It does not change per-byte costs.
	TuneFactor float64
}

// kgroup is one group of the kernel: the env its processes run on,
// the backplane segment their remote accesses charge, its tables, and
// strided id allocators whose output depends only on this group's own
// call order.
type kgroup struct {
	k   *Kernel
	env *sim.Env
	net netsim.Network

	objects map[ObjName]*memObject
	events  map[EventName]*eventBlock
	queues  map[QueueName]*dualQueue

	nextID  uint32
	nextPID int
	stride  int
}

func (g *kgroup) newID() uint32 {
	id := g.nextID
	g.nextID += uint32(g.stride)
	return id
}

// NewKernel creates a Chrysalis kernel over the given backplane.
func NewKernel(env *sim.Env, bp *netsim.Backplane, costs calib.ChrysalisCosts) *Kernel {
	rec := obs.NewRecorder(env, "chrysalis")
	k := &Kernel{
		env:         env,
		bp:          bp,
		costs:       costs,
		rec:         rec,
		cAtomicOps:  rec.Counter(obs.MAtomicOps),
		cEnqueues:   rec.Counter(obs.MQueueEnqueues),
		cDequeues:   rec.Counter(obs.MQueueDequeues),
		cEventPosts: rec.Counter(obs.MEventPosts),
		cEventWaits: rec.Counter(obs.MEventWaits),
		cMaps:       rec.Counter(obs.MObjectMaps),
		cUnmaps:     rec.Counter(obs.MObjectUnmaps),
		cBytesMoved: rec.Counter(obs.MKernelBytes),
		cReclaimed:  rec.Counter(obs.MObjectsReclaimed),
		cTornRead:   rec.Counter(obs.MTornReads),
		TuneFactor:  1.0,
	}
	k.groups = []*kgroup{{
		k: k, env: env, net: bp,
		objects: make(map[ObjName]*memObject),
		events:  make(map[EventName]*eventBlock),
		queues:  make(map[QueueName]*dualQueue),
		nextID:  1, nextPID: 1, stride: 1,
	}}
	return k
}

// Partition splits the kernel into one group per shard env for a
// conservative parallel run: group i's processes run on envs[i] and
// charge remote accesses to segment i of the kernel's backplane, which
// it splits and returns. Each group gets its own copy of the boot
// group's tables, so the copies cost len(envs) × (objects, events and
// queues allocated so far). Ids allocated from here on are strided per
// group, so mid-run allocation stays deterministic at any worker
// count. Call once, before the run starts, then AssignGroup every
// process.
func (k *Kernel) Partition(envs []*sim.Env) []netsim.Network {
	if len(k.groups) != 1 {
		panic("chrysalis: Partition called twice")
	}
	segs := k.bp.Partition(len(envs))
	boot := k.groups[0]
	k.groups = make([]*kgroup, len(envs))
	for i := range envs {
		k.groups[i] = &kgroup{
			k: k, env: envs[i], net: segs[i],
			objects: maps.Clone(boot.objects),
			events:  maps.Clone(boot.events),
			queues:  maps.Clone(boot.queues),
			nextID:  boot.nextID + uint32(i),
			nextPID: boot.nextPID + i,
			stride:  len(envs),
		}
	}
	return segs
}

// Obs returns the kernel's observability recorder; the binding shares
// it, and sinks attach to it.
func (k *Kernel) Obs() *obs.Recorder { return k.rec }

func (k *Kernel) cost(d sim.Duration) sim.Duration {
	return sim.Duration(float64(d) * k.TuneFactor)
}

// charge spends CPU on the calling simproc; calls made from scheduler
// context (boot wiring, notice pumps mid-callback) pass nil and are not
// charged.
func charge(p *sim.Proc, d sim.Duration) {
	if p != nil {
		p.Delay(d)
	}
}

// Host pages backing memory objects. Only the host representation is
// paged: bounds checks and every charge use the object's modeled size,
// so a link object costs the host only the pages it has been written in.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// memObject is a kernel memory object.
type memObject struct {
	name ObjName
	size int // modeled size in bytes
	// pages holds the contents; a page is allocated on its first write,
	// and a nil page reads as zeros.
	pages        []*page
	refs         int
	freeWhenZero bool
	home         netsim.NodeID // memory module holding the object
	// midWrite lists the offsets of 32-bit fields currently half-written
	// (a set: each offset at most once). Read32 during the window returns
	// the torn mix.
	midWrite []int
}

// inBounds reports whether n bytes at off lie inside the modeled size.
func (o *memObject) inBounds(off, n int) bool { return off >= 0 && off+n <= o.size }

// pageForWrite returns the page holding off, allocating it if it has
// never been written.
func (o *memObject) pageForWrite(off int) *page {
	pg := o.pages[off>>pageShift]
	if pg == nil {
		pg = new(page)
		o.pages[off>>pageShift] = pg
	}
	return pg
}

// load16 reads the little-endian 16-bit word at off, indexing the page
// directly unless the word straddles two pages.
func (o *memObject) load16(off int) uint16 {
	if i := off & pageMask; i != pageMask {
		pg := o.pages[off>>pageShift]
		if pg == nil {
			return 0
		}
		return uint16(pg[i]) | uint16(pg[i+1])<<8
	}
	var b [2]byte
	o.read(b[:], off)
	return uint16(b[0]) | uint16(b[1])<<8
}

// store16 writes the little-endian 16-bit word at off.
func (o *memObject) store16(off int, v uint16) {
	if i := off & pageMask; i != pageMask {
		pg := o.pageForWrite(off)
		pg[i], pg[i+1] = byte(v), byte(v>>8)
		return
	}
	o.write([]byte{byte(v), byte(v >> 8)}, off)
}

// read copies len(dst) bytes at off into dst.
func (o *memObject) read(dst []byte, off int) {
	for len(dst) > 0 {
		i := off & pageMask
		n := min(len(dst), pageSize-i)
		if pg := o.pages[off>>pageShift]; pg != nil {
			copy(dst[:n], pg[i:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+n
	}
}

// write copies src into the object at off.
func (o *memObject) write(src []byte, off int) {
	for len(src) > 0 {
		n := copy(o.pageForWrite(off)[off&pageMask:], src)
		src, off = src[n:], off+n
	}
}

// eventBlock is a binary semaphore with a 32-bit datum.
type eventBlock struct {
	name   EventName
	owner  *Process
	posted bool
	datum  uint32
	wq     *sim.WaitQueue
}

// dualQueue holds either data or event-block names.
type dualQueue struct {
	name     QueueName
	capacity int
	data     []uint32
	waiters  []EventName // event names enqueued by dequeues-on-empty
}

// Process is a Chrysalis process: an address space plus owned event
// blocks.
type Process struct {
	k    *Kernel
	g    *kgroup
	id   int
	node netsim.NodeID
	// mapped holds the objects mapped into the address space. A mapped
	// object is never reclaimed (it holds one of the references), so a
	// hit here needs no kernel lookup.
	mapped map[ObjName]*memObject
	dead   bool
}

// NewProcess registers a process on the given node, in group 0.
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
	id := g.nextPID
	g.nextPID += g.stride
	return &Process{k: g.k, g: g, id: id, node: node, mapped: make(map[ObjName]*memObject)}
}

// AssignGroup moves a boot-registered process into partition group g.
// Call after Kernel.Partition, before the run starts.
func (pr *Process) AssignGroup(g int) { pr.g = pr.k.groups[g] }

// Env returns the env of the process's group: the env its binding
// schedules on.
func (pr *Process) Env() *sim.Env { return pr.g.env }

// ID returns the process id.
func (pr *Process) ID() int { return pr.id }

// AllocObject creates a memory object of the given size, mapped into the
// caller's address space with reference count 1. The object's memory
// lives on the caller's node.
func (pr *Process) AllocObject(p *sim.Proc, size int) ObjName {
	charge(p, pr.k.cost(pr.k.costs.MapObject))
	name := ObjName(pr.g.newID())
	o := &memObject{
		name:  name,
		size:  size,
		pages: make([]*page, (size+pageMask)>>pageShift),
		refs:  1,
		home:  pr.node,
	}
	pr.g.objects[name] = o
	pr.mapped[name] = o
	pr.k.cMaps.Inc()
	return name
}

// Map maps the named object into the caller's address space,
// incrementing its reference count.
func (pr *Process) Map(p *sim.Proc, name ObjName) Status {
	charge(p, pr.k.cost(pr.k.costs.MapObject))
	o, ok := pr.g.objects[name]
	if !ok {
		return NoSuchObject
	}
	if _, ok := pr.mapped[name]; !ok {
		o.refs++
		pr.mapped[name] = o
	}
	pr.k.cMaps.Inc()
	return OK
}

// Unmap removes the object from the caller's address space, decrementing
// the reference count and reclaiming the object if it hits zero with
// free-when-unreferenced set.
func (pr *Process) Unmap(p *sim.Proc, name ObjName) Status {
	if p != nil {
		charge(p, pr.k.cost(pr.k.costs.MapObject/2))
	}
	o, st := pr.obj(name)
	if st != OK {
		return st
	}
	delete(pr.mapped, name)
	o.refs--
	pr.k.cUnmaps.Inc()
	pr.g.maybeReclaim(o)
	return OK
}

// FreeWhenUnreferenced tells the kernel to reclaim the object when its
// reference count reaches zero.
func (pr *Process) FreeWhenUnreferenced(p *sim.Proc, name ObjName) Status {
	o, ok := pr.g.objects[name]
	if !ok {
		return NoSuchObject
	}
	o.freeWhenZero = true
	pr.g.maybeReclaim(o)
	return OK
}

func (g *kgroup) maybeReclaim(o *memObject) {
	if o.refs <= 0 && o.freeWhenZero {
		delete(g.objects, o.name)
		k := g.k
		k.cReclaimed.Inc()
		if k.rec.Active() {
			k.rec.EmitEnv(g.env, obs.Event{
				Kind: obs.KindMark, Link: int(o.name), Detail: "object reclaimed",
			})
		}
	}
}

// Refs reports the reference count of an object in group 0's table
// (tests and invariants).
func (k *Kernel) Refs(name ObjName) (int, bool) {
	o, ok := k.groups[0].objects[name]
	if !ok {
		return 0, false
	}
	return o.refs, true
}

// obj validates access and returns the object.
func (pr *Process) obj(name ObjName) (*memObject, Status) {
	if o, ok := pr.mapped[name]; ok {
		return o, OK
	}
	if _, ok := pr.g.objects[name]; ok {
		return nil, NotMapped
	}
	return nil, NoSuchObject
}

// remoteCost returns the backplane charge for touching n bytes of an
// object homed on another node, consulting the backplane's fault hook
// (if any). Shared memory cannot lose a write, so faults surface as
// latency: a Drop verdict doubles the transfer (the switch hardware
// retries), a partition's Stall blocks the access until the heal, and
// Extra models a degraded path. With no hook the charge is unchanged.
func (pr *Process) remoteCost(o *memObject, n int) sim.Duration {
	if o.home == pr.node {
		return 0
	}
	g := pr.g
	d := g.net.SendTime(g.env.Now(), pr.node, o.home, n)
	if h := g.net.FaultHook(); h != nil {
		v := h.Frame(g.env.Now(), pr.node, o.home, n, d, false)
		if v.Drop {
			d += d // hardware retry: the transfer crosses the switch twice
		}
		d += v.Extra + v.Stall
	}
	return d
}

// SetFlag16 atomically sets a 16-bit flag word at offset (microcoded,
// cheap). Returns the previous value.
func (pr *Process) SetFlag16(p *sim.Proc, name ObjName, offset int, v uint16) (uint16, Status) {
	o, st := pr.obj(name)
	if st != OK {
		return 0, st
	}
	if !o.inBounds(offset, 2) {
		return 0, BadAccess
	}
	charge(p, pr.k.cost(pr.k.costs.AtomicOp)+pr.remoteCost(o, 2))
	pr.k.cAtomicOps.Inc()
	old := o.load16(offset)
	o.store16(offset, v)
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindFlagSet, Proc: pr.id, Link: int(name),
			Detail: fmt.Sprintf("set@%d=%#x", offset, v),
		})
	}
	return old, OK
}

// OrFlag16 atomically ORs bits into a 16-bit flag word, returning the
// previous value (one microcoded atomic op).
func (pr *Process) OrFlag16(p *sim.Proc, name ObjName, offset int, bits uint16) (uint16, Status) {
	o, st := pr.obj(name)
	if st != OK {
		return 0, st
	}
	if !o.inBounds(offset, 2) {
		return 0, BadAccess
	}
	charge(p, pr.k.cost(pr.k.costs.AtomicOp)+pr.remoteCost(o, 2))
	pr.k.cAtomicOps.Inc()
	old := o.load16(offset)
	o.store16(offset, old|bits)
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindFlagSet, Proc: pr.id, Link: int(name),
			Detail: fmt.Sprintf("or@%d=%#x", offset, bits),
		})
	}
	return old, OK
}

// AndFlag16 atomically ANDs a mask into a 16-bit flag word, returning
// the previous value.
func (pr *Process) AndFlag16(p *sim.Proc, name ObjName, offset int, mask uint16) (uint16, Status) {
	o, st := pr.obj(name)
	if st != OK {
		return 0, st
	}
	if !o.inBounds(offset, 2) {
		return 0, BadAccess
	}
	charge(p, pr.k.cost(pr.k.costs.AtomicOp)+pr.remoteCost(o, 2))
	pr.k.cAtomicOps.Inc()
	old := o.load16(offset)
	o.store16(offset, old&mask)
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindFlagSet, Proc: pr.id, Link: int(name),
			Detail: fmt.Sprintf("and@%d=%#x", offset, mask),
		})
	}
	return old, OK
}

// Flag16 atomically reads a 16-bit flag word.
func (pr *Process) Flag16(p *sim.Proc, name ObjName, offset int) (uint16, Status) {
	o, st := pr.obj(name)
	if st != OK {
		return 0, st
	}
	if !o.inBounds(offset, 2) {
		return 0, BadAccess
	}
	charge(p, pr.k.cost(pr.k.costs.AtomicOp)+pr.remoteCost(o, 2))
	pr.k.cAtomicOps.Inc()
	return o.load16(offset), OK
}

// Write32 writes a 32-bit field non-atomically: the low half lands, a
// torn window of WideWrite virtual time passes, then the high half
// lands. A concurrent Read32 during the window sees the mix.
func (pr *Process) Write32(p *sim.Proc, name ObjName, offset int, v uint32) Status {
	o, st := pr.obj(name)
	if st != OK {
		return st
	}
	if !o.inBounds(offset, 4) {
		return BadAccess
	}
	if !slices.Contains(o.midWrite, offset) {
		o.midWrite = append(o.midWrite, offset)
	}
	o.store16(offset, uint16(v))
	charge(p, pr.k.cost(pr.k.costs.WideWrite)+pr.remoteCost(o, 4))
	o.store16(offset+2, uint16(v>>16))
	if i := slices.Index(o.midWrite, offset); i >= 0 {
		o.midWrite = slices.Delete(o.midWrite, i, i+1)
	}
	return OK
}

// Read32 reads a 32-bit field non-atomically; a read racing a Write32
// observes the torn mix (counted in stats).
func (pr *Process) Read32(p *sim.Proc, name ObjName, offset int) (uint32, Status) {
	o, st := pr.obj(name)
	if st != OK {
		return 0, st
	}
	if !o.inBounds(offset, 4) {
		return 0, BadAccess
	}
	charge(p, pr.k.cost(pr.k.costs.WideWrite/2)+pr.remoteCost(o, 4))
	if slices.Contains(o.midWrite, offset) {
		pr.k.cTornRead.Inc()
		if pr.k.rec.Active() {
			pr.k.rec.EmitEnv(pr.g.env, obs.Event{
				Kind: obs.KindTornRead, Proc: pr.id, Link: int(name),
				Detail: fmt.Sprintf("offset %d", offset),
			})
		}
	}
	return uint32(o.load16(offset)) | uint32(o.load16(offset+2))<<16, OK
}

// WriteBytes copies buf into the object at offset (block copy, charged
// per byte plus backplane time for remote objects).
func (pr *Process) WriteBytes(p *sim.Proc, name ObjName, offset int, buf []byte) Status {
	o, st := pr.obj(name)
	if st != OK {
		return st
	}
	if !o.inBounds(offset, len(buf)) {
		return BadAccess
	}
	charge(p, sim.Duration(len(buf))*pr.k.costs.BufferCopy+pr.remoteCost(o, len(buf)))
	o.write(buf, offset)
	pr.k.cBytesMoved.Add(int64(len(buf)))
	return OK
}

// ReadBytes copies len(dst) bytes out of the object at offset into dst
// (block copy, charged like WriteBytes).
func (pr *Process) ReadBytes(p *sim.Proc, name ObjName, offset int, dst []byte) Status {
	o, st := pr.obj(name)
	if st != OK {
		return st
	}
	if !o.inBounds(offset, len(dst)) {
		return BadAccess
	}
	charge(p, sim.Duration(len(dst))*pr.k.costs.BufferCopy+pr.remoteCost(o, len(dst)))
	o.read(dst, offset)
	pr.k.cBytesMoved.Add(int64(len(dst)))
	return OK
}

// NewEvent allocates an event block owned by the caller.
func (pr *Process) NewEvent(p *sim.Proc) EventName {
	charge(p, pr.k.cost(pr.k.costs.EventPost))
	name := EventName(pr.g.newID())
	pr.g.events[name] = &eventBlock{
		name:  name,
		owner: pr,
		// The wait queue lives on the owner's group env: only the owner
		// may wait, and posters are group-local (event names travel over
		// links, which never cross partition groups).
		wq: sim.NewWaitQueue(pr.g.env, fmt.Sprintf("chrysalis.ev%d", name)),
	}
	return name
}

// EventPost performs V: it posts the event with a 32-bit datum, waking
// the owner if it is waiting. Any process that knows the name may post.
func (pr *Process) EventPost(p *sim.Proc, name EventName, datum uint32) Status {
	ev, ok := pr.g.events[name]
	if !ok {
		return NoSuchEvent
	}
	if p != nil {
		charge(p, pr.k.cost(pr.k.costs.EventPost))
	}
	if ev.posted {
		return OverPost
	}
	pr.k.cEventPosts.Inc()
	ev.posted = true
	ev.datum = datum
	ev.wq.WakeValue(datum)
	return OK
}

// EventWait performs P: the owner blocks until the event is posted and
// receives the datum. Only the owner may wait.
func (pr *Process) EventWait(p *sim.Proc, name EventName) (uint32, Status) {
	ev, ok := pr.g.events[name]
	if !ok {
		return 0, NoSuchEvent
	}
	if ev.owner != pr {
		return 0, NotOwner
	}
	charge(p, pr.k.cost(pr.k.costs.EventWait))
	pr.k.cEventWaits.Inc()
	if ev.posted {
		ev.posted = false
		return ev.datum, OK
	}
	v := ev.wq.Wait(p).(uint32)
	ev.posted = false
	return v, OK
}

// EventPosted reports whether an event of group 0's table is currently
// posted (tests).
func (k *Kernel) EventPosted(name EventName) bool {
	ev, ok := k.groups[0].events[name]
	return ok && ev.posted
}

// NewDualQueue allocates a dual queue with the given data capacity.
func (pr *Process) NewDualQueue(p *sim.Proc, capacity int) QueueName {
	charge(p, pr.k.cost(pr.k.costs.Enqueue))
	name := QueueName(pr.g.newID())
	pr.g.queues[name] = &dualQueue{name: name, capacity: capacity}
	return name
}

// Enqueue adds a 32-bit datum to the queue — unless the queue holds
// event-block names, in which case the oldest event is posted with the
// datum instead ("an enqueue operation on a queue containing event block
// names actually posts a queued event").
func (pr *Process) Enqueue(p *sim.Proc, name QueueName, datum uint32) Status {
	q, ok := pr.g.queues[name]
	if !ok {
		return NoSuchQueue
	}
	if p != nil {
		charge(p, pr.k.cost(pr.k.costs.Enqueue))
	}
	pr.k.cEnqueues.Inc()
	if len(q.waiters) > 0 {
		evName := q.waiters[0]
		q.waiters = q.waiters[0:copy(q.waiters, q.waiters[1:])]
		if ev, ok := pr.g.events[evName]; ok && !ev.posted {
			pr.k.cEventPosts.Inc()
			if pr.k.rec.Active() {
				pr.k.rec.EmitEnv(pr.g.env, obs.Event{
					Kind: obs.KindQueueFlip, Proc: pr.id, Link: int(name),
					Detail: "enqueue posted queued event",
				})
			}
			ev.posted = true
			ev.datum = datum
			ev.wq.WakeValue(datum)
		}
		return OK
	}
	if len(q.data) >= q.capacity {
		return QueueFull
	}
	q.data = append(q.data, datum)
	return OK
}

// Dequeue removes the oldest datum. If the queue is empty, the caller's
// event block name is enqueued instead and ok=false is returned; the
// caller should then EventWait on that block ("once a queue becomes
// empty, subsequent dequeue operations actually enqueue event block
// names").
func (pr *Process) Dequeue(p *sim.Proc, name QueueName, ev EventName) (uint32, bool, Status) {
	q, ok := pr.g.queues[name]
	if !ok {
		return 0, false, NoSuchQueue
	}
	charge(p, pr.k.cost(pr.k.costs.Dequeue))
	pr.k.cDequeues.Inc()
	if len(q.data) > 0 {
		v := q.data[0]
		q.data = q.data[0:copy(q.data, q.data[1:])]
		return v, true, OK
	}
	q.waiters = append(q.waiters, ev)
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{
			Kind: obs.KindQueueFlip, Proc: pr.id, Link: int(name),
			Detail: "dequeue on empty enqueued event name",
		})
	}
	return 0, false, OK
}

// QueueLen reports the buffered data count of a queue of group 0's
// table (tests).
func (k *Kernel) QueueLen(name QueueName) int {
	if q, ok := k.groups[0].queues[name]; ok {
		return len(q.data)
	}
	return 0
}

// Terminate releases the process's address space: every mapped object is
// unmapped (running reclamation). Chrysalis lets dying processes run
// cleanup handlers first; callers model that by destroying links before
// calling Terminate.
func (pr *Process) Terminate() {
	if pr.dead {
		return
	}
	pr.dead = true
	if pr.k.rec.Active() {
		pr.k.rec.EmitEnv(pr.g.env, obs.Event{Kind: obs.KindMark, Proc: pr.id, Detail: "terminate"})
	}
	// Walk mapped objects in name order: reclamation emits events, so
	// randomized map order would make same-seed runs diverge.
	names := make([]ObjName, 0, len(pr.mapped))
	for name := range pr.mapped {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, name := range names {
		o := pr.mapped[name]
		o.refs--
		pr.g.maybeReclaim(o)
	}
	pr.mapped = make(map[ObjName]*memObject)
}

// Dead reports whether the process terminated.
func (pr *Process) Dead() bool { return pr.dead }
