// Package chrbind implements the LYNX run-time package's kernel-specific
// half for the Chrysalis (BBN Butterfly) kernel — the implementation
// §5.2 of the paper describes:
//
//   - every process allocates a single dual queue and event block through
//     which it learns of messages sent and received;
//   - a link is a MEMORY OBJECT mapped into both connected processes,
//     holding buffer space for one request and one reply in each
//     direction, a set of 16-bit atomic flag bits, and the (non-atomically
//     written) dual-queue names of the two owners;
//   - a sender gathers its message into the link buffer, atomically sets
//     a flag, and enqueues a notice on the far owner's dual queue; the
//     receiver consumes the buffer, clears the flag, sets the matching
//     ACK flag and notices back;
//   - notices are HINTS: on dequeue the owner validates that it still
//     owns the mentioned end and that the flag is really set, discarding
//     stale notices. "Every change to a flag is eventually reflected by a
//     notice on the appropriate dual queue, but not every dual queue
//     notice reflects a change to a flag";
//   - a link moves by passing its object name in a message: the receiver
//     maps the object, (non-atomically) writes its own dual-queue name,
//     then inspects the flags and self-notices any that are set — so
//     changes are never overlooked even if the far end read a torn name
//     and its notice went astray;
//   - destruction sets a flag bit, notices the peer, and unmaps; kernel
//     reference counting reclaims the object when both sides let go.
//
// Because the flags are ground truth and the run-time package checks them
// itself, screening is free: every message surfaced to the core is
// wanted, unwanted replies can be REJECTED so the server feels the
// exception, and multi-end moves cost one object name each.
package chrbind

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/chrysalis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Link object layout.
const (
	offFlags  = 0  // 16-bit atomic flag word
	offQName0 = 4  // side 0 owner's dual queue name (non-atomic 32-bit)
	offQName1 = 8  // side 1 owner's dual queue name
	offBufs   = 12 // four buffer regions follow, each 4-byte length + core.MaxMessage

	// objSize is the link object's total size.
	objSize = offBufs + 4*(4+core.MaxMessage)
)

// bufOffset returns the byte offset of buffer region i.
func bufOffset(i int) int { return offBufs + i*(4+core.MaxMessage) }

// Flag bits. "Full" means a message waits in the buffer; "ack" means the
// receiver consumed it; "rej" NAKs an unwanted reply.
const (
	fullReq0to1 uint16 = 1 << iota
	fullRep0to1
	fullReq1to0
	fullRep1to0
	ackReq0to1
	ackRep0to1
	ackReq1to0
	ackRep1to0
	rejRep0to1
	rejRep1to0
	flagDestroyed
)

// slotKinds lists the message kinds by slot: a link end has one
// request and one reply buffer per direction, and one send of each kind
// in flight.
var slotKinds = [2]core.MsgKind{core.KindRequest, core.KindReply}

// bufIndex returns the region index for messages of kind k sent by side.
func bufIndex(side int, k core.MsgKind) int { return side*2 + k.Slot() }

// fullBit returns the "message waiting" bit for kind k sent by side.
func fullBit(side int, k core.MsgKind) uint16 {
	switch {
	case side == 0 && k == core.KindRequest:
		return fullReq0to1
	case side == 0:
		return fullRep0to1
	case k == core.KindRequest:
		return fullReq1to0
	default:
		return fullRep1to0
	}
}

// ackBit returns the consumption bit for kind k sent by side.
func ackBit(side int, k core.MsgKind) uint16 {
	return fullBit(side, k) << 4
}

// rejBit returns the rejection bit for replies sent by side.
func rejBit(side int) uint16 {
	if side == 0 {
		return rejRep0to1
	}
	return rejRep1to0
}

// EndID is the transport handle: object name + side.
type EndID struct {
	Obj  chrysalis.ObjName
	Side int
}

func (e EndID) String() string { return fmt.Sprintf("chr<%d.%d>", e.Obj, e.Side) }

// peerSide returns the other side.
func (e EndID) peerSide() int { return 1 - e.Side }

// counters holds the binding's per-process obs counter handles.
type counters struct {
	notices      *obs.Counter
	staleNotices *obs.Counter
	flagRescans  *obs.Counter
	moves        *obs.Counter
	rejections   *obs.Counter
	lostNotices  *obs.Counter
}

// Transport is one LYNX process's Chrysalis binding.
type Transport struct {
	k    *chrysalis.Kernel
	kp   *chrysalis.Process
	sink func(core.Event)
	proc *sim.Proc
	pump *sim.Proc
	rec  *obs.Recorder
	c    counters

	queue chrysalis.QueueName
	event chrysalis.EventName

	ends map[EndID]*endState
	dead bool
	// sendBuf is StartSend's encode buffer, reused across sends: the
	// message is gathered here, then copied into the link object.
	sendBuf []byte
}

var _ core.Transport = (*Transport)(nil)

// endState is the binding's view of one owned link end.
type endState struct {
	id EndID
	// te is id as a core.TransEnd, boxed once so the events this end
	// raises do not allocate.
	te      core.TransEnd
	dead    bool
	wantReq bool
	wantRep bool
	// out tracks sends awaiting their ACK flag, by kindSlot.
	out [2]outRec
}

func newEndState(id EndID) *endState { return &endState{id: id, te: id} }

type outRec struct {
	msg *core.WireMsg // the send of this kind awaiting its ACK; nil if none
	// encl holds the endState records captured at send time; if a
	// loopback self-move re-adopted an end meanwhile, the live map entry
	// differs and the cleanup must not touch it.
	encl []*endState
}

// counterSet names the binding's per-process counters; each process
// gets one block of them (obs.Metrics.ProcCounters).
var counterSet = obs.NewCounterSet(
	obs.MNotices,
	obs.MStaleNotices,
	obs.MFlagRescans,
	obs.MLinkMoves,
	obs.MRejections,
	obs.MLostNotices,
	obs.MTornNameReads,
)

// New creates the binding for one LYNX process. The process's dual queue
// and event block are allocated immediately (boot-time, uncharged). It
// schedules on kp's env.
func New(k *chrysalis.Kernel, kp *chrysalis.Process) *Transport {
	rec := k.Obs()
	b := rec.ProcCounters(counterSet, kp.ID())
	tr := &Transport{
		k:   k,
		kp:  kp,
		rec: rec,
		c: counters{
			notices:      b.Counter(obs.MNotices),
			staleNotices: b.Counter(obs.MStaleNotices),
			flagRescans:  b.Counter(obs.MFlagRescans),
			moves:        b.Counter(obs.MLinkMoves),
			rejections:   b.Counter(obs.MRejections),
			lostNotices:  b.Counter(obs.MLostNotices),
		},
		ends: make(map[EndID]*endState),
	}
	tr.queue = kp.NewDualQueue(nil, 1024)
	tr.event = kp.NewEvent(nil)
	return tr
}

// Obs returns the recorder this binding reports into (the kernel's).
func (tr *Transport) Obs() *obs.Recorder { return tr.rec }

// obsEmit records a binding-protocol event when a trace sink is
// attached; counters are maintained unconditionally.
func (tr *Transport) obsEmit(kind obs.Kind, link int, detail string) {
	if tr.rec.Active() {
		tr.rec.EmitEnv(tr.kp.Env(), obs.Event{Kind: kind, Proc: tr.kp.ID(), Link: link, Detail: detail})
	}
}

// KernelProcess returns the underlying Chrysalis process (harness use).
func (tr *Transport) KernelProcess() *chrysalis.Process { return tr.kp }

// SetSink implements core.Transport and starts the notice pump.
func (tr *Transport) SetSink(sink func(core.Event), sp *sim.Proc) {
	tr.sink = sink
	tr.proc = sp
	tr.pump = tr.kp.Env().Spawn(fmt.Sprintf("chrbind.pump.p%d", tr.kp.ID()), func(p *sim.Proc) {
		for {
			v, ok, st := tr.kp.Dequeue(p, tr.queue, tr.event)
			if st != chrysalis.OK {
				return
			}
			if !ok {
				d, st := tr.kp.EventWait(p, tr.event)
				if st != chrysalis.OK {
					return
				}
				v = d
			}
			tr.handleNotice(p, chrysalis.ObjName(v))
		}
	})
}

// BootLink creates a link between two bindings before their processes
// start (loader wiring).
func BootLink(a, b *Transport) (core.TransEnd, core.TransEnd) {
	obj := a.kp.AllocObject(nil, objSize)
	b.kp.Map(nil, obj)
	a.kp.Write32(nil, obj, offQName0, uint32(a.queue))
	b.kp.Write32(nil, obj, offQName1, uint32(b.queue))
	ea := newEndState(EndID{Obj: obj, Side: 0})
	eb := newEndState(EndID{Obj: obj, Side: 1})
	a.ends[ea.id] = ea
	b.ends[eb.id] = eb
	return ea.te, eb.te
}

// MakeLink implements core.Transport: both sides owned locally until one
// end moves.
func (tr *Transport) MakeLink() (core.TransEnd, core.TransEnd, error) {
	obj := tr.kp.AllocObject(tr.proc, objSize)
	tr.kp.Write32(tr.proc, obj, offQName0, uint32(tr.queue))
	tr.kp.Write32(tr.proc, obj, offQName1, uint32(tr.queue))
	ea := newEndState(EndID{Obj: obj, Side: 0})
	eb := newEndState(EndID{Obj: obj, Side: 1})
	tr.ends[ea.id] = ea
	tr.ends[eb.id] = eb
	return ea.te, eb.te, nil
}

// notify enqueues a notice for the owner of the given side of obj,
// reading that side's (possibly torn) dual-queue name.
func (tr *Transport) notify(p *sim.Proc, obj chrysalis.ObjName, side int) {
	off := offQName0
	if side == 1 {
		off = offQName1
	}
	qn, st := tr.kp.Read32(p, obj, off)
	if st != chrysalis.OK {
		return
	}
	tr.c.notices.Inc()
	tr.obsEmit(obs.KindNotice, int(obj), "notify")
	if est := tr.kp.Enqueue(p, chrysalis.QueueName(qn), uint32(obj)); est != chrysalis.OK {
		// Torn or stale queue name: the notice is lost, but the flag is
		// already set and the mover's rescan will find it.
		tr.c.lostNotices.Inc()
	}
}

// Destroy implements core.Transport.
func (tr *Transport) Destroy(te core.TransEnd) error {
	id := te.(EndID)
	es, ok := tr.ends[id]
	if !ok || es.dead {
		return core.ErrLinkDestroyed
	}
	es.dead = true
	tr.kp.OrFlag16(tr.proc, id.Obj, offFlags, flagDestroyed)
	tr.notify(tr.proc, id.Obj, id.peerSide())
	delete(tr.ends, id)
	tr.kp.FreeWhenUnreferenced(tr.proc, id.Obj)
	// If we own both sides (never moved), drop the other too.
	if other, ok := tr.ends[EndID{Obj: id.Obj, Side: id.peerSide()}]; ok {
		other.dead = true
		delete(tr.ends, other.id)
		tr.sink(core.Event{Kind: core.EvLinkDead, End: other.te})
	}
	tr.kp.Unmap(tr.proc, id.Obj)
	return nil
}

// SetInterest implements core.Transport: newly-opened interest rescans
// the flags for messages that were left waiting (screening is just "don't
// look yet" on this substrate).
func (tr *Transport) SetInterest(te core.TransEnd, wantRequests, wantReplies bool) {
	id := te.(EndID)
	es, ok := tr.ends[id]
	if !ok || es.dead {
		return
	}
	gotReq := !es.wantReq && wantRequests
	gotRep := !es.wantRep && wantReplies
	es.wantReq, es.wantRep = wantRequests, wantReplies
	if gotReq || gotRep {
		tr.scanEnd(tr.proc, es)
	}
}

// StartSend implements core.Transport: gather into the link buffer, set
// the full flag, notice the far owner.
func (tr *Transport) StartSend(te core.TransEnd, m *core.WireMsg) error {
	id := te.(EndID)
	es, ok := tr.ends[id]
	if !ok || es.dead {
		return core.ErrLinkDestroyed
	}
	payload, err := m.AppendEncoded(tr.sendBuf[:0])
	if err != nil {
		return err
	}
	var encl []*endState
	for _, e := range m.Encl {
		eid := e.(EndID)
		ees, ok := tr.ends[eid]
		if !ok {
			return core.ErrNotOwner
		}
		encl = append(encl, ees)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(eid.Obj))
		payload = append(payload, byte(eid.Side))
	}
	tr.sendBuf = payload
	if len(payload) > core.MaxMessage {
		return fmt.Errorf("chrbind: message %dB exceeds buffer %dB", len(payload), core.MaxMessage)
	}
	base := bufOffset(bufIndex(id.Side, m.Kind))
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(payload)))
	if st := tr.kp.WriteBytes(tr.proc, id.Obj, base, lenb[:]); st != chrysalis.OK {
		return tr.objGone(es, st)
	}
	if st := tr.kp.WriteBytes(tr.proc, id.Obj, base+4, payload); st != chrysalis.OK {
		return tr.objGone(es, st)
	}
	es.out[m.Kind.Slot()] = outRec{msg: m, encl: encl}
	old, st := tr.kp.OrFlag16(tr.proc, id.Obj, offFlags, fullBit(id.Side, m.Kind))
	if st != chrysalis.OK {
		return tr.objGone(es, st)
	}
	if old&flagDestroyed != 0 {
		return core.ErrLinkDestroyed
	}
	tr.notify(tr.proc, id.Obj, id.peerSide())
	return nil
}

// objGone translates an object access failure (reclaimed link) into
// link death.
func (tr *Transport) objGone(es *endState, st chrysalis.Status) error {
	if st == chrysalis.NoSuchObject || st == chrysalis.NotMapped {
		tr.endDead(es)
		return core.ErrLinkDestroyed
	}
	return fmt.Errorf("chrbind: %v", st)
}

// CancelSend implements core.Transport: atomically clear the full flag;
// whoever clears it first (canceller or consumer) wins.
func (tr *Transport) CancelSend(te core.TransEnd, m *core.WireMsg) bool {
	id := te.(EndID)
	es, ok := tr.ends[id]
	if !ok {
		return true
	}
	slot := m.Kind.Slot()
	if es.out[slot].msg != m {
		return false
	}
	bit := fullBit(id.Side, m.Kind)
	old, st := tr.kp.AndFlag16(tr.proc, id.Obj, offFlags, ^bit)
	if st != chrysalis.OK {
		return true // link gone; nothing will be received
	}
	if old&bit != 0 {
		// We cleared it before the receiver consumed: recalled.
		es.out[slot] = outRec{}
		return true
	}
	return false // already consumed (ack on the way)
}

// handleNotice validates and processes one dequeued notice (a hint).
func (tr *Transport) handleNotice(p *sim.Proc, obj chrysalis.ObjName) {
	var found bool
	for side := 0; side < 2; side++ {
		if es, ok := tr.ends[EndID{Obj: obj, Side: side}]; ok && !es.dead {
			tr.scanEnd(p, es)
			found = true
		}
	}
	if !found {
		// "If either check fails, the notice is discarded."
		tr.c.staleNotices.Inc()
	}
}

// scanEnd inspects the link's flags from es's perspective and acts on
// every relevant set bit. This is also the mover's rescan.
func (tr *Transport) scanEnd(p *sim.Proc, es *endState) {
	tr.c.flagRescans.Inc()
	id := es.id
	flags, st := tr.kp.Flag16(p, id.Obj, offFlags)
	if st != chrysalis.OK {
		tr.endDead(es)
		return
	}
	if flags&flagDestroyed != 0 {
		tr.kp.Unmap(p, id.Obj)
		tr.endDead(es)
		return
	}
	// ACKs for our sends.
	for slot, kind := range slotKinds {
		rec := es.out[slot]
		if rec.msg == nil {
			continue
		}
		ab := ackBit(id.Side, kind)
		if flags&ab != 0 {
			tr.kp.AndFlag16(p, id.Obj, offFlags, ^ab)
			es.out[slot] = outRec{}
			for _, ees := range rec.encl {
				if cur, ok := tr.ends[ees.id]; !ok || cur != ees {
					// Already gone, or re-adopted by a loopback
					// self-move: leave the live record alone.
					continue
				}
				delete(tr.ends, ees.id)
				if _, keep := tr.ends[EndID{Obj: ees.id.Obj, Side: ees.id.peerSide()}]; !keep {
					tr.kp.Unmap(p, ees.id.Obj)
				}
			}
			tr.sink(core.Event{Kind: core.EvDelivered, End: es.te, Msg: rec.msg})
		}
		if kind == core.KindReply && flags&rejBit(id.Side) != 0 {
			tr.kp.AndFlag16(p, id.Obj, offFlags, ^rejBit(id.Side))
			es.out[slot] = outRec{}
			tr.sink(core.Event{Kind: core.EvSendFailed, End: es.te, Msg: rec.msg, Err: core.ErrUnwantedReply})
		}
	}
	// Incoming messages from the far side.
	far := id.peerSide()
	for _, kind := range slotKinds {
		fb := fullBit(far, kind)
		if flags&fb == 0 {
			continue
		}
		wanted := (kind == core.KindRequest && es.wantReq) || (kind == core.KindReply && es.wantRep)
		if !wanted {
			if kind == core.KindReply {
				// NAK so the replying server feels the exception.
				if old, _ := tr.kp.AndFlag16(p, id.Obj, offFlags, ^fb); old&fb != 0 {
					tr.c.rejections.Inc()
					tr.obsEmit(obs.KindUnwanted, int(id.Obj), "reply rejected")
					tr.kp.OrFlag16(p, id.Obj, offFlags, rejBit(far))
					tr.notify(p, id.Obj, far)
				}
				continue
			}
			// Unwanted request: leave the flag set; we will come back to
			// it when interest opens (free screening).
			continue
		}
		// Claim the message by clearing the full flag atomically; a
		// concurrent Cancel can beat us.
		old, st := tr.kp.AndFlag16(p, id.Obj, offFlags, ^fb)
		if st != chrysalis.OK || old&fb == 0 {
			continue
		}
		tr.consume(p, es, far, kind)
	}
}

// consume reads one message out of the link buffer, adopts enclosures,
// ACKs, and surfaces it.
func (tr *Transport) consume(p *sim.Proc, es *endState, fromSide int, kind core.MsgKind) {
	id := es.id
	base := bufOffset(bufIndex(fromSide, kind))
	var lenb [4]byte
	if st := tr.kp.ReadBytes(p, id.Obj, base, lenb[:]); st != chrysalis.OK {
		return
	}
	n := int(binary.LittleEndian.Uint32(lenb[:]))
	if n < 0 || n > core.MaxMessage {
		return
	}
	// The decoded message's Data aliases payload, so it is fresh per
	// message.
	payload := make([]byte, n)
	if st := tr.kp.ReadBytes(p, id.Obj, base+4, payload); st != chrysalis.OK {
		return
	}
	// Split wire bytes from enclosure records (5 bytes each).
	nencl := 0
	if len(payload) >= 2 {
		nencl = int(payload[1])
	}
	wireLen := len(payload) - nencl*5
	if wireLen < 0 {
		return
	}
	wire, _, err := core.DecodeWire(payload[:wireLen])
	if err != nil {
		return
	}
	wire.Encl = make([]core.TransEnd, 0, nencl)
	for i := 0; i < nencl; i++ {
		off := wireLen + i*5
		obj := chrysalis.ObjName(binary.LittleEndian.Uint32(payload[off:]))
		side := int(payload[off+4])
		wire.Encl = append(wire.Encl, tr.adoptEnd(p, obj, side))
	}
	// ACK: the sender's coroutine can unblock.
	tr.kp.OrFlag16(p, id.Obj, offFlags, ackBit(fromSide, kind))
	tr.notify(p, id.Obj, fromSide)
	tr.sink(core.Event{Kind: core.EvIncoming, End: es.te, Msg: wire})
}

// adoptEnd maps a moved link end into this process: write our dual-queue
// name (non-atomic!), THEN inspect flags and self-notice anything set —
// the ordering §5.2 relies on so changes are never overlooked.
func (tr *Transport) adoptEnd(p *sim.Proc, obj chrysalis.ObjName, side int) core.TransEnd {
	id := EndID{Obj: obj, Side: side}
	tr.c.moves.Inc()
	if tr.rec.Active() { // gate here: Sprintf allocates even when obsEmit drops the event
		tr.obsEmit(obs.KindLinkMove, int(obj), fmt.Sprintf("adopt %v", id))
	}
	tr.kp.Map(p, obj)
	off := offQName0
	if side == 1 {
		off = offQName1
	}
	tr.kp.Write32(p, obj, off, uint32(tr.queue))
	es := newEndState(id)
	tr.ends[id] = es
	// Rescan: pending traffic written while the move was in flight.
	flags, st := tr.kp.Flag16(p, obj, offFlags)
	if st == chrysalis.OK && flags != 0 {
		tr.kp.Enqueue(p, tr.queue, uint32(obj))
		tr.c.notices.Inc()
	}
	return es.te
}

// endDead marks an end dead and tells the core.
func (tr *Transport) endDead(es *endState) {
	if es.dead {
		return
	}
	es.dead = true
	delete(tr.ends, es.id)
	tr.sink(core.Event{Kind: core.EvLinkDead, End: es.te})
}

// Shutdown implements core.Transport: "before terminating, each process
// destroys all of its links" — Chrysalis lets even erroneous processes
// run this cleanup.
func (tr *Transport) Shutdown() {
	if tr.dead {
		return
	}
	tr.dead = true
	// Walk the ends in (object, side) order: teardown notices peers and
	// emits events, so map order would make same-seed runs diverge.
	ids := make([]EndID, 0, len(tr.ends))
	for id := range tr.ends {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Obj != ids[j].Obj {
			return ids[i].Obj < ids[j].Obj
		}
		return ids[i].Side < ids[j].Side
	})
	for _, id := range ids {
		es := tr.ends[id]
		es.dead = true
		tr.kp.OrFlag16(nil, id.Obj, offFlags, flagDestroyed)
		tr.notify(nil, id.Obj, id.peerSide())
		tr.kp.FreeWhenUnreferenced(nil, id.Obj)
		delete(tr.ends, id)
	}
	tr.kp.Terminate()
	if tr.pump != nil {
		tr.pump.Kill()
	}
}
