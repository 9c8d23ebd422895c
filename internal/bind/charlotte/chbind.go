// Package chbind implements the LYNX run-time package's kernel-specific
// half for the Charlotte kernel — the implementation §3.2 of the paper
// describes, with all of its hard-won complications:
//
//   - request and reply queues are multiplexed onto Charlotte's single
//     receive activity per link end, so the binding can receive messages
//     it does not want and must bounce them back with RETRY (negative
//     acknowledgment) or FORBID/ALLOW (suppressing request traffic while
//     a reply is awaited);
//   - a Charlotte message can enclose at most ONE link end, so a LYNX
//     message moving several links is packetized: first packet (data +
//     first enclosure), a GOAHEAD from the receiver (requests only, so
//     the sender knows the request is wanted before committing more
//     ends), then one ENC message per remaining enclosure;
//   - Cancel of a posted receive can fail if a message snuck in, which
//     is exactly how unwanted messages arise;
//   - replies are always accepted; a reply whose coroutine has aborted
//     is silently discarded, because a top-level acknowledgment for
//     every reply "would increase message traffic by 50%" — so, unlike
//     the SODA and Chrysalis bindings, this transport CANNOT raise
//     ErrUnwantedReply at the server.
//
// Concurrency discipline: binding code runs in two simproc contexts —
// the LYNX process itself (core-facing methods) and the completion pump.
// Kernel calls park the calling context, so every function that can make
// a kernel call takes the charging proc explicitly, and binding state is
// made consistent BEFORE each parking call so the other context can
// interleave safely.
package chbind

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/charlotte"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ctrl is the binding-level message type carried in the first payload
// byte of every kernel message.
type ctrl byte

// Binding protocol message types (§3.2.1, §3.2.2).
const (
	ctrlData    ctrl = iota // first packet of a LYNX request or reply
	ctrlEnc                 // additional enclosure packet
	ctrlGoahead             // receiver wants the rest of a multi-enclosure request
	ctrlRetry               // negative ack: resend later (kernel will delay)
	ctrlForbid              // stop sending requests (reply still welcome)
	ctrlAllow               // requests welcome again
)

func (c ctrl) String() string {
	switch c {
	case ctrlData:
		return "data"
	case ctrlEnc:
		return "enc"
	case ctrlGoahead:
		return "goahead"
	case ctrlRetry:
		return "retry"
	case ctrlForbid:
		return "forbid"
	case ctrlAllow:
		return "allow"
	default:
		return fmt.Sprintf("ctrl(%d)", byte(c))
	}
}

// counters holds the binding's per-process obs counter handles,
// resolved once at construction so the hot paths do no map lookups.
type counters struct {
	kernelSends    *obs.Counter
	unwanted       *obs.Counter
	retries        *obs.Counter
	forbids        *obs.Counter
	allows         *obs.Counter
	goaheads       *obs.Counter
	encPackets     *obs.Counter
	droppedReplies *obs.Counter
	resentRequests *obs.Counter
	failedCancels  *obs.Counter
}

// Transport is one LYNX process's Charlotte binding.
type Transport struct {
	kp   *charlotte.Process
	sink func(core.Event)
	proc *sim.Proc // the LYNX process's simproc
	pump *sim.Proc
	rec  *obs.Recorder
	c    counters

	ends map[charlotte.EndRef]*endState
	dead bool
}

var _ core.Transport = (*Transport)(nil)

// endState is the binding's per-link-end protocol state. The binding
// keeps one for every end it has seen, for the whole run.
type endState struct {
	ref charlotte.EndRef
	te  core.TransEnd // ref, boxed once for events and handles

	dead    bool
	wantReq bool
	wantRep bool

	// recvPosted: a kernel receive activity is outstanding.
	recvPosted bool
	// recvBusy: a context is mid-Receive/Cancel kernel call; re-entrant
	// adjustReceive must back off and reconverge later.
	recvBusy bool
	// sendBusy: a kernel send activity is outstanding on this end.
	sendBusy bool
	// weForbade: we sent FORBID and owe an ALLOW once our request queue
	// opens or we have no receive posted.
	weForbade bool
	// peerForbade: peer sent FORBID; requests wait for ALLOW.
	peerForbade bool

	// curCtrl and curMsg are the type and LYNX message of the kernel
	// message occupying the send slot (curMsg is nil for control
	// messages).
	curCtrl ctrl
	curMsg  *outMsg
	// sendQ: kernel messages waiting for the send slot, FIFO. Control
	// messages jump the queue.
	sendQ []kmsg
	// buf is the end's encode buffer. pumpSend encodes a kernel message
	// into it just before the kernel Send, which copies it; the single
	// send slot keeps it untouched until Wait reports that send.
	buf []byte

	// Outbound LYNX messages in protocol flight: at most one per kind
	// by core's stop-and-wait, the request in slot 0, the reply in 1.
	outbound [2]*outMsg

	// Inbound multi-enclosure assembly.
	partial *inAssembly

	// bounceable holds requests the kernel has delivered but whose
	// LYNX-level acceptance is still unknown: a RETRY/FORBID naming one's
	// seq means the receiver bounced it and it must be resent; an
	// incoming reply with that seq confirms it.
	bounceable []*outMsg

	// stashed requests forbidden or retried, to resend.
	stashed []*outMsg
}

// kmsg is one kernel message queued for the end's send slot. pumpSend
// encodes it when its kernel send starts: the control byte, then the
// LYNX message om for ctrlData, om's kind for ctrlEnc, or the bounced
// request's seq for ctrlRetry and ctrlForbid.
type kmsg struct {
	c         ctrl
	om        *outMsg
	seq       uint64
	enclosure charlotte.EndRef
}

// outMsg tracks one LYNX message through the multi-packet protocol.
type outMsg struct {
	wire *core.WireMsg
	encl []charlotte.EndRef
	// state
	firstSent    bool
	awaitGoahead bool
	nextEnc      int // index of next enclosure to ship (≥1; #0 rode the first packet)
	cancelled    bool
}

// inAssembly collects a multi-enclosure message on the receive side.
type inAssembly struct {
	wire     *core.WireMsg
	needEncl int
	gotEncl  []charlotte.EndRef
}

// counterSet names the binding's per-process counters; each process
// gets one block of them (obs.Metrics.ProcCounters).
var counterSet = obs.NewCounterSet(
	obs.MBindKernelSends,
	obs.MUnwantedReceives,
	obs.MRetries,
	obs.MForbids,
	obs.MAllows,
	obs.MGoaheads,
	obs.MEncPackets,
	obs.MDroppedReplies,
	obs.MResentRequests,
	obs.MFailedCancels,
)

// New creates the binding for one LYNX process hosted on the given
// Charlotte kernel process; it schedules on kp's env.
func New(kp *charlotte.Process) *Transport {
	rec := kp.Kernel().Obs()
	b := rec.ProcCounters(counterSet, kp.ID())
	return &Transport{
		kp:  kp,
		rec: rec,
		c: counters{
			kernelSends:    b.Counter(obs.MBindKernelSends),
			unwanted:       b.Counter(obs.MUnwantedReceives),
			retries:        b.Counter(obs.MRetries),
			forbids:        b.Counter(obs.MForbids),
			allows:         b.Counter(obs.MAllows),
			goaheads:       b.Counter(obs.MGoaheads),
			encPackets:     b.Counter(obs.MEncPackets),
			droppedReplies: b.Counter(obs.MDroppedReplies),
			resentRequests: b.Counter(obs.MResentRequests),
			failedCancels:  b.Counter(obs.MFailedCancels),
		},
		ends: make(map[charlotte.EndRef]*endState),
	}
}

// Obs returns the recorder this binding reports into (the kernel's).
func (tr *Transport) Obs() *obs.Recorder { return tr.rec }

// emit records a binding-protocol event when a trace sink is attached.
// Counters are maintained unconditionally; events cost only when someone
// is watching.
func (tr *Transport) emit(kind obs.Kind, es *endState, seq uint64, detail string) {
	if tr.rec.Active() {
		var d string
		if tr.rec.WantDetail() {
			d = es.ref.String()
			if detail != "" {
				d = detail + " " + d
			}
		}
		tr.rec.EmitEnv(tr.kp.Env(), obs.Event{Kind: kind, Proc: tr.kp.ID(), Seq: seq, Detail: d})
	}
}

// KernelProcess returns the underlying Charlotte process (harness use).
func (tr *Transport) KernelProcess() *charlotte.Process { return tr.kp }

// SetSink implements core.Transport and starts the completion pump: a
// helper context that performs the process's kernel Wait calls and runs
// the protocol state machine on each completion.
func (tr *Transport) SetSink(sink func(core.Event), sp *sim.Proc) {
	tr.sink = sink
	tr.proc = sp
	tr.pump = tr.kp.Env().Spawn(fmt.Sprintf("chbind.pump.p%d", tr.kp.ID()), func(p *sim.Proc) {
		for {
			d := tr.kp.Wait(p)
			tr.handleCompletion(p, d)
		}
	})
}

// AdoptBootEnd registers an end assigned before startup (loader wiring).
func (tr *Transport) AdoptBootEnd(ref charlotte.EndRef) core.TransEnd {
	return tr.ensureEnd(ref).te
}

func (tr *Transport) ensureEnd(ref charlotte.EndRef) *endState {
	es, ok := tr.ends[ref]
	if !ok {
		es = &endState{ref: ref, te: ref}
		tr.ends[ref] = es
	}
	return es
}

// MakeLink implements core.Transport.
func (tr *Transport) MakeLink() (core.TransEnd, core.TransEnd, error) {
	e1, e2, st := tr.kp.MakeLink(tr.proc)
	if st != charlotte.OK {
		return nil, nil, fmt.Errorf("chbind: MakeLink: %v", st)
	}
	return tr.ensureEnd(e1).te, tr.ensureEnd(e2).te, nil
}

// Destroy implements core.Transport.
func (tr *Transport) Destroy(te core.TransEnd) error {
	ref := te.(charlotte.EndRef)
	es := tr.ensureEnd(ref)
	es.dead = true
	st := tr.kp.Destroy(tr.proc, ref)
	if st != charlotte.OK && st != charlotte.Destroyed {
		return fmt.Errorf("chbind: Destroy: %v", st)
	}
	return nil
}

// SetInterest implements core.Transport: adjust the posted kernel
// receive to match what the run-time package currently wants, cancelling
// it when nothing is wanted (the Cancel may fail — that is how unwanted
// messages happen).
func (tr *Transport) SetInterest(te core.TransEnd, wantRequests, wantReplies bool) {
	ref := te.(charlotte.EndRef)
	es := tr.ensureEnd(ref)
	es.wantReq, es.wantRep = wantRequests, wantReplies
	if es.dead {
		return
	}
	// Owing an ALLOW and now willing to receive requests? Send it.
	if es.weForbade && es.wantReq {
		tr.sendAllow(tr.proc, es)
	}
	tr.adjustReceive(tr.proc, es)
}

// sendAllow lifts a FORBID we issued earlier.
func (tr *Transport) sendAllow(p *sim.Proc, es *endState) {
	if !es.weForbade || es.dead {
		return
	}
	es.weForbade = false
	tr.c.allows.Inc()
	tr.emit(obs.KindAllow, es, 0, "")
	tr.sendCtrl(p, es, kmsg{c: ctrlAllow})
}

// adjustReceive posts or cancels the kernel receive according to current
// interest and protocol obligations. It reconverges until stable (the
// desired state can change while a kernel call parks us). A delivered
// request keeps the receive posted until its reply arrives, even when
// its connector has aborted: replies are always accepted, so the
// server's send completes and the reply is discarded here.
func (tr *Transport) adjustReceive(p *sim.Proc, es *endState) {
	for {
		if es.dead || es.recvBusy {
			return
		}
		want := es.wantReq || es.wantRep || es.peerForbade || es.partial != nil ||
			len(es.bounceable) > 0 || tr.expectingCtrl(es)
		if want == es.recvPosted {
			return
		}
		es.recvBusy = true
		if want {
			// Mark posted optimistically; roll back on failure.
			es.recvPosted = true
			st := tr.kp.Receive(p, es.ref, core.MaxMessage)
			es.recvBusy = false
			if st != charlotte.OK {
				es.recvPosted = false
				if st == charlotte.Destroyed {
					tr.endDied(es)
				}
				return
			}
		} else {
			st := tr.kp.Cancel(p, es.ref, charlotte.RecvDir)
			es.recvBusy = false
			if st == charlotte.OK {
				es.recvPosted = false
				// With no receive posted the kernel delays senders; any
				// FORBID we owe can be lifted (retransmissions are
				// delayed anyway).
				if es.weForbade {
					tr.sendAllow(p, es)
				}
			} else {
				// Cancel failed: a message is on its way in. The
				// completion handler will deal with it (and likely
				// bounce it).
				tr.c.failedCancels.Inc()
				return
			}
		}
	}
}

// expectingCtrl reports whether this end awaits a protocol message
// (goahead for an outbound multi-enclosure request, or an ALLOW after
// the peer forbade us while we still have stashed traffic).
func (tr *Transport) expectingCtrl(es *endState) bool {
	for _, om := range es.outbound {
		if om != nil && om.awaitGoahead {
			return true
		}
	}
	return len(es.stashed) > 0
}

// StartSend implements core.Transport.
func (tr *Transport) StartSend(te core.TransEnd, m *core.WireMsg) error {
	ref := te.(charlotte.EndRef)
	es := tr.ensureEnd(ref)
	if es.dead {
		return core.ErrLinkDestroyed
	}
	encl := make([]charlotte.EndRef, len(m.Encl))
	for i, e := range m.Encl {
		encl[i] = e.(charlotte.EndRef)
	}
	om := &outMsg{wire: m, encl: encl}
	es.outbound[m.Kind.Slot()] = om
	// An enclosed end must have no outstanding kernel activities: the
	// run-time package "never tries to send on a moving end"; it also
	// withdraws its posted receives before the move (SetInterest will
	// repost if the move fails).
	for _, ref := range encl {
		ees := tr.ensureEnd(ref)
		if ees.recvPosted && !ees.recvBusy {
			if st := tr.kp.Cancel(tr.proc, ref, charlotte.RecvDir); st == charlotte.OK {
				ees.recvPosted = false
			} else {
				tr.c.failedCancels.Inc()
			}
		}
		if ees.sendBusy || ees.recvPosted || len(ees.sendQ) > 0 {
			// A message is arriving on (or leaving) the end being moved:
			// the move cannot proceed right now. Surface a retryable
			// failure instead of wedging the kernel.
			es.outbound[m.Kind.Slot()] = nil
			return core.ErrEndMoving
		}
	}
	if m.Kind == core.KindRequest && es.peerForbade {
		// Requests are forbidden: stash until ALLOW.
		es.stashed = append(es.stashed, om)
		return nil
	}
	tr.shipFirstPacket(tr.proc, es, om)
	return nil
}

// shipFirstPacket queues the first kernel packet of a LYNX message.
// The packet is encoded only when its kernel send starts, so a message
// over the size, op-length or enclosure-count limits fails here, at
// once, with EvSendFailed.
func (tr *Transport) shipFirstPacket(p *sim.Proc, es *endState, om *outMsg) {
	err := om.wire.Check()
	if n := 1 + om.wire.EncodedLen(); err == nil && n > core.MaxMessage {
		err = fmt.Errorf("chbind: message %dB exceeds buffer capacity %dB", n, core.MaxMessage)
	}
	if err != nil {
		es.outbound[om.wire.Kind.Slot()] = nil
		tr.sink(core.Event{Kind: core.EvSendFailed, End: es.te, Msg: om.wire, Err: err})
		return
	}
	var enc charlotte.EndRef
	if len(om.encl) > 0 {
		enc = om.encl[0]
	}
	tr.enqueueKernel(p, es, kmsg{c: ctrlData, om: om, enclosure: enc})
}

// onSent runs when the kernel reports the send of a kernel message of
// type c carrying om complete (ok: the far side received it), or when
// the kernel refused to start it on a live link (st, never Destroyed:
// link death goes to endDied). Control messages need no follow-up.
func (tr *Transport) onSent(p *sim.Proc, es *endState, c ctrl, om *outMsg, st charlotte.Status) {
	if om == nil || om.cancelled {
		return
	}
	if c == ctrlEnc {
		if st == charlotte.OK {
			tr.shipNextEnc(p, es, om)
		}
		return
	}
	if st != charlotte.OK {
		// The kernel refused the send; tell the run-time package so the
		// sending coroutine unblocks (unless this was a resend after a
		// bounce, which the run-time package has seen delivered).
		if es.outbound[om.wire.Kind.Slot()] == om {
			es.outbound[om.wire.Kind.Slot()] = nil
			tr.sink(core.Event{Kind: core.EvSendFailed, End: es.te, Msg: om.wire, Err: fmt.Errorf("chbind: send: %v", st)})
		}
		return
	}
	om.firstSent = true
	switch {
	case len(om.encl) > 1 && om.wire.Kind == core.KindRequest:
		// Wait for GOAHEAD before shipping more enclosures (the
		// receiver must prove it wants the request).
		om.awaitGoahead = true
		tr.adjustReceive(p, es)
	case len(om.encl) > 1:
		// Replies are always wanted: no goahead needed (figure 2).
		om.nextEnc = 1
		tr.shipNextEnc(p, es, om)
	default:
		tr.deliverComplete(p, es, om)
	}
}

// shipNextEnc sends the next ENC packet, or completes the message.
func (tr *Transport) shipNextEnc(p *sim.Proc, es *endState, om *outMsg) {
	if om.nextEnc >= len(om.encl) {
		tr.deliverComplete(p, es, om)
		return
	}
	idx := om.nextEnc
	om.nextEnc++
	tr.c.encPackets.Inc()
	if tr.rec.Active() { // gate here: String() allocates even when emit drops the event
		tr.emit(obs.KindEnc, es, om.wire.Seq, om.encl[idx].String())
	}
	tr.enqueueKernel(p, es, kmsg{c: ctrlEnc, om: om, enclosure: om.encl[idx]})
}

// deliverComplete reports the whole LYNX message received. For requests
// the kernel-level completion is only a provisional acknowledgment: the
// receiver may still bounce the message with RETRY/FORBID, so the record
// stays bounceable until a reply with its seq arrives. EvDelivered fires
// only once; resends after a bounce are invisible to the run-time
// package (its reply matching is by seq, so transparency is safe).
func (tr *Transport) deliverComplete(p *sim.Proc, es *endState, om *outMsg) {
	if om.wire.Kind == core.KindRequest && !om.cancelled {
		es.setBounceable(om)
	}
	if es.outbound[om.wire.Kind.Slot()] != om {
		return // a resend after a bounce: reported the first time
	}
	es.outbound[om.wire.Kind.Slot()] = nil
	tr.sink(core.Event{Kind: core.EvDelivered, End: es.te, Msg: om.wire})
	tr.adjustReceive(p, es)
}

// setBounceable records the delivered request om as bounceable,
// replacing any record with its seq.
func (es *endState) setBounceable(om *outMsg) {
	for i, b := range es.bounceable {
		if b.wire.Seq == om.wire.Seq {
			es.bounceable[i] = om
			return
		}
	}
	es.bounceable = append(es.bounceable, om)
}

// takeBounceable removes and returns the bounceable request with the
// given seq, or nil.
func (es *endState) takeBounceable(seq uint64) *outMsg {
	for i, om := range es.bounceable {
		if om.wire.Seq == seq {
			n := i + copy(es.bounceable[i:], es.bounceable[i+1:])
			es.bounceable[n] = nil
			es.bounceable = es.bounceable[:n]
			return om
		}
	}
	return nil
}

// enqueueKernel queues a kernel message for the end's single send slot.
func (tr *Transport) enqueueKernel(p *sim.Proc, es *endState, km kmsg) {
	es.sendQ = append(es.sendQ, km)
	tr.pumpSend(p, es)
}

// sendCtrl queues a control message at the front of the send queue.
func (tr *Transport) sendCtrl(p *sim.Proc, es *endState, km kmsg) {
	// Control messages preempt queued data packets but keep their own
	// order: an ALLOW must not overtake the FORBID it lifts.
	i := slices.IndexFunc(es.sendQ, func(q kmsg) bool { return q.c == ctrlData || q.c == ctrlEnc })
	if i < 0 {
		i = len(es.sendQ)
	}
	es.sendQ = slices.Insert(es.sendQ, i, km)
	tr.pumpSend(p, es)
}

// dropQueued removes sendQ[i], clearing the vacated tail slot.
func (es *endState) dropQueued(i int) {
	n := i + copy(es.sendQ[i:], es.sendQ[i+1:])
	es.sendQ[n] = kmsg{}
	es.sendQ = es.sendQ[:n]
}

// pumpSend starts the next kernel send if the slot is free, encoding it
// into the end's buffer. State is updated before the (parking) kernel
// call so interleaved contexts see a busy slot.
func (tr *Transport) pumpSend(p *sim.Proc, es *endState) {
	if es.sendBusy || es.dead || len(es.sendQ) == 0 {
		return
	}
	km := es.sendQ[0]
	es.dropQueued(0)
	es.sendBusy = true
	es.curCtrl, es.curMsg = km.c, km.om
	buf := append(es.buf[:0], byte(km.c))
	switch km.c {
	case ctrlData:
		// shipFirstPacket checked the message, so encoding cannot fail.
		buf, _ = km.om.wire.AppendEncoded(buf)
	case ctrlEnc:
		buf = append(buf, byte(km.om.wire.Kind))
	case ctrlRetry, ctrlForbid:
		buf = binary.LittleEndian.AppendUint64(buf, km.seq)
	}
	es.buf = buf
	st := tr.kp.Send(p, es.ref, buf, km.enclosure)
	if st != charlotte.OK {
		es.sendBusy = false
		es.curMsg = nil
		if st == charlotte.Destroyed {
			tr.endDied(es)
		} else {
			tr.onSent(p, es, km.c, km.om, st)
		}
		return
	}
	tr.c.kernelSends.Inc()
}

// handleCompletion is the pump's dispatcher for kernel Wait results.
func (tr *Transport) handleCompletion(p *sim.Proc, d charlotte.Description) {
	es, ok := tr.ends[d.End]
	if !ok {
		return
	}
	if d.Dir == charlotte.SendDir {
		es.sendBusy = false
		c, om := es.curCtrl, es.curMsg
		es.curMsg = nil
		if d.Status == charlotte.Destroyed {
			tr.endDied(es)
			return
		}
		tr.onSent(p, es, c, om, d.Status)
		tr.pumpSend(p, es)
		return
	}
	// Receive completion.
	es.recvPosted = false
	if d.Status == charlotte.Destroyed {
		tr.endDied(es)
		return
	}
	if d.Status == charlotte.OK || d.Status == charlotte.Truncated {
		tr.handleInbound(p, es, d)
	}
	tr.adjustReceive(p, es)
}

// endDied propagates link death into the run-time package.
func (tr *Transport) endDied(es *endState) {
	if es.dead {
		return
	}
	es.dead = true
	// EvLinkDead alone settles the sends still outstanding.
	es.outbound = [2]*outMsg{}
	es.stashed = nil
	es.bounceable = nil
	es.sendQ = nil
	es.curMsg = nil
	es.buf = nil
	tr.sink(core.Event{Kind: core.EvLinkDead, End: es.te})
}

// handleInbound runs the receive-side protocol.
func (tr *Transport) handleInbound(p *sim.Proc, es *endState, d charlotte.Description) {
	if len(d.Data) == 0 {
		return
	}
	c := ctrl(d.Data[0])
	body := d.Data[1:]
	switch c {
	case ctrlData:
		tr.handleDataPacket(p, es, d, body)
	case ctrlEnc:
		tr.handleEncPacket(es, d)
	case ctrlGoahead:
		for _, om := range es.outbound {
			if om != nil && om.awaitGoahead {
				om.awaitGoahead = false
				om.nextEnc = 1
				tr.shipNextEnc(p, es, om)
				break
			}
		}
	case ctrlRetry:
		// Our request came back; the peer has no receive posted now, so
		// resending will be delayed by the kernel until it re-opens.
		tr.recoverReturnedEnclosure(d)
		tr.requeueBouncedRequest(es, parseSeq(body))
		tr.resendStashed(p, es)
	case ctrlForbid:
		es.peerForbade = true
		tr.recoverReturnedEnclosure(d)
		tr.requeueBouncedRequest(es, parseSeq(body))
	case ctrlAllow:
		es.peerForbade = false
		tr.resendStashed(p, es)
	}
}

// requeueBouncedRequest pulls the bounced request (identified by seq in
// the RETRY/FORBID payload) back into the stash for resending.
func (tr *Transport) requeueBouncedRequest(es *endState, seq uint64) {
	om := es.takeBounceable(seq)
	if om == nil {
		// Maybe still protocol-in-flight (multi-enclosure awaiting
		// goahead that turned into a bounce instead).
		if o := es.outbound[core.KindRequest.Slot()]; o != nil && o.wire.Seq == seq {
			om = o
			om.awaitGoahead = false
		}
	}
	if om == nil || om.cancelled || slices.Contains(es.stashed, om) {
		return
	}
	om.firstSent = false
	es.stashed = append(es.stashed, om)
}

// parseSeq decodes a bounce payload.
func parseSeq(b []byte) uint64 {
	var v uint64
	for i := 0; i < len(b) && i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// handleDataPacket processes the first packet of a LYNX message.
func (tr *Transport) handleDataPacket(p *sim.Proc, es *endState, d charlotte.Description, body []byte) {
	wire, nencl, err := core.DecodeWire(body)
	if err != nil {
		return
	}
	if wire.Kind == core.KindReply {
		// The reply is the request's true top-level acknowledgment: the
		// request with this seq can no longer bounce.
		es.takeBounceable(wire.Seq)
	}
	wanted := (wire.Kind == core.KindRequest && es.wantReq) ||
		(wire.Kind == core.KindReply && es.wantRep)
	if !wanted {
		tr.c.unwanted.Inc()
		tr.emit(obs.KindUnwanted, es, wire.Seq, wire.Kind.String())
		if wire.Kind == core.KindReply {
			// Replies can always be discarded if unwanted (§3.2.1); no
			// acknowledgment exists to tell the sender.
			tr.c.droppedReplies.Inc()
			return
		}
		// Unwanted request: bounce it. If we are awaiting a reply we
		// must keep our receive posted, so a bare RETRY would invite
		// endless retransmission — send FORBID instead.
		if es.wantRep {
			tr.c.forbids.Inc()
			tr.emit(obs.KindForbid, es, wire.Seq, "")
			es.weForbade = true
			tr.sendCtrl(p, es, kmsg{c: ctrlForbid, seq: wire.Seq, enclosure: d.Enclosure})
		} else {
			tr.c.retries.Inc()
			tr.emit(obs.KindRetry, es, wire.Seq, "")
			tr.sendCtrl(p, es, kmsg{c: ctrlRetry, seq: wire.Seq, enclosure: d.Enclosure})
		}
		return
	}
	var got []charlotte.EndRef
	if !d.Enclosure.Nil() {
		got = append(got, d.Enclosure)
	}
	if nencl > len(got) {
		// Multi-enclosure: assemble, and for requests tell the sender to
		// go ahead with the remaining ends.
		es.partial = &inAssembly{wire: wire, needEncl: nencl, gotEncl: got}
		if wire.Kind == core.KindRequest {
			tr.c.goaheads.Inc()
			tr.emit(obs.KindGoahead, es, wire.Seq, "")
			tr.sendCtrl(p, es, kmsg{c: ctrlGoahead})
		}
		return
	}
	tr.finishInbound(es, wire, got)
}

// handleEncPacket attaches one more enclosure to the partial message.
func (tr *Transport) handleEncPacket(es *endState, d charlotte.Description) {
	pa := es.partial
	if pa == nil || d.Enclosure.Nil() {
		return
	}
	pa.gotEncl = append(pa.gotEncl, d.Enclosure)
	if len(pa.gotEncl) >= pa.needEncl {
		es.partial = nil
		tr.finishInbound(es, pa.wire, pa.gotEncl)
	}
}

// finishInbound surfaces a complete wanted message to the run-time
// package.
func (tr *Transport) finishInbound(es *endState, wire *core.WireMsg, encl []charlotte.EndRef) {
	wire.Encl = make([]core.TransEnd, len(encl))
	for i, ref := range encl {
		wire.Encl[i] = tr.ensureEnd(ref).te
	}
	tr.sink(core.Event{Kind: core.EvIncoming, End: es.te, Msg: wire})
}

// recoverReturnedEnclosure re-adopts an end the peer sent back in a
// RETRY/FORBID bounce.
func (tr *Transport) recoverReturnedEnclosure(d charlotte.Description) {
	if !d.Enclosure.Nil() {
		tr.ensureEnd(d.Enclosure)
	}
}

// resendStashed re-ships bounced requests.
func (tr *Transport) resendStashed(p *sim.Proc, es *endState) {
	if es.peerForbade {
		return
	}
	stash := es.stashed
	es.stashed = nil
	for _, om := range stash {
		// delivered does NOT disqualify: a bounced request has already
		// had its (provisional) EvDelivered and must still be resent.
		if om.cancelled {
			continue
		}
		tr.c.resentRequests.Inc()
		tr.shipFirstPacket(p, es, om)
	}
}

// CancelSend implements core.Transport. A message recalled from the
// stash, the send queue or the kernel's send slot never reaches the
// peer. Once the peer's kernel has taken its first packet it is too
// late: the message completes, and its fate arrives as an event.
func (tr *Transport) CancelSend(te core.TransEnd, m *core.WireMsg) bool {
	es := tr.ensureEnd(te.(charlotte.EndRef))
	om := es.outbound[m.Kind.Slot()]
	if om == nil || om.wire != m {
		return false
	}
	if i := slices.Index(es.stashed, om); i >= 0 {
		// Bounced or forbidden: the peer holds no copy.
		es.stashed = slices.Delete(es.stashed, i, i+1)
	} else if om.firstSent {
		tr.c.failedCancels.Inc()
		return false
	} else if es.sendBusy && es.curMsg == om {
		// Still occupying our kernel send slot: try to recall it.
		if tr.kp.Cancel(tr.proc, es.ref, charlotte.SendDir) != charlotte.OK {
			tr.c.failedCancels.Inc()
			return false
		}
		es.sendBusy = false
		es.curMsg = nil
		tr.pumpSend(tr.proc, es)
	} else if i := slices.IndexFunc(es.sendQ, func(km kmsg) bool { return km.om == om }); i >= 0 {
		es.dropQueued(i)
	}
	om.cancelled = true
	es.outbound[m.Kind.Slot()] = nil
	return true
}

// Shutdown implements core.Transport: kernel-level process termination
// destroys all links; the pump is stopped.
func (tr *Transport) Shutdown() {
	if tr.dead {
		return
	}
	tr.dead = true
	tr.kp.Terminate()
	if tr.pump != nil {
		tr.pump.Kill()
	}
}
