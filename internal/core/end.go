package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// End is the language-level handle for one end of a LYNX link, owned by
// exactly one process at a time. Each end has one queue of incoming
// requests and one of incoming replies (§2.1); outbound traffic is
// stop-and-wait per message kind, implemented as lists of blocked
// sending coroutines — "request and reply queues can be implemented by
// lists of blocked coroutines in the run-time package for each sending
// process". All of an end's pending work sits in ordered lists on the
// end, so link death (killEnd) settles it in one seed-stable pass.
type End struct {
	pr *Process
	te TransEnd

	dead bool
	// moving is set while the end is enclosed in an in-flight message.
	moving bool
	// killed is set when the end's link died under it and the process
	// dropped it from its end table (dropKilled): the program still owns
	// the dead end, so enclosing it reports ErrLinkDestroyed.
	killed bool

	// Outbound stop-and-wait queues, by MsgKind.Slot: only the head
	// record of each can be in flight at the transport; the rest wait
	// their turn.
	out [2][]*sendRecord
	// awaiting holds delivered requests whose connectors wait for the
	// reply, in seq order.
	awaiting []*sendRecord

	// owedReplies counts requests received on this end and not yet
	// replied to — the move rule's second clause.
	owedReplies int

	// Receiving state.
	explicitOpen bool    // user opened the request queue without a pending Receive
	handler      Handler // Serve handler (spawns a thread per request)
	recvWaiters  []*Thread
	inReq        []*WireMsg // wanted requests not yet claimed by a thread
	inReqAt      []sim.Time // arrival time of each queued request (queue_wait_ns)

	// lastInterest caches what we last told the transport, to avoid
	// redundant kernel traffic.
	lastWantReq, lastWantRep bool
	interestInit             bool
}

// Handler serves incoming requests; see Process.Serve.
type Handler func(t *Thread, req *Request)

// sendRecord tracks one outbound message through the stop-and-wait
// pipeline. It holds the message itself: &msg is what the transport is
// handed, and that pointer is the send's identity in every event and
// CancelSend.
type sendRecord struct {
	end      *End
	msg      WireMsg
	t        *Thread // blocked sender; nil after an abort detached it
	inFlight bool
	encl     []*End // language-level ends enclosed in msg
	// early holds a reply that overtook this request's delivery
	// confirmation: the connector is still in its send block, so
	// finishSend hands the reply over the moment the record settles. A
	// transport whose receipt confirmation travels separately from the
	// reply (SODA's completion frame can be dropped and retried while
	// the reply proceeds) makes this ordering routine.
	early *Msg
}

func (e *End) String() string {
	return fmt.Sprintf("%s/%v", e.pr.name, e.te)
}

// takeQueued pops the head of e's request queue, recording how long the
// message sat waiting for a thread to claim it (queue_wait_ns).
func (e *End) takeQueued() *Request {
	m := e.inReq[0]
	e.inReq = e.inReq[0:copy(e.inReq, e.inReq[1:])]
	if len(e.inReqAt) > 0 {
		at := e.inReqAt[0]
		e.inReqAt = e.inReqAt[0:copy(e.inReqAt, e.inReqAt[1:])]
		pr := e.pr
		wait := sim.Duration(pr.env.Now() - at)
		pr.queueHist.Observe(wait)
		if pr.rec.Active() {
			pr.rec.EmitEnv(pr.env, obs.Event{Kind: obs.KindQueueService, Src: pr.name, Seq: m.Seq, Wait: wait, Detail: m.Op})
		}
	}
	return &Request{end: e, op: m.Op, seq: m.Seq, data: m.Data, links: e.pr.adoptAll(m.Encl)}
}

// Dead reports whether the link has been destroyed.
func (e *End) Dead() bool { return e.dead }

// Transport returns the transport handle (tests and bindings).
func (e *End) Transport() TransEnd { return e.te }

// wantRequests reports whether incoming requests are currently wanted:
// the request queue is open if a handler is registered, a thread is
// blocked in Receive, or the program opened it explicitly.
func (e *End) wantRequests() bool {
	return !e.dead && (e.handler != nil || len(e.recvWaiters) > 0 || e.explicitOpen)
}

// wantReplies reports whether the reply queue is open: "reply queues are
// opened when a request has been SENT and a reply is expected" (§2.1) —
// so an outbound request still in the send pipeline already opens it,
// not just a registered reply waiter.
func (e *End) wantReplies() bool {
	if e.dead {
		return false
	}
	if len(e.awaiting) > 0 {
		return true
	}
	for _, rec := range e.out[KindRequest.Slot()] {
		if rec.t != nil {
			return true
		}
	}
	return false
}

// request returns the request with the given seq whose connector still
// wants the reply, even while the request is settling.
func (e *End) request(seq uint64) *sendRecord {
	for _, rec := range e.awaiting {
		if rec.msg.Seq == seq {
			return rec
		}
	}
	for _, rec := range e.out[KindRequest.Slot()] {
		if rec.msg.Seq == seq && rec.t != nil {
			return rec
		}
	}
	return nil
}

// syncInterest pushes the current queue-open state to the transport if
// it changed.
func (e *End) syncInterest() {
	wq, wr := e.wantRequests(), e.wantReplies()
	if e.interestInit && wq == e.lastWantReq && wr == e.lastWantRep {
		return
	}
	e.interestInit = true
	e.lastWantReq, e.lastWantRep = wq, wr
	e.pr.tr.SetInterest(e.te, wq, wr)
}

// movable checks the §2.1 rule for enclosing this end in a message.
func (e *End) movable() error {
	switch {
	case e.dead:
		return ErrLinkDestroyed
	case e.moving:
		return ErrEndMoving
	case e.inFlight(KindRequest) != nil || e.inFlight(KindReply) != nil:
		return ErrMoveUnreceived
	case e.owedReplies > 0:
		return ErrMoveOwedReply
	}
	return nil
}

// inFlight returns the send of kind k the far run-time package may not
// yet have received, or nil.
func (e *End) inFlight(k MsgKind) *sendRecord {
	if q := e.out[k.Slot()]; len(q) > 0 && q[0].inFlight {
		return q[0]
	}
	return nil
}

// remove deletes the first x from *s and reports whether it was there.
func remove[T comparable](s *[]T, x T) bool {
	for i, y := range *s {
		if y == x {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return true
		}
	}
	return false
}

// Request is an incoming remote-operation request, handed to a Receive
// caller or a Serve handler. The receiver must call Reply (or
// RejectReply) exactly once; until then the process owes a reply on the
// end and may not move it.
type Request struct {
	end     *End
	op      string
	seq     uint64
	data    []byte
	links   []*End
	replied bool
}

// Op returns the remote operation name.
func (r *Request) Op() string { return r.op }

// Data returns the request's parameter bytes.
func (r *Request) Data() []byte { return r.data }

// Links returns the link ends that moved to this process with the
// request.
func (r *Request) Links() []*End { return r.links }

// End returns the link end the request arrived on.
func (r *Request) End() *End { return r.end }
