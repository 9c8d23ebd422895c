package core

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// TransEnd is a transport's opaque handle for one end of a link. Handles
// must be comparable (they key the run-time package's end table): Charlotte
// uses kernel link-end capabilities, SODA a pair of advertised names,
// Chrysalis a memory-object name.
type TransEnd any

// EventKind classifies transport events delivered to the run-time
// package at block points.
type EventKind int

// Transport event kinds.
const (
	// EvIncoming: a wanted message has arrived on End. Msg is complete
	// (all enclosures present, already re-homed to this process's
	// transport).
	EvIncoming EventKind = iota
	// EvDelivered: the send Msg has been received by the far end's
	// run-time package. Unblocks the sending coroutine per §2.1's
	// stop-and-wait discipline.
	EvDelivered
	// EvSendFailed: the send Msg, on a live link, will never be
	// received: the kernel refused it, it was oversize, or — on
	// transports that can detect it — the reply was no longer wanted.
	// Err says why. A send on a dead end gets no EvSendFailed: its
	// EvLinkDead settles it.
	EvSendFailed
	// EvLinkDead: the link was destroyed by the far end or its owner
	// crashed. All operations on End must raise exceptions. This one
	// event settles all of the end's pending work: the run-time package
	// fails its sends and wakes its waiters itself.
	EvLinkDead
	// EvTick is an internal wakeup used by the run-time package itself
	// (thread sleeps). Bindings never emit it.
	EvTick
)

func (k EventKind) String() string {
	switch k {
	case EvIncoming:
		return "incoming"
	case EvDelivered:
		return "delivered"
	case EvSendFailed:
		return "send-failed"
	case EvLinkDead:
		return "link-dead"
	case EvTick:
		return "tick"
	default:
		return "event?"
	}
}

// Event is one transport notification.
type Event struct {
	Kind EventKind
	End  TransEnd // every kind but EvTick
	Msg  *WireMsg // EvIncoming: the message; EvDelivered, EvSendFailed: the send
	Err  error    // EvSendFailed only
}

// Transport is the kernel-specific half of a LYNX implementation: one
// instance per LYNX process. All methods are called from the process's
// simproc context (they may charge virtual time and block), except where
// noted.
//
// The interface is deliberately the *union* of what the three kernels
// can support; each binding implements the contract with whatever
// protocol its kernel demands (and the differences are the paper's
// subject). In particular:
//
//   - screening: EvIncoming must only deliver *wanted* messages, where
//     wanted means requests while SetInterest(_, true, _) is in effect
//     and replies while SetInterest(_, _, true) is in effect. Kernels
//     that pre-receive unwanted messages (Charlotte) must bounce them
//     back internally (retry/forbid/allow) without surfacing them.
//   - enclosures: StartSend may need several kernel messages to move
//     multiple ends (Charlotte's packetization); EvIncoming surfaces the
//     reassembled whole.
//   - delivery: EvDelivered means the far run-time package has the
//     message, not merely the far kernel.
type Transport interface {
	// SetSink installs the event delivery callback and hands the binding
	// the process's simproc (for charging kernel-call CPU time when
	// invoked from process context). The run-time package calls it
	// exactly once, before any other method. Bindings invoke the sink
	// from simproc or scheduler-callback context; it never blocks.
	SetSink(sink func(Event), sp *sim.Proc)
	// MakeLink creates a link; both end handles are initially owned by
	// this process.
	MakeLink() (TransEnd, TransEnd, error)
	// Destroy destroys the link one of whose ends is te. The far end's
	// process learns via EvLinkDead; this process already knows.
	Destroy(te TransEnd) error
	// StartSend begins transmitting m on te. The pointer m, fresh and
	// unchanging for each send, is the send's identity: its fate names
	// it in Msg — EvDelivered or EvSendFailed while the link lives —
	// or is te's EvLinkDead once it dies. Enclosed ends in m.Encl leave
	// this process's ownership when delivery succeeds. At most one send
	// per (end, m.Kind.Slot()) is in flight; the run-time package
	// serializes the rest (stop-and-wait).
	StartSend(te TransEnd, m *WireMsg) error
	// CancelSend tries to abort the in-flight send m on te (a coroutine
	// aborted by an exception). It reports whether the message is
	// guaranteed unreceived: true means the far process never gets it,
	// and its enclosures stay here; false means it was (or may yet be)
	// received exactly once, enclosures and all — the paper's
	// problematic case — and its fate still arrives as an event.
	CancelSend(te TransEnd, m *WireMsg) bool
	// SetInterest declares which incoming message kinds are currently
	// wanted on te (the end's request queue open state, and whether any
	// coroutine awaits a reply).
	SetInterest(te TransEnd, wantRequests, wantReplies bool)
	// Shutdown destroys every link still attached (process termination).
	// It must not block or charge time: it runs from crash hooks.
	Shutdown()
	// Obs returns the recorder the binding reports into; the run-time
	// package accounts its own queue and block points in the same
	// registry as the kernel underneath.
	Obs() *obs.Recorder
}

// ScreenFunc is the run-time package's message-screening predicate: it
// reports whether a message of the given kind (and, for replies, seq)
// arriving on te is currently wanted. Lesson two of the paper: instead
// of describing wanted messages to the kernel, the application layer
// provides the screening function itself. Transports whose kernels
// support application-level screening (SODA's interrupt handler,
// Chrysalis's shared-memory flags) call it at screening time.
type ScreenFunc func(te TransEnd, kind MsgKind, seq uint64) bool

// Screened is implemented by transports that accept a screen function.
type Screened interface {
	SetScreen(ScreenFunc)
}
