package core

import "errors"

// The LYNX exception set: conditions the language definition says a
// process must be able to feel as run-time exceptions.
var (
	// ErrLinkDestroyed: the link was destroyed or its far process died.
	ErrLinkDestroyed = errors.New("lynx: link destroyed")
	// ErrNotOwner: the process does not own the named link end.
	ErrNotOwner = errors.New("lynx: not owner of link end")
	// ErrEndMoving: the end is enclosed in an in-flight message.
	ErrEndMoving = errors.New("lynx: link end is being moved")
	// ErrMoveUnreceived: moving a link on which the process has sent
	// unreceived messages is forbidden (§2.1).
	ErrMoveUnreceived = errors.New("lynx: cannot move link with unreceived sent messages")
	// ErrMoveOwedReply: moving a link on which the process owes a reply
	// for an already-received request is forbidden (§2.1).
	ErrMoveOwedReply = errors.New("lynx: cannot move link with reply owed")
	// ErrAborted: the coroutine was aborted by a local exception while
	// blocked.
	ErrAborted = errors.New("lynx: coroutine aborted")
	// ErrUnwantedReply: the reply's target coroutine no longer exists.
	// SODA, Chrysalis and the ideal kernel raise it at the replying
	// server; the paper's Charlotte implementation cannot.
	ErrUnwantedReply = errors.New("lynx: reply no longer wanted")
	// ErrBadReply: a reply arrived whose operation name does not match
	// the outstanding request (type confirmation failure).
	ErrBadReply = errors.New("lynx: reply does not match request")
	// ErrProcessDown: operation on a process that has terminated.
	ErrProcessDown = errors.New("lynx: process terminated")
)
