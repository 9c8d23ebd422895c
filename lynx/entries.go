package lynx

import "fmt"

// Entries maps operation names to handlers — the LYNX "entry procedure"
// model, where a process declares the remote operations it implements
// and the run-time package dispatches by name. A request whose operation
// has no entry is answered with an error reply carrying the
// "no such operation" marker, which surfaces at the caller as
// ErrNoSuchOperation.
type Entries map[string]func(t *Thread, req *Request) (Msg, error)

// ErrNoSuchOperation is returned by Call/Connect when the server has no
// entry for the requested operation.
var ErrNoSuchOperation = fmt.Errorf("lynx: no such operation")

// errPrefix marks error replies produced by entry dispatch.
const errPrefix = "\x00lynx-error:"

// ServeEntries registers entry-based dispatch on a link end: each
// incoming request runs its entry in a fresh thread and the returned Msg
// becomes the reply. Handler errors (and unknown operations) travel back
// as error replies. (Thread is an alias of the core type, so these are
// free functions rather than methods.)
func ServeEntries(t *Thread, e *End, entries Entries) error {
	return t.Serve(e, func(st *Thread, req *Request) {
		h, ok := entries[req.Op()]
		if !ok {
			st.Reply(req, Msg{Data: []byte(errPrefix + "no such operation: " + req.Op())})
			return
		}
		reply, err := h(st, req)
		if err != nil {
			st.Reply(req, Msg{Data: []byte(errPrefix + err.Error())})
			return
		}
		st.Reply(req, reply)
	})
}

// Call performs a remote operation against an entry-serving peer,
// translating error replies back into Go errors.
func Call(t *Thread, e *End, op string, msg Msg) (*Msg, error) {
	reply, err := t.Connect(e, op, msg)
	if err != nil {
		return nil, err
	}
	if len(reply.Data) >= len(errPrefix) && string(reply.Data[:len(errPrefix)]) == errPrefix {
		text := string(reply.Data[len(errPrefix):])
		if len(text) >= 18 && text[:18] == "no such operation:" {
			return nil, fmt.Errorf("%w:%s", ErrNoSuchOperation, text[18:])
		}
		return nil, fmt.Errorf("lynx: remote error: %s", text)
	}
	return reply, nil
}
