// Package core implements the LYNX language run-time package: coroutine
// threads executing in mutual exclusion within a process, duplex links
// carrying RPC-style request/reply traffic, link-by-link message queues
// with explicit open/close control, link movement by enclosure, and the
// exception model — everything §2 of the paper requires, independent of
// the underlying kernel.
//
// The kernel-specific half of each implementation lives in a Transport
// (internal/bind/...). The Transport seam is the exact interface the
// paper studies: which functions sit above it (in this package) and
// which below (in the kernel) determines the size, complexity and speed
// of each implementation.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgKind distinguishes the two LYNX message classes. Each link end has
// one incoming queue per kind.
type MsgKind uint8

// Message kinds.
const (
	KindRequest MsgKind = 1
	KindReply   MsgKind = 2
)

// Slot indexes a per-kind pair by k: 0 for requests, 1 for replies.
// A binding keeps an end's one in-flight send of each kind in such a
// pair (see Transport.StartSend).
func (k MsgKind) Slot() int { return int(k - KindRequest) }

func (k MsgKind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindReply:
		return "reply"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// WireMsg is a LYNX message as handed to a Transport: operation name,
// correlation sequence, payload, and the transport handles of enclosed
// link ends. The self-descriptive header fields play the role of the
// "48 bits of descriptive information" §4.2.1 says every implementation
// must carry.
type WireMsg struct {
	Kind MsgKind
	// Op is the remote operation name (confirmed on reply, as the paper
	// notes the run-time package checks operation names and types).
	Op string
	// Seq correlates a reply with its request.
	Seq uint64
	// Data is the marshalled parameter block.
	Data []byte
	// Encl are the transport handles of enclosed link ends, in order.
	Encl []TransEnd
}

// MaxMessage is the largest LYNX message, in bytes, on every
// substrate: the run-time package posts maximum-size buffers, and each
// binding refuses a message that does not fit.
const MaxMessage = 4096

// maxOpLen bounds operation names on the wire.
const maxOpLen = 255

// headerLen is the fixed part of the encoding: kind(1) + nencl(1) +
// seq(8) + oplen(1) + datalen(4).
const headerLen = 15

// EncodedLen reports the wire size of the message's header+data (the
// bytes a kernel must carry; enclosures travel by each transport's own
// means).
func (m *WireMsg) EncodedLen() int {
	return headerLen + len(m.Op) + len(m.Data)
}

// Check reports the error AppendEncoded would return for m, without
// encoding it, so a transport that encodes later can refuse the
// message up front.
func (m *WireMsg) Check() error {
	if len(m.Op) > maxOpLen {
		return fmt.Errorf("core: op name %q too long (%d > %d)", m.Op, len(m.Op), maxOpLen)
	}
	if len(m.Encl) > 255 {
		return fmt.Errorf("core: too many enclosures (%d)", len(m.Encl))
	}
	return nil
}

// AppendEncoded appends the message's EncodedLen bytes of header and
// payload to dst, so a transport can put its own header in front
// without a second copy. Enclosure handles are NOT encoded — each
// transport moves them its own way — but their count is, so the
// receiver can verify none were lost.
func (m *WireMsg) AppendEncoded(dst []byte) ([]byte, error) {
	if err := m.Check(); err != nil {
		return nil, err
	}
	dst = append(dst, byte(m.Kind), byte(len(m.Encl)))
	dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
	dst = append(dst, byte(len(m.Op)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Data)))
	dst = append(dst, m.Op...)
	return append(dst, m.Data...), nil
}

// errShortMsg reports a malformed encoding.
var errShortMsg = errors.New("core: short or corrupt wire message")

// DecodeWire unmarshals an encoded message. The returned message has a
// nil Encl slice with the encoded count available via the second result;
// the caller attaches the transport-delivered enclosure handles and must
// check the count matches.
//
// Data aliases buf's tail rather than copying: decoding transfers
// ownership of buf to the message, and the caller must not reuse it.
func DecodeWire(buf []byte) (*WireMsg, int, error) {
	if len(buf) < headerLen {
		return nil, 0, errShortMsg
	}
	kind := MsgKind(buf[0])
	if kind != KindRequest && kind != KindReply {
		return nil, 0, fmt.Errorf("core: bad message kind %d", buf[0])
	}
	nencl := int(buf[1])
	seq := binary.LittleEndian.Uint64(buf[2:10])
	opLen := int(buf[10])
	dataLen := int(binary.LittleEndian.Uint32(buf[11:15]))
	if len(buf) != headerLen+opLen+dataLen {
		return nil, 0, errShortMsg
	}
	op := string(buf[headerLen : headerLen+opLen])
	return &WireMsg{Kind: kind, Op: op, Seq: seq, Data: buf[headerLen+opLen:]}, nencl, nil
}
