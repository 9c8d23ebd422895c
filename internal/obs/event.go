// Package obs is the observability subsystem: a typed protocol-event
// model plus a metrics registry, shared by all three kernels, all four
// bindings, and the LYNX run-time package. The paper's headline claims
// are counting claims (§6 counts kernel messages, unwanted receives,
// NAK traffic, and hint hit rates); obs makes structured events and
// named counters the single source of truth for those numbers instead
// of ad-hoc fields scattered through the kernels and bindings.
//
// Everything is deterministic: events are emitted synchronously from
// the discrete-event simulation, so the same seed produces a
// byte-identical JSONL stream.
package obs

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a protocol event. The enum spans all three substrates
// plus the kernel-independent run-time package; exporters render it via
// String.
type Kind uint8

const (
	KindUnknown Kind = iota

	// Kernel-level message traffic (any substrate).
	KindKernelSend    // a message handed to the kernel for transmission
	KindKernelReceive // a receive posted to the kernel
	KindKernelCancel  // an outstanding send/receive cancelled
	KindKernelDeliver // the kernel matched and delivered a message

	// Link lifecycle.
	KindLinkMake    // link created
	KindLinkMove    // a link end changed owning process (enclosure / adoption)
	KindLinkDestroy // link destroyed

	// Charlotte binding protocol phases (§3.3).
	KindRetry    // NAK: receiver busy, sender must retry
	KindForbid   // NAK: stop retrying until allowed
	KindAllow    // retraction of an earlier forbid
	KindGoahead  // long-message clearance
	KindEnc      // enclosure packet (one moved end per packet)
	KindUnwanted // a message arrived that no queue wanted

	// SODA kernel verbs (§4.1).
	KindPut      // request carrying data to the receiver
	KindGet      // request asking for data back
	KindSignal   // no-data request
	KindExchange // data both ways
	KindAccept   // receiver accepted a request
	KindDiscover // broadcast name search
	KindFreeze   // absolute-search freeze request
	KindUnfreeze // thaw after an absolute search

	// Chrysalis primitives (§5.1).
	KindFlagSet   // 16-bit atomic flag operation
	KindNotice    // dual-queue notice (binding-level hint)
	KindQueueFlip // dual queue flipped to event-name mode
	KindTornRead  // a non-atomic 32-bit read observed a torn value

	// Run-time package queue/block points.
	KindQueueWait    // a process blocked waiting for transport events
	KindQueueService // a queued request was claimed by a thread

	// Mark is a free-text annotation: narration when Src names its
	// source, else a kernel's note on the event's Proc or Link.
	KindMark
)

var kindNames = [...]string{
	KindUnknown:       "unknown",
	KindKernelSend:    "kernel.send",
	KindKernelReceive: "kernel.receive",
	KindKernelCancel:  "kernel.cancel",
	KindKernelDeliver: "kernel.deliver",
	KindLinkMake:      "link.make",
	KindLinkMove:      "link.move",
	KindLinkDestroy:   "link.destroy",
	KindRetry:         "ch.retry",
	KindForbid:        "ch.forbid",
	KindAllow:         "ch.allow",
	KindGoahead:       "ch.goahead",
	KindEnc:           "ch.enc",
	KindUnwanted:      "unwanted",
	KindPut:           "soda.put",
	KindGet:           "soda.get",
	KindSignal:        "soda.signal",
	KindExchange:      "soda.exchange",
	KindAccept:        "soda.accept",
	KindDiscover:      "soda.discover",
	KindFreeze:        "soda.freeze",
	KindUnfreeze:      "soda.unfreeze",
	KindFlagSet:       "chr.flag",
	KindNotice:        "chr.notice",
	KindQueueFlip:     "chr.qflip",
	KindTornRead:      "chr.torn",
	KindQueueWait:     "queue.wait",
	KindQueueService:  "queue.service",
	KindMark:          "mark",
}

// NumKinds is the number of defined kinds — sized for per-kind counter
// arrays (the flight recorder indexes one by Kind).
const NumKinds = len(kindNames)

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name so JSONL and Chrome streams
// are self-describing.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts a kind name (for round-tripping exported
// streams in tests and tools).
func (k *Kind) UnmarshalJSON(b []byte) error {
	name := strings.Trim(string(b), `"`)
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	*k = KindUnknown
	return nil
}

// Event is one typed protocol event. Fields beyond At/Kind are
// optional; the zero value of each means "not applicable". The struct
// marshals deterministically with encoding/json (fixed field order),
// which the determinism golden test relies on.
type Event struct {
	At        sim.Time     `json:"at"`
	Substrate string       `json:"sub,omitempty"`
	Kind      Kind         `json:"kind"`
	Src       string       `json:"src,omitempty"`  // annotation source (mark events)
	Proc      int          `json:"proc,omitempty"` // kernel process id
	Peer      int          `json:"peer,omitempty"` // remote kernel process id
	Link      int          `json:"link,omitempty"` // link / object id
	Seq       uint64       `json:"seq,omitempty"`  // message / request sequence
	Bytes     int          `json:"bytes,omitempty"`
	Wait      sim.Duration `json:"wait,omitempty"` // queue/block duration
	Detail    string       `json:"detail,omitempty"`
}

// text renders the event for the human exporter, one field per token so
// traces stay greppable.
func (ev Event) text() string {
	var b strings.Builder
	b.WriteString(ev.Kind.String())
	if ev.Proc != 0 {
		fmt.Fprintf(&b, " p%d", ev.Proc)
	}
	if ev.Peer != 0 {
		fmt.Fprintf(&b, "->p%d", ev.Peer)
	}
	if ev.Link != 0 {
		fmt.Fprintf(&b, " link=%d", ev.Link)
	}
	if ev.Seq != 0 {
		fmt.Fprintf(&b, " seq=%d", ev.Seq)
	}
	if ev.Bytes != 0 {
		fmt.Fprintf(&b, " n=%d", ev.Bytes)
	}
	if ev.Wait != 0 {
		fmt.Fprintf(&b, " wait=%v", ev.Wait)
	}
	if ev.Detail != "" {
		b.WriteString(" ")
		b.WriteString(ev.Detail)
	}
	return b.String()
}
