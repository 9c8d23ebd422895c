// Package flight is the bounded recording layer of the observability
// subsystem: a zero-alloc fixed-size ring buffer that always holds the
// last RingSize protocol events, with seed-deterministic sampling,
// anomaly-triggered dumps, and incremental export for long runs.
//
// The full obs recorder pays for what it exports: at millions of
// events per second, marshalling every event is the hot path. A flight
// Recorder sits between the obs.Recorder and any export sink and
// bounds that cost by mode:
//
//	Full     — every event is forwarded downstream (today's behavior).
//	Sampled  — a seed-deterministic 1-in-K subset is forwarded. The
//	           decision hashes (seed, event ordinal), and events are
//	           delivered in the engine's (time, shard) merge order even
//	           under sim.EnterParallel, so a sampled trace is
//	           byte-identical at any worker count.
//	Counters — nothing is forwarded; only the ring and the event
//	           counts update.
//
// In every mode the ring holds the most recent events, so a dump —
// requested on demand or fired by an anomaly hook (shape-check
// failure, fault-plan panic, deadline breach) — shows the moments
// before the interesting thing happened regardless of how little was
// exported live.
//
// The hot path (Event) is single-threaded by construction: the
// obs.Recorder delivers events serially (under a parallel partition it
// replays them in the engine's (time, shard) merge order), so the ring, the
// counters, and the sampling state need no atomics and allocate
// nothing — events are copied into preallocated slots, no interface
// boxing, no per-event heap traffic.
package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// Mode selects how much of the event stream leaves the recorder. The
// zero value Off means "no flight recorder" — lynx.NewSystem only
// creates one for a non-Off mode, keeping the untraced path free.
type Mode uint8

// Recorder modes.
const (
	Off Mode = iota
	Full
	Sampled
	Counters
)

var modeNames = [...]string{
	Off:      "off",
	Full:     "full",
	Sampled:  "sampled",
	Counters: "counters",
}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config is the flight-recorder request that travels unchanged from a
// caller to the System that builds the recorder: load.Options.Trace
// and lynx.Config.Trace carry this one pointer, and nil means "no
// recorder". Mode shapes the recording; Sink and DumpTo say where its
// output goes.
type Config struct {
	// Mode selects full / sampled / counters recording. Off builds a
	// recorder that still rings and counts (useful standalone), but the
	// lynx layers skip recorder creation entirely for Off.
	Mode Mode
	// Sink, when non-nil, receives the exported (full or sampled)
	// events — typically an obs.JSONLExporter or obs.ChromeStream for
	// incremental streaming on long runs.
	Sink obs.Sink
	// DumpTo, when non-nil, receives ring dumps (anomaly hooks and
	// end-of-run). A dump is written as one Write call so concurrent
	// writers interleave at dump granularity, not mid-dump.
	DumpTo io.Writer
}

// SampleK is the Sampled-mode divisor: one event in SampleK is
// exported.
const SampleK = 64

// RingSize is the ring-buffer capacity in events. It is a power of two,
// so slot indexing is a mask, not a mod.
const RingSize = 4096

// Recorder is the flight recorder. It implements obs.Sink, so it
// attaches to an obs.Recorder like any exporter; the export sink named
// in its Config sits behind it, so sampling applies. The nil *Recorder
// is valid everywhere and does nothing — anomaly hooks fire
// unconditionally in instrumented code.
type Recorder struct {
	mode Mode
	seed uint64

	ring *[RingSize]obs.Event
	head uint64 // total events ringed; next slot is head % RingSize

	seen     uint64
	exported uint64

	sink   obs.Sink
	dumpTo io.Writer

	scratch bytes.Buffer
}

// New creates a recorder for the given config. The seed salts the
// sampling hash so distinct runs sample distinct subsequences; the
// same seed always samples the same ordinals.
func New(cfg Config, seed uint64) *Recorder {
	return &Recorder{
		mode:   cfg.Mode,
		seed:   seed,
		ring:   new([RingSize]obs.Event),
		sink:   cfg.Sink,
		dumpTo: cfg.DumpTo,
	}
}

// Mode returns the recorder's mode (Off for nil).
func (f *Recorder) Mode() Mode {
	if f == nil {
		return Off
	}
	return f.mode
}

// Event implements obs.Sink: ring and count the event, and forward it
// downstream according to the mode. This is the hot path — it performs
// no allocation (the slot copy reuses the event's string headers) and
// no locking (delivery is serial by the obs.Recorder's replay
// contract).
func (f *Recorder) Event(ev obs.Event) {
	f.ring[f.head%RingSize] = ev
	f.head++
	f.seen++
	switch f.mode {
	case Counters:
		return
	case Sampled:
		// Hash the event ordinal with the seed: the same seed exports
		// the same 1-in-K ordinals at any parallelism, because ordinals
		// are assigned in the deterministic delivery order.
		if mix64(f.seed^f.seen)%SampleK != 0 {
			return
		}
	}
	f.exported++
	if f.sink != nil {
		f.sink.Event(ev)
	}
}

// WantDetail implements obs.DetailHinter: full mode keeps every
// event's Detail string, counters-only keeps none (events live only in
// the ring and the seen count), and sampled mode keeps Detail
// exactly for the ordinals the deterministic sampler will export. The
// next-event prediction is exact under the same serial-delivery
// contract the ring relies on: between a site's WantDetail check and
// its Emit no other simulation step — and therefore no other event —
// can interleave, so the next ordinal is always seen+1. (Under
// parallel replay the obs.Recorder never consults the hint; see
// obs.Recorder.WantDetail.)
func (f *Recorder) WantDetail() bool {
	if f == nil {
		return false
	}
	switch f.mode {
	case Counters:
		return false
	case Sampled:
		return mix64(f.seed^(f.seen+1))%SampleK == 0
	default:
		return true
	}
}

// Seen returns how many events the recorder has observed (0 for nil).
func (f *Recorder) Seen() uint64 {
	if f == nil {
		return 0
	}
	return f.seen
}

// Exported returns how many events were forwarded downstream.
func (f *Recorder) Exported() uint64 {
	if f == nil {
		return 0
	}
	return f.exported
}

// RingLen returns how many events the ring currently holds (up to its
// capacity).
func (f *Recorder) RingLen() int {
	if f == nil {
		return 0
	}
	if f.head < RingSize {
		return int(f.head)
	}
	return RingSize
}

// Snapshot copies the ring's events oldest-first into a fresh slice
// (for tests and on-demand inspection; the hot path never calls this).
func (f *Recorder) Snapshot() []obs.Event {
	if f == nil {
		return nil
	}
	n := uint64(f.RingLen())
	out := make([]obs.Event, 0, n)
	for i := f.head - n; i < f.head; i++ {
		out = append(out, f.ring[i%RingSize])
	}
	return out
}

// Anomaly dumps the ring, when a dump writer is attached, so the
// events leading up to the anomaly are preserved even in sampled or
// counters mode; the dump's reason names the anomaly. Nil-safe, so
// instrumented code calls it unconditionally.
func (f *Recorder) Anomaly(reason string) {
	if f == nil {
		return
	}
	if f.dumpTo != nil {
		f.dump(f.dumpTo, "anomaly: "+reason)
	}
}

// Dump writes the ring to the configured dump writer (no-op without
// one).
func (f *Recorder) Dump(reason string) error {
	if f == nil || f.dumpTo == nil {
		return nil
	}
	return f.dump(f.dumpTo, reason)
}

// dumpHeader is the first line of a ring dump. The "type" field
// distinguishes dump lines from plain event lines when the dump and
// the event stream share one JSONL writer.
type dumpHeader struct {
	Type     string `json:"type"`
	Reason   string `json:"reason"`
	Mode     string `json:"mode"`
	Seen     uint64 `json:"seen"`
	Exported uint64 `json:"exported"`
	Ring     int    `json:"ring"`
}

// dump writes the ring as JSONL to w: one header object
// ({"type":"dump",...}), then the ringed events oldest-first, one per
// line. The whole dump is assembled in one buffer and issued as a
// single Write, so a writer shared with concurrent replicas never
// interleaves their lines into the middle of a dump.
func (f *Recorder) dump(w io.Writer, reason string) error {
	f.scratch.Reset()
	hdr, err := json.Marshal(dumpHeader{
		Type:     "dump",
		Reason:   reason,
		Mode:     f.mode.String(),
		Seen:     f.seen,
		Exported: f.exported,
		Ring:     f.RingLen(),
	})
	if err != nil {
		return err
	}
	f.scratch.Write(hdr)
	f.scratch.WriteByte('\n')
	n := uint64(f.RingLen())
	for i := f.head - n; i < f.head; i++ {
		line, err := json.Marshal(f.ring[i%RingSize])
		if err != nil {
			return err
		}
		f.scratch.Write(line)
		f.scratch.WriteByte('\n')
	}
	_, err = w.Write(f.scratch.Bytes())
	return err
}

// mix64 is the SplitMix64 finalizer — the same mixer internal/sim uses
// for stream-seed derivation, replicated here so the sampling decision
// is a documented pure function of (seed, ordinal).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
