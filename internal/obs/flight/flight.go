// Package flight is the bounded recording layer of the observability
// subsystem: a zero-alloc fixed-size ring buffer that always holds the
// last N protocol events, with seed-deterministic sampling,
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
	"math/bits"

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

// ParseMode resolves a mode name as used by CLIs and the lynxd job API.
// "counters-only" is accepted as an alias for "counters"; the empty
// string parses as Off.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "off":
		return Off, nil
	case "full":
		return Full, nil
	case "sampled":
		return Sampled, nil
	case "counters", "counters-only":
		return Counters, nil
	default:
		return Off, fmt.Errorf("unknown trace mode %q (want off, full, sampled or counters)", name)
	}
}

// Config parameterizes a Recorder. The same struct doubles as the
// thread-through carrier in lynx/load, lynx/sweep and lynx/grid: the
// Mode/SampleK/Ring/Seed fields shape the per-run recorder, Sink and
// DumpTo say where its output goes.
type Config struct {
	// Mode selects full / sampled / counters recording. Off builds a
	// recorder that still rings and counts (useful standalone), but the
	// lynx layers skip recorder creation entirely for Off.
	Mode Mode
	// SampleK is the sampling divisor for Sampled mode: one event in K
	// is exported. <= 0 defaults to 64. Ignored by other modes.
	SampleK int
	// Ring is the ring-buffer capacity in events, rounded up to a power
	// of two. <= 0 defaults to 4096.
	Ring int
	// Seed salts the sampling hash so distinct runs sample distinct
	// subsequences; the same seed always samples the same ordinals.
	Seed uint64
	// Sink, when non-nil, receives the exported (full or sampled)
	// events — typically an obs.JSONLExporter or obs.ChromeStream for
	// incremental streaming on long runs.
	Sink obs.Sink
	// DumpTo, when non-nil, receives ring dumps (anomaly hooks and
	// end-of-run). A dump is written as one Write call so concurrent
	// writers interleave at dump granularity, not mid-dump.
	DumpTo io.Writer
}

// DefaultSampleK is the Sampled-mode divisor when Config.SampleK is
// unset.
const DefaultSampleK = 64

// DefaultRing is the ring capacity when Config.Ring is unset.
const DefaultRing = 4096

// Recorder is the flight recorder. It implements obs.Sink, so it
// attaches to an obs.Recorder like any exporter; export sinks attach
// to it (not to the obs.Recorder directly, which would bypass
// sampling). The nil *Recorder is valid everywhere and does nothing —
// anomaly hooks fire unconditionally in instrumented code.
type Recorder struct {
	mode Mode
	k    uint64
	seed uint64

	ring []obs.Event
	mask uint64
	head uint64 // total events ringed; next slot is head & mask

	seen     uint64
	exported uint64

	sinks  []obs.Sink
	dumpTo io.Writer

	scratch bytes.Buffer
}

// New creates a recorder for the given config (Sink and DumpTo may
// also be attached later).
func New(cfg Config) *Recorder {
	k := uint64(cfg.SampleK)
	if cfg.SampleK <= 0 {
		k = DefaultSampleK
	}
	n := cfg.Ring
	if n <= 0 {
		n = DefaultRing
	}
	// Round up to a power of two so slot indexing is a mask, not a mod.
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	f := &Recorder{
		mode:   cfg.Mode,
		k:      k,
		seed:   cfg.Seed,
		ring:   make([]obs.Event, n),
		mask:   uint64(n - 1),
		dumpTo: cfg.DumpTo,
	}
	if cfg.Sink != nil {
		f.sinks = append(f.sinks, cfg.Sink)
	}
	return f
}

// Mode returns the recorder's mode (Off for nil).
func (f *Recorder) Mode() Mode {
	if f == nil {
		return Off
	}
	return f.mode
}

// Attach adds a downstream export sink; Full forwards every event to
// it, Sampled one in K, Counters none.
func (f *Recorder) Attach(s obs.Sink) {
	if f != nil && s != nil {
		f.sinks = append(f.sinks, s)
	}
}

// SetDumpWriter directs ring dumps to w (replacing any earlier
// destination).
func (f *Recorder) SetDumpWriter(w io.Writer) {
	if f != nil {
		f.dumpTo = w
	}
}

// Event implements obs.Sink: ring and count the event, and forward it
// downstream according to the mode. This is the hot path — it performs
// no allocation (the slot copy reuses the event's string headers) and
// no locking (delivery is serial by the obs.Recorder's replay
// contract).
func (f *Recorder) Event(ev obs.Event) {
	f.ring[f.head&f.mask] = ev
	f.head++
	f.seen++
	switch f.mode {
	case Counters:
		return
	case Sampled:
		// Hash the event ordinal with the seed: the same seed exports
		// the same 1-in-K ordinals at any parallelism, because ordinals
		// are assigned in the deterministic delivery order.
		if mix64(f.seed^f.seen)%f.k != 0 {
			return
		}
	}
	f.exported++
	for _, s := range f.sinks {
		s.Event(ev)
	}
}

// WantDetail implements obs.DetailHinter: full mode keeps every
// event's Detail string, counters-only keeps none (events live only in
// the ring and the per-kind counters), and sampled mode keeps Detail
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
		return mix64(f.seed^(f.seen+1))%f.k == 0
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
	if f.head < uint64(len(f.ring)) {
		return int(f.head)
	}
	return len(f.ring)
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
		out = append(out, f.ring[i&f.mask])
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
// distinguishes dump lines from plain event lines in a mixed JSONL
// stream (lynxd's /jobs/{id}/trace multiplexes both).
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
// single Write, so a line-splitting consumer (the lynxd job trace
// stream) never interleaves another writer's lines into the middle of
// a dump.
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
		line, err := json.Marshal(f.ring[i&f.mask])
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
