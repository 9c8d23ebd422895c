// Package netsim models the three interconnects of the paper's testbeds:
//
//   - a 10 Mbit/s Proteon token ring (Crystal multicomputer, Charlotte),
//   - a 1 Mbit/s CSMA broadcast bus (SODA's PDP-11/23 network),
//   - the BBN Butterfly's shared-memory backplane (Chrysalis).
//
// Each model answers one question: starting now, how long until nbytes
// initiated at src are available at dst? The answer accounts for medium
// acquisition (token rotation, CSMA backoff), serialization at the link
// rate, and per-frame overhead. Contention is modeled by tracking when
// the medium frees up; concurrent senders queue behind one another.
//
// The models are deliberately analytic rather than packet-level: the
// paper's latencies are dominated by kernel CPU path length, and what the
// reproduction needs from the network is the correct per-byte slope and
// ordering of media speeds (10 Mbit ring vs 1 Mbit bus vs memory bus).
//
// # Partition
//
// The ring and the bus couple every sender through one busyUntil
// reservation (and the bus through one rng). Partition splits that
// state into per-group SEGMENTS: clones with the parent's configuration
// but their own occupancy, counters, fault hook slot and, on the bus,
// their own rng stream, forked from the parent's in segment-index
// order so the stream a group draws depends only on the partition,
// never on worker scheduling. The run-time layer partitions along the
// connected components of the boot link graph, whose processes never
// exchange frames, so each group touches only its own segment. The
// parent's Stats aggregates its own counters with every segment's, so
// whole-run totals are unchanged; read it after the run (mid-run
// aggregation would race with concurrently-executing segments).
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// NodeID identifies a machine on a network.
type NodeID int

// FaultOutcome is the injected fate of one frame, as decided by a
// FaultHook. The zero value means "deliver normally". Which fields a
// medium honors depends on its reliability model: the droppable
// networks (ring, bus) honor Drop (kernels retransmit), Dup (the ghost
// copy occupies the medium and is discarded), and Extra; the reliable
// backplane honors Extra and Stall and converts Drop into a doubled
// transfer (the hardware retries, it cannot lose a write).
type FaultOutcome struct {
	// Drop loses the frame; the sender's reliability layer retransmits.
	Drop bool
	// Dup ghost-duplicates the frame; the copy is charged to the medium
	// at delivery time and discarded by the receiver.
	Dup bool
	// Extra is added latency (reorder jitter, slow-node penalty).
	Extra sim.Duration
	// Stall is how long a reliable medium blocks before the transfer
	// proceeds (a partition on the backplane stalls until the heal).
	Stall sim.Duration
}

// FaultHook lets a fault injector intercept frames on a network. A nil
// hook (the default) leaves every code path — including the medium's
// rng draw sequence — byte-identical to an unfaulted run.
type FaultHook interface {
	// Frame decides the fate of one frame about to be charged wire time
	// wire. It is consulted once per transmission attempt (so a
	// retransmitted frame is re-judged).
	Frame(now sim.Time, src, dst NodeID, nbytes int, wire sim.Duration, broadcast bool) FaultOutcome
	// BroadcastLoss returns an override for the medium's broadcast loss
	// rate, or a negative value to keep the medium's default. Override
	// semantics: the returned rate replaces the default, it never
	// compounds with it, and the medium still spends exactly one rng
	// draw per reception — so a hook that mirrors the default rate is
	// byte-identical to no hook.
	BroadcastLoss() float64
}

// Network is the interface the kernel models use to charge wire time.
type Network interface {
	// Name identifies the model in traces and reports.
	Name() string
	// SendTime returns the duration from initiating a point-to-point
	// transfer of nbytes from src to dst until it is fully delivered,
	// given the medium's state at virtual time now. It also reserves the
	// medium for that transfer.
	SendTime(now sim.Time, src, dst NodeID, nbytes int) sim.Duration
	// BroadcastTime is SendTime for a broadcast frame. Networks that do
	// not support broadcast return a negative duration.
	BroadcastTime(now sim.Time, src NodeID, nbytes int) sim.Duration
	// BroadcastDelivers reports whether an unreliable broadcast frame is
	// actually seen by the given destination (SODA's discover loses
	// frames). Deterministic given the network's random source.
	BroadcastDelivers(dst NodeID) bool
	// SetFaultHook installs (or, with nil, removes) a fault injector.
	SetFaultHook(FaultHook)
	// FaultHook returns the installed injector, or nil. Kernels consult
	// it at each transmission site.
	FaultHook() FaultHook
	// Stats exposes traffic counters, aggregated over any segments.
	Stats() *Stats
	// Partition splits the medium into k segments, one per node group
	// that never exchanges frames with another (see the package
	// comment), and returns them in group order.
	Partition(k int) []Network
}

// faultable is the embeddable FaultHook slot shared by every network
// model.
type faultable struct {
	hook FaultHook
}

// SetFaultHook implements Network.
func (f *faultable) SetFaultHook(h FaultHook) { f.hook = h }

// FaultHook implements Network.
func (f *faultable) FaultHook() FaultHook { return f.hook }

// Stats accumulates traffic counters for a network.
type Stats struct {
	Messages   int64
	Broadcasts int64
	Bytes      int64
	// BusyTime is total virtual time the medium was occupied.
	BusyTime sim.Duration
}

// add accumulates o into s (segment aggregation).
func (s *Stats) add(o *Stats) {
	s.Messages += o.Messages
	s.Broadcasts += o.Broadcasts
	s.Bytes += o.Bytes
	s.BusyTime += o.BusyTime
}

func (s *Stats) String() string {
	return fmt.Sprintf("msgs=%d bcasts=%d bytes=%d busy=%v",
		s.Messages, s.Broadcasts, s.Bytes, s.BusyTime)
}

// segments is the embeddable per-group split every medium shares: the
// segments Partition cut from it and the aggregate its Stats reports.
type segments struct {
	segs []Network
	agg  Stats
}

// split makes k segments with mk, in index order, and records them.
func (s *segments) split(k int, mk func() Network) []Network {
	segs := make([]Network, k)
	for i := range segs {
		segs[i] = mk()
	}
	s.segs = append(s.segs, segs...)
	return segs
}

// total returns own when the medium was never partitioned, else own
// plus every segment's counters.
func (s *segments) total(own *Stats) *Stats {
	if len(s.segs) == 0 {
		return own
	}
	s.agg = *own
	for _, seg := range s.segs {
		s.agg.add(seg.Stats())
	}
	return &s.agg
}

// medium tracks serialized occupancy of a shared channel.
type medium struct {
	busyUntil sim.Time
	stats     Stats
}

// reserve occupies the medium for tx starting no earlier than now+acq and
// returns the completion instant.
func (m *medium) reserve(now sim.Time, acq, tx sim.Duration) sim.Time {
	start := now + sim.Time(acq)
	if m.busyUntil > start {
		start = m.busyUntil
	}
	end := start + sim.Time(tx)
	m.busyUntil = end
	m.stats.BusyTime += tx
	return end
}

// TokenRing models the Proteon 10 Mbit/s ring: a sender waits for the
// token (half a rotation on average, deterministically charged), then
// holds the ring for the frame's serialization time.
type TokenRing struct {
	faultable
	m             medium
	Nodes         int
	BitRate       int64        // bits per second
	HopLatency    sim.Duration // per-station token forwarding latency
	FrameOverhead int          // header+trailer bytes per frame
	segments
}

// NewTokenRing creates a ring with the Crystal testbed's parameters:
// 20 nodes at 10 Mbit/s.
func NewTokenRing(nodes int) *TokenRing {
	return &TokenRing{
		Nodes:         nodes,
		BitRate:       10_000_000,
		HopLatency:    2 * sim.Microsecond,
		FrameOverhead: 16,
	}
}

// Name implements Network.
func (r *TokenRing) Name() string { return "token-ring" }

// SendTime implements Network.
func (r *TokenRing) SendTime(now sim.Time, src, dst NodeID, nbytes int) sim.Duration {
	acq := sim.Duration(r.Nodes/2) * r.HopLatency // mean token wait
	tx := r.serialize(nbytes)
	end := r.m.reserve(now, acq, tx)
	r.m.stats.Messages++
	r.m.stats.Bytes += int64(nbytes)
	return sim.Duration(end - now)
}

// BroadcastTime implements Network; the Proteon ring has no broadcast in
// our model.
func (r *TokenRing) BroadcastTime(sim.Time, NodeID, int) sim.Duration { return -1 }

// BroadcastDelivers implements Network.
func (r *TokenRing) BroadcastDelivers(NodeID) bool { return false }

// Stats implements Network.
func (r *TokenRing) Stats() *Stats { return r.total(&r.m.stats) }

// Partition implements Network.
func (r *TokenRing) Partition(k int) []Network {
	return r.split(k, func() Network {
		return &TokenRing{
			Nodes:         r.Nodes,
			BitRate:       r.BitRate,
			HopLatency:    r.HopLatency,
			FrameOverhead: r.FrameOverhead,
		}
	})
}

func (r *TokenRing) serialize(nbytes int) sim.Duration {
	bits := int64(nbytes+r.FrameOverhead) * 8
	return sim.Duration(bits * int64(sim.Second) / r.BitRate)
}

// CSMABus models SODA's 1 Mbit/s contention bus. Acquisition costs a
// fixed carrier-sense delay plus exponential-ish backoff when the bus is
// busy; broadcast frames are unreliable with a configurable loss rate.
type CSMABus struct {
	faultable
	m          medium
	BitRate    int64
	SenseDelay sim.Duration
	Backoff    sim.Duration // mean extra wait when the bus is found busy
	FrameOver  int
	rng        *sim.Rand
	segments
}

// csmaBroadcastLoss is the SODA testbed bus's unfaulted broadcast frame
// loss probability per receiver. A fault plan's bcast drop rule
// (fault.BroadcastLoss) replaces it through the FaultHook.
const csmaBroadcastLoss = 0.01

// NewCSMABus creates the SODA testbed bus: 1 Mbit/s with 1% broadcast
// loss, using rng for loss decisions and backoff jitter.
func NewCSMABus(rng *sim.Rand) *CSMABus {
	return &CSMABus{
		BitRate:    1_000_000,
		SenseDelay: 50 * sim.Microsecond,
		Backoff:    400 * sim.Microsecond,
		FrameOver:  12,
		rng:        rng,
	}
}

// Name implements Network.
func (b *CSMABus) Name() string { return "csma-bus" }

// SendTime implements Network.
func (b *CSMABus) SendTime(now sim.Time, src, dst NodeID, nbytes int) sim.Duration {
	acq := b.SenseDelay
	if b.m.busyUntil > now {
		acq += b.Backoff/2 + b.rng.DurationN(b.Backoff)
	}
	tx := b.serialize(nbytes)
	end := b.m.reserve(now, acq, tx)
	b.m.stats.Messages++
	b.m.stats.Bytes += int64(nbytes)
	return sim.Duration(end - now)
}

// BroadcastTime implements Network.
func (b *CSMABus) BroadcastTime(now sim.Time, src NodeID, nbytes int) sim.Duration {
	d := b.SendTime(now, src, -1, nbytes)
	b.m.stats.Messages--
	b.m.stats.Broadcasts++
	return d
}

// BroadcastDelivers implements Network. An installed fault hook's
// BroadcastLoss overrides (replaces) csmaBroadcastLoss; either way
// exactly one rng draw is consumed per reception, so installing a hook
// that mirrors the default rate leaves the run byte-identical.
func (b *CSMABus) BroadcastDelivers(NodeID) bool {
	rate := csmaBroadcastLoss
	if b.hook != nil {
		if r := b.hook.BroadcastLoss(); r >= 0 {
			rate = r
		}
	}
	return !b.rng.Bool(rate)
}

// Stats implements Network.
func (b *CSMABus) Stats() *Stats { return b.total(&b.m.stats) }

// Partition implements Network. Each segment's rng is forked from the
// bus's, in segment-index order.
func (b *CSMABus) Partition(k int) []Network {
	return b.split(k, func() Network {
		return &CSMABus{
			BitRate:    b.BitRate,
			SenseDelay: b.SenseDelay,
			Backoff:    b.Backoff,
			FrameOver:  b.FrameOver,
			rng:        b.rng.Fork(),
		}
	})
}

func (b *CSMABus) serialize(nbytes int) sim.Duration {
	bits := int64(nbytes+b.FrameOver) * 8
	return sim.Duration(bits * int64(sim.Second) / b.BitRate)
}

// Backplane models the Butterfly switch: processor-to-memory transfers at
// memcpy speed with negligible acquisition and per-block overhead. The
// Butterfly's log-depth switch means senders rarely serialize; we model
// the switch as contention-free but charge a per-transfer setup cost.
type Backplane struct {
	faultable
	stats     Stats
	SetupCost sim.Duration
	PerByte   sim.Duration
	segments
}

// NewBackplane creates a Butterfly-calibrated backplane (68000-era block
// copy through the switch).
func NewBackplane() *Backplane {
	return &Backplane{
		SetupCost: 20 * sim.Microsecond,
		PerByte:   420 * sim.Nanosecond, // one direction
	}
}

// Name implements Network.
func (bp *Backplane) Name() string { return "backplane" }

// SendTime implements Network.
func (bp *Backplane) SendTime(now sim.Time, src, dst NodeID, nbytes int) sim.Duration {
	bp.stats.Messages++
	bp.stats.Bytes += int64(nbytes)
	d := bp.SetupCost + sim.Duration(nbytes)*bp.PerByte
	bp.stats.BusyTime += d
	return d
}

// BroadcastTime implements Network.
func (bp *Backplane) BroadcastTime(sim.Time, NodeID, int) sim.Duration { return -1 }

// BroadcastDelivers implements Network.
func (bp *Backplane) BroadcastDelivers(NodeID) bool { return false }

// Stats implements Network.
func (bp *Backplane) Stats() *Stats { return bp.total(&bp.stats) }

// Partition implements Network. The switch model is contention-free,
// so a segment privatizes only the counters and the fault hook slot.
func (bp *Backplane) Partition(k int) []Network {
	return bp.split(k, func() Network {
		return &Backplane{SetupCost: bp.SetupCost, PerByte: bp.PerByte}
	})
}
