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
// # Parallel-execution coupling
//
// The parallel engine (sim.EnterParallel) partitions procs into
// independent groups and needs two facts from a network model:
//
//   - A latency lower bound: MinLatency reports the smallest possible
//     delay between initiating a transfer and any remote effect. For a
//     model with per-frame serialization this is the zero-payload frame
//     time, since no message can influence another node sooner.
//   - Whether the medium couples otherwise-independent node groups. As
//     built, the ring and bus do: every SendTime call reads and writes
//     one shared busyUntil reservation (and the bus draws from a shared
//     rng when found busy). Partition splits that shared state into
//     per-group SEGMENTS — clones sharing the parent's configuration but
//     each carrying its own occupancy reservation, its own rng stream
//     (forked from the parent in segment-index order, so the assignment
//     of streams to groups is a pure function of the partition, not of
//     worker scheduling), its own traffic counters, and its own fault
//     hook slot. A group that only ever talks to itself then touches
//     only its own segment, which is exactly the case the run-time
//     layer's partitioner arranges: groups are connected components of
//     the boot link graph, and processes in different components never
//     exchange frames. A positive MinLatency bound is what makes the
//     decomposition sound — no un-modeled faster coupling exists
//     between segments — and the parent's Stats() aggregates its
//     own counters with every segment's, so whole-run totals are
//     unchanged (read it after the run; mid-run aggregation would race
//     with concurrently-executing segments).
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
	// Stats exposes traffic counters.
	Stats() *Stats
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

	segs []*TokenRing // per-group segments (see Partition)
	agg  Stats        // cached aggregate for Stats() when segmented
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

// Stats implements Network. When the ring has been Partitioned, the
// returned snapshot aggregates the parent's own counters with every
// segment's; read it only after the run (aggregating mid-run would race
// with concurrently-executing segments).
func (r *TokenRing) Stats() *Stats {
	if len(r.segs) == 0 {
		return &r.m.stats
	}
	r.agg = r.m.stats
	for _, s := range r.segs {
		r.agg.add(s.Stats())
	}
	return &r.agg
}

// Partition splits the ring into k segments for conservative parallel
// execution: each segment shares the parent's configuration but has its
// own occupancy reservation, counters, and fault hook slot, so node
// groups that never exchange frames can drive their segments
// concurrently. The parent's Stats() aggregates over the segments.
func (r *TokenRing) Partition(k int) []*TokenRing {
	segs := make([]*TokenRing, k)
	for i := range segs {
		segs[i] = &TokenRing{
			Nodes:         r.Nodes,
			BitRate:       r.BitRate,
			HopLatency:    r.HopLatency,
			FrameOverhead: r.FrameOverhead,
		}
	}
	r.segs = append(r.segs, segs...)
	return segs
}

// MinLatency reports the smallest possible cross-node delay: even with
// the token in hand, an empty frame still serializes its header and
// trailer at the link rate.
func (r *TokenRing) MinLatency() sim.Duration { return r.serialize(0) }

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
	// LossRate is the default broadcast frame loss probability per
	// receiver.
	//
	// Deprecated: prefer a fault plan's bcast drop rule
	// (fault.BroadcastLoss), which overrides this field through the
	// FaultHook; the field remains as the unfaulted default.
	LossRate float64
	rng      *sim.Rand

	segs []*CSMABus // per-group segments (see Partition)
	agg  Stats      // cached aggregate for Stats() when segmented
}

// NewCSMABus creates the SODA testbed bus: 1 Mbit/s with 1% broadcast
// loss, using rng for loss decisions and backoff jitter.
func NewCSMABus(rng *sim.Rand) *CSMABus {
	return &CSMABus{
		BitRate:    1_000_000,
		SenseDelay: 50 * sim.Microsecond,
		Backoff:    400 * sim.Microsecond,
		FrameOver:  12,
		LossRate:   0.01,
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
// BroadcastLoss overrides (replaces) the default LossRate; either way
// exactly one rng draw is consumed per reception, so installing a hook
// that mirrors the default rate leaves the run byte-identical.
func (b *CSMABus) BroadcastDelivers(NodeID) bool {
	rate := b.LossRate
	if b.hook != nil {
		if r := b.hook.BroadcastLoss(); r >= 0 {
			rate = r
		}
	}
	return !b.rng.Bool(rate)
}

// Stats implements Network. When the bus has been Partitioned, the
// returned snapshot aggregates the parent's own counters with every
// segment's; read it only after the run.
func (b *CSMABus) Stats() *Stats {
	if len(b.segs) == 0 {
		return &b.m.stats
	}
	b.agg = b.m.stats
	for _, s := range b.segs {
		b.agg.add(s.Stats())
	}
	return &b.agg
}

// Partition splits the bus into k segments for conservative parallel
// execution: each segment shares the parent's configuration but carries
// its own occupancy reservation, counters, fault hook slot, and — the
// part the byte-identity contract leans on — its own rng stream, forked
// from the parent's in segment-index order so the stream a group draws
// backoff jitter and broadcast losses from depends only on the
// partition, never on worker scheduling. The parent's Stats()
// aggregates over the segments.
func (b *CSMABus) Partition(k int) []*CSMABus {
	segs := make([]*CSMABus, k)
	for i := range segs {
		segs[i] = &CSMABus{
			BitRate:    b.BitRate,
			SenseDelay: b.SenseDelay,
			Backoff:    b.Backoff,
			FrameOver:  b.FrameOver,
			LossRate:   b.LossRate,
			rng:        b.rng.Fork(),
		}
	}
	b.segs = append(b.segs, segs...)
	return segs
}

// MinLatency reports the smallest possible cross-node delay: carrier
// sense on an idle bus plus the zero-payload frame time.
func (b *CSMABus) MinLatency() sim.Duration { return b.SenseDelay + b.serialize(0) }

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

	segs []*Backplane // per-group segments (see Partition)
	agg  Stats        // cached aggregate for Stats() when segmented
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

// Stats implements Network. When the backplane has been Partitioned,
// the returned snapshot aggregates the parent's own counters with every
// segment's; read it only after the run.
func (bp *Backplane) Stats() *Stats {
	if len(bp.segs) == 0 {
		return &bp.stats
	}
	bp.agg = bp.stats
	for _, s := range bp.segs {
		bp.agg.add(s.Stats())
	}
	return &bp.agg
}

// Partition splits the backplane into k segments for conservative
// parallel execution. The switch model is contention-free, so the only
// shared mutable state is the counters and the fault hook slot; each
// segment gets its own of both. The parent's Stats() aggregates over
// the segments.
func (bp *Backplane) Partition(k int) []*Backplane {
	segs := make([]*Backplane, k)
	for i := range segs {
		segs[i] = &Backplane{SetupCost: bp.SetupCost, PerByte: bp.PerByte}
	}
	bp.segs = append(bp.segs, segs...)
	return segs
}

// MinLatency reports the smallest possible cross-node delay: the
// per-transfer switch setup cost.
func (bp *Backplane) MinLatency() sim.Duration { return bp.SetupCost }

// MinLatency reports a conservative latency bound for n: the smallest
// delay between initiating any transfer and its remote effect, or 0
// when the model does not expose one (0 disables partitioning). A
// positive MinLatency is what licenses splitting the medium into
// per-group segments (Partition): it certifies that the model has no
// faster coupling between node groups beyond the occupancy and rng
// state the segments privatize.
func MinLatency(n Network) sim.Duration {
	type minLatency interface{ MinLatency() sim.Duration }
	if m, ok := n.(minLatency); ok {
		return m.MinLatency()
	}
	return 0
}
