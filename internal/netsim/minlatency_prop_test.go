package netsim

import (
	"testing"

	"repro/internal/sim"
)

// TestMinLatencyBoundsDeliveryProperty pins the conservative bound the
// per-group medium split leans on: over randomized ring and bus
// configurations and seeded traffic, MinLatency() never exceeds any
// observed cross-node delivery delay — neither on the parent medium nor
// on any per-group segment produced by Partition.
func TestMinLatencyBoundsDeliveryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		rng := sim.NewRand(seed)

		ring := NewTokenRing(2 + rng.Intn(30))
		ring.BitRate = int64(1+rng.Intn(100)) * 1_000_000
		ring.HopLatency = sim.Duration(rng.Intn(10)) * sim.Microsecond
		ring.FrameOverhead = rng.Intn(64)

		bus := NewCSMABus(sim.NewRand(seed * 7))
		bus.BitRate = int64(1+rng.Intn(20)) * 500_000
		bus.SenseDelay = sim.Duration(rng.Intn(200)) * sim.Microsecond
		bus.Backoff = sim.Duration(1+rng.Intn(800)) * sim.Microsecond
		bus.FrameOver = rng.Intn(32)

		nets := []Network{ring, bus}
		// Segments must honor the same bound: the parent's MinLatency is
		// the bound the partitioner quotes for every group.
		for _, seg := range ring.Partition(1 + rng.Intn(3)) {
			nets = append(nets, seg)
		}
		for _, seg := range bus.Partition(1 + rng.Intn(3)) {
			nets = append(nets, seg)
		}

		for _, n := range nets {
			min := MinLatency(n)
			if min <= 0 {
				t.Fatalf("seed %d: %s MinLatency = %v, want > 0", seed, n.Name(), min)
			}
			now := sim.Time(0)
			for i := 0; i < 200; i++ {
				src := NodeID(rng.Intn(32))
				dst := NodeID(rng.Intn(32))
				nbytes := rng.Intn(8192)
				var d sim.Duration
				if rng.Bool(0.2) {
					d = n.BroadcastTime(now, src, nbytes)
					if d < 0 {
						continue // medium has no broadcast
					}
				} else {
					d = n.SendTime(now, src, dst, nbytes)
				}
				if d < min {
					t.Fatalf("seed %d: %s delivery %v < MinLatency %v (iter %d, %dB)",
						seed, n.Name(), d, min, i, nbytes)
				}
				// Advance unevenly so some sends find the medium busy and
				// some find it idle.
				now += sim.Time(rng.DurationN(2 * min))
			}
		}
	}
}

// TestPartitionSegments pins the segment contract: config is inherited,
// per-segment rng streams are forked in segment-index order (so they
// depend only on the partition, not on scheduling), and the parent's
// Stats() aggregates parent-plus-segment traffic.
func TestPartitionSegments(t *testing.T) {
	mk := func() *CSMABus { return NewCSMABus(sim.NewRand(42)) }

	// Same partition twice from identically-seeded parents → segments
	// draw identical streams.
	a, b := mk(), mk()
	as, bs := a.Partition(3), b.Partition(3)
	for i := range as {
		for j := 0; j < 8; j++ {
			if x, y := as[i].rng.Uint64(), bs[i].rng.Uint64(); x != y {
				t.Fatalf("segment %d draw %d differs across identical partitions", i, j)
			}
		}
	}

	bus := mk()
	segs := bus.Partition(2)
	if segs[0].BitRate != bus.BitRate || segs[0].SenseDelay != bus.SenseDelay ||
		segs[0].Backoff != bus.Backoff || segs[0].FrameOver != bus.FrameOver ||
		segs[0].LossRate != bus.LossRate {
		t.Fatalf("segment did not inherit parent config")
	}
	bus.SendTime(0, 0, 1, 100)
	segs[0].SendTime(0, 2, 3, 200)
	segs[1].SendTime(0, 4, 5, 300)
	st := bus.Stats()
	if st.Messages != 3 || st.Bytes != 600 {
		t.Fatalf("aggregated stats = %+v, want 3 msgs / 600 bytes", *st)
	}
	// Segment occupancy is private: traffic on one segment leaves its
	// sibling's reservation untouched.
	if segs[1].m.busyUntil == segs[0].m.busyUntil && segs[0].m.busyUntil != 0 {
		// Both sent different sizes at t=0; equal busyUntil would mean a
		// shared reservation. (Different serialization times ⇒ different
		// completion instants.)
		t.Fatalf("segments appear to share occupancy state")
	}

	ring := NewTokenRing(8)
	rsegs := ring.Partition(2)
	if rsegs[0].Nodes != 8 || rsegs[0].BitRate != ring.BitRate {
		t.Fatalf("ring segment did not inherit parent config")
	}
	ring.SendTime(0, 0, 1, 10)
	rsegs[0].SendTime(0, 0, 1, 10)
	if ring.Stats().Messages != 2 {
		t.Fatalf("ring aggregated messages = %d, want 2", ring.Stats().Messages)
	}

	bp := NewBackplane()
	bsegs := bp.Partition(2)
	bp.SendTime(0, 0, 1, 10)
	bsegs[1].SendTime(0, 0, 1, 10)
	if bp.Stats().Messages != 2 {
		t.Fatalf("backplane aggregated messages = %d, want 2", bp.Stats().Messages)
	}
}
