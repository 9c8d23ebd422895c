package netsim

import (
	"testing"

	"repro/internal/sim"
)

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
			if x, y := as[i].(*CSMABus).rng.Uint64(), bs[i].(*CSMABus).rng.Uint64(); x != y {
				t.Fatalf("segment %d draw %d differs across identical partitions", i, j)
			}
		}
	}

	bus := mk()
	segs := bus.Partition(2)
	seg0, seg1 := segs[0].(*CSMABus), segs[1].(*CSMABus)
	if seg0.BitRate != bus.BitRate || seg0.SenseDelay != bus.SenseDelay ||
		seg0.Backoff != bus.Backoff || seg0.FrameOver != bus.FrameOver {
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
	if seg1.m.busyUntil == seg0.m.busyUntil && seg0.m.busyUntil != 0 {
		// Both sent different sizes at t=0; equal busyUntil would mean a
		// shared reservation. (Different serialization times ⇒ different
		// completion instants.)
		t.Fatalf("segments appear to share occupancy state")
	}

	ring := NewTokenRing(8)
	rsegs := ring.Partition(2)
	if r0 := rsegs[0].(*TokenRing); r0.Nodes != 8 || r0.BitRate != ring.BitRate {
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
