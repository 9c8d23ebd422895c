package main

import (
	"testing"

	"repro/lynx"
)

// tiny are the four workloads at test size.
var tiny = []struct {
	name string
	w    workload
}{
	{"rpc-star-charlotte", rpcLoad{substrate: lynx.Charlotte, clients: 3, ops: 40}},
	{"rpc-pairs-chrysalis", rpcLoad{substrate: lynx.Chrysalis, pairs: true, clients: 3, ops: 40, workers: 2}},
	{"open-soda", openLoad{rate: 40, window: 3 * lynx.Second}},
	{"systems-mix", systemsLoad{batches: 2, perCell: 4, parallel: 2}},
}

func TestWorkloadsRunCleanAndRepeat(t *testing.T) {
	for _, c := range tiny {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.w.run(7, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.attempted == 0 || a.failed != 0 || a.ops != a.attempted {
				t.Errorf("attempted %d, failed %d, completed %d; want all of at least one op to complete",
					a.attempted, a.failed, a.ops)
			}
			if a.virtN != a.ops || a.virtP50 <= 0 || a.virtTail < a.virtP50 {
				t.Errorf("virtual latency n %d p50 %v %s %v for %d ops", a.virtN, a.virtP50, a.tailName, a.virtTail, a.ops)
			}
			// A traced rep does the same simulated work.
			tr := newTracer()
			b, err := c.w.run(7, tr)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest {
				t.Errorf("two reps of seed 7 disagree: digest %x then %x", a.digest, b.digest)
			}
			if len(tr.spans) == 0 {
				t.Error("traced rep recorded no spans")
			}
		})
	}
}

func TestCorruptedEchoCountsAsFailed(t *testing.T) {
	w := rpcLoad{substrate: lynx.Charlotte, clients: 2, ops: 10, echo: func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)-1] ^= 1
		return c
	}}
	out, err := w.run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != out.attempted || out.ops != 0 {
		t.Errorf("corrupting server: %d of %d ops failed, %d completed; want all failed", out.failed, out.attempted, out.ops)
	}
}

func TestPairsMustPartition(t *testing.T) {
	w := rpcLoad{substrate: lynx.Chrysalis, pairs: true, clients: 1, ops: 5}
	if _, err := w.run(1, nil); err == nil {
		t.Error("a single client/server pair ran unpartitioned without error")
	}
}

func TestRepThatDoesNotReproduceCountsAsFailed(t *testing.T) {
	r := &run{res: &result{}}
	r.add(&repOut{attempted: 10, ops: 10, digest: 1})
	r.add(&repOut{attempted: 10, ops: 10, digest: 1})
	r.add(&repOut{attempted: 10, ops: 10, digest: 2})
	if r.res.Attempted != 30 || r.res.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 30 and 1", r.res.Attempted, r.res.Failed)
	}
}
