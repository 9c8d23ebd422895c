package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

var (
	diffSetA = NewCounterSet("a_total", "b_total", "c_total")
	diffSetB = NewCounterSet("b_total", "d_total")
	diffSetC = NewCounterSet("e_total")
)

// procIDs are the process ids replicaPair draws from. They span digit
// counts, so lexical name order ("100}" < "10}" < "1}") differs from
// numeric order.
var procIDs = []int{-1, 1, 9, 10, 11, 100}

// procKey is the name Snapshot and Names give to counter name in
// proc's block.
func procKey(name string, proc int) string {
	return fmt.Sprintf("%s{proc=%d}", name, proc)
}

// replicaPair builds one registry through per-process blocks and a
// reference registry through Counter(procKey(...)), from the same seeded
// mix of calls: plain counters, histograms (one named like a plain
// counter), blocks (some processes get two blocks), and a plain counter
// created under a formatted per-process name that a block also holds.
// Half the seeds use diffSetA and diffSetB, which both name b_total, so
// their name runs interleave; the other half leave diffSetB out. Every
// seed uses the one-name diffSetC.
func replicaPair(seed int64) (blocks, ref *Metrics) {
	rnd := rand.New(rand.NewSource(seed))
	blocks, ref = NewMetrics(), NewMetrics()
	plain := []string{"kernel_total", "x_total", "a_total"}
	for i := 0; i < 20; i++ {
		name := plain[rnd.Intn(len(plain))]
		v := int64(rnd.Intn(100))
		blocks.Counter(name).Add(v)
		ref.Counter(name).Add(v)
	}
	for _, d := range []int64{5, 500, 50000} {
		for _, h := range []string{"wait_ns", "x_total"} {
			blocks.Histogram(h).Observe(sim.Duration(d))
			ref.Histogram(h).Observe(sim.Duration(d))
		}
	}
	bothSets := seed%2 == 0
	for i := 0; i < 12; i++ {
		set := diffSetA
		switch r := rnd.Intn(6); {
		case r == 0:
			set = diffSetC
		case bothSets && r < 3:
			set = diffSetB
		}
		proc := procIDs[rnd.Intn(len(procIDs))] // the same ids recur across replicas
		b := blocks.ProcCounters(set, proc)
		for _, name := range set.names {
			// Every block counter exists in the reference, even at zero.
			ref.Counter(procKey(name, proc))
			for n := rnd.Intn(4); n > 0; n-- {
				v := int64(rnd.Intn(50))
				b.Counter(name).Add(v)
				ref.Counter(procKey(name, proc)).Add(v)
			}
		}
	}
	alias := procKey("a_total", 10)
	blocks.Counter(alias).Add(7)
	ref.Counter(alias).Add(7)
	return blocks, ref
}

// TestProcBlocksMatchReference checks that the block registry answers
// every read exactly as the name-per-counter registry does, for single
// replicas, Merge, and nested and repeated merges.
func TestProcBlocksMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		b0, r0 := replicaPair(seed)
		b1, r1 := replicaPair(seed + 1000)
		sameReads(t, "replica", b0, r0)

		mb, mr := NewMetrics(), NewMetrics()
		mb.Merge(b0)
		mb.Merge(b1)
		mb.Merge(b0)
		mr.Merge(r0)
		mr.Merge(r1)
		mr.Merge(r0)
		sameReads(t, "Merge", mb, mr)

		// Merging into registries that already hold blocks of their own.
		b2, r2 := replicaPair(seed + 2000)
		b2.Merge(b1)
		r2.Merge(r1)
		sameReads(t, "Merge into populated", b2, r2)

		ob, or := NewMetrics(), NewMetrics()
		ob.Merge(b2)
		ob.Merge(mb)
		or.Merge(r2)
		or.Merge(mr)
		sameReads(t, "nested", ob, or)
	}
}

func sameReads(t *testing.T, what string, got, want *Metrics) {
	t.Helper()
	if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Snapshot differs\n got %v\nwant %v", what, g, w)
	}
	names := want.Names()
	if g := got.Names(); !reflect.DeepEqual(g, names) {
		t.Fatalf("%s: Names differ\n got %v\nwant %v", what, g, names)
	}
	for _, n := range []string{"kernel_total", "x_total", "a_total", "nope"} {
		if g, w := got.Value(n), want.Value(n); g != w {
			t.Fatalf("%s: Value(%q) = %d, want %d", what, n, g, w)
		}
	}
	// The reference holds each block counter under its formatted name,
	// beside the plain alias counter of that name, which ProcValue
	// leaves out.
	for _, base := range []string{"a_total", "b_total", "c_total", "d_total", "e_total", "x_total"} {
		for _, proc := range append([]int{-2, 0, 2, 101}, procIDs...) {
			k := procKey(base, proc)
			if g, w := got.ProcValue(base, proc), want.Value(k)-got.Value(k); g != w {
				t.Fatalf("%s: ProcValue(%q, %d) = %d, want %d", what, base, proc, g, w)
			}
		}
	}
}

// TestProcCountersNames pins the read-time names and the nil registry.
func TestProcCountersNames(t *testing.T) {
	m := NewMetrics()
	m.ProcCounters(diffSetB, 3).Counter("d_total").Add(4)
	if got := m.Names(); strings.Join(got, ",") != "b_total{proc=3},d_total{proc=3}" {
		t.Fatalf("names %v", got)
	}
	if got := m.ProcValue("d_total", 3); got != 4 {
		t.Fatalf("d_total{proc=3} = %d", got)
	}
	var nilM *Metrics
	c := nilM.ProcCounters(diffSetA, 1).Counter("a_total")
	c.Inc() // no-op, no panic
	if c != nil {
		t.Fatal("nil registry handed out a live counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a name outside the set did not panic")
		}
	}()
	m.ProcCounters(diffSetA, 1).Counter("d_total")
}

// blockRegistry returns a registry holding one block of set for each of
// processes 0..n-1, a few plain counters and a histogram, with every
// fifth block counter nonzero.
func blockRegistry(set *CounterSet, n int) *Metrics {
	m := NewMetrics()
	m.Counter(MKernelMessages).Add(3)
	m.Counter(MBindKernelSends).Add(5)
	m.Histogram(MQueueWaitNs).Observe(7)
	k := 0
	for proc := 0; proc < n; proc++ {
		b := m.ProcCounters(set, proc)
		for _, name := range set.names {
			if k%5 == 0 {
				b.Counter(name).Add(int64(k))
			}
			k++
		}
	}
	return m
}

// sodaScaleSet has as many names as the SODA binding's set, which an
// open-loop SODA run fills with 11,719 blocks.
var sodaScaleSet = NewCounterSet(
	MPuts, MAccepts, MSavedRequests, MRejectedReplies, MMovedForwards,
	MHintFixes, MHintHits, MHintMisses, MDiscovers, MFreezes,
	MFreezeHalts, MFrozenTimeNs, MLinkMoves, MCacheEvictions, MPairLimitRetries,
)

// TestBlockReadAllocs gates the cost of reading blocks: Snapshot and
// Names format each block's names into one string, so they allocate
// fewer than two times per block, not once per counter.
func TestBlockReadAllocs(t *testing.T) {
	const blocks = 1000
	m := blockRegistry(NewCounterSet("a_total", "b_total", "c_total", "d_total", "e_total", "f_total"), blocks)
	for _, read := range []struct {
		name string
		f    func()
	}{
		{"Snapshot", func() { m.Snapshot() }},
		{"Names", func() { m.Names() }},
	} {
		if a := testing.AllocsPerRun(5, read.f); a >= 2*blocks {
			t.Errorf("%s: %.0f allocations for %d blocks, want fewer than %d", read.name, a, blocks, 2*blocks)
		}
	}
}

var (
	snapshotSink map[string]int64
	namesSink    []string
)

func BenchmarkSnapshot(b *testing.B) {
	m := blockRegistry(sodaScaleSet, 11719)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = m.Snapshot()
	}
}

func BenchmarkNames(b *testing.B) {
	m := blockRegistry(sodaScaleSet, 11719)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		namesSink = m.Names()
	}
}
