package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
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
// counter), blocks (some processes get two blocks, and some counters
// stay at zero), and a plain counter created under a formatted
// per-process name that a block also holds. The reference names a
// block counter only once it has counted, as Snapshot does.
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
			for n := rnd.Intn(4); n > 0; n-- {
				v := int64(rnd.Intn(50))
				b.Counter(name).Add(v)
				if v != 0 {
					ref.Counter(procKey(name, proc)).Add(v)
				}
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

// TestProcCountersNames pins the read-time names, which leave out a
// block counter that has not counted, and the nil registry.
func TestProcCountersNames(t *testing.T) {
	m := NewMetrics()
	m.ProcCounters(diffSetB, 3).Counter("d_total").Add(4)
	if got := m.Names(); strings.Join(got, ",") != "d_total{proc=3}" {
		t.Fatalf("names %v", got)
	}
	if got := m.ProcValue("d_total", 3); got != 4 {
		t.Fatalf("d_total{proc=3} = %d", got)
	}
	if v, ok := m.Snapshot()["b_total{proc=3}"]; ok || m.ProcValue("b_total", 3) != 0 {
		t.Fatalf("uncounted b_total{proc=3}: snapshot %d (listed %v), ProcValue %d", v, ok, m.ProcValue("b_total", 3))
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

// TestSnapshotNamesCountedBlocks checks the naming rule on seeded
// registries, single and merged: Snapshot holds no zero {proc=N} key
// and every block counter that has counted, and Names is the sorted
// keys of Snapshot with each histogram listed under its base name.
func TestSnapshotNamesCountedBlocks(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		b0, _ := replicaPair(seed)
		b1, _ := replicaPair(seed + 1000)
		merged := NewMetrics()
		merged.Merge(b0)
		merged.Merge(b1)
		for _, m := range []*Metrics{b0, b1, merged} {
			snap := m.Snapshot()
			for k, v := range snap {
				if v == 0 && strings.Contains(k, "{proc=") {
					t.Fatalf("seed %d: zero block key %s", seed, k)
				}
			}
			for _, base := range []string{"a_total", "b_total", "c_total", "d_total", "e_total"} {
				for _, proc := range procIDs {
					k := procKey(base, proc)
					if v := m.ProcValue(base, proc); v != 0 && snap[k] != v+m.Value(k) {
						t.Fatalf("seed %d: %s = %d in the snapshot, want %d", seed, k, snap[k], v+m.Value(k))
					}
				}
			}
			var want []string
			for k := range snap {
				if base, ok := strings.CutSuffix(k, "_count"); ok {
					if _, hist := snap[base+"_sum_ns"]; hist {
						want = append(want, base)
						continue
					}
				}
				if strings.HasSuffix(k, "_sum_ns") || strings.HasSuffix(k, "_max_ns") {
					continue
				}
				want = append(want, k)
			}
			sort.Strings(want)
			if got := m.Names(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Names\n got %v\nwant %v", seed, got, want)
			}
		}
	}
}

// TestSnapshotWhileCounting reads a registry while other goroutines
// count into its blocks for the first time (run it under -race): every
// key a read returns is the well-formed name of a counter that has
// counted, and a counter's value never falls from one read to the next.
func TestSnapshotWhileCounting(t *testing.T) {
	m := NewMetrics()
	const procs = 2000
	blocks := make([]ProcCounters, procs)
	for p := range blocks {
		blocks[p] = m.ProcCounters(diffSetA, p)
	}
	valid := map[string]bool{}
	for p := 0; p < procs; p++ {
		for _, name := range diffSetA.names {
			valid[procKey(name, p)] = true
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3*procs; i++ {
				blocks[rnd.Intn(procs)].Counter(diffSetA.names[rnd.Intn(3)]).Inc()
				runtime.Gosched()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := map[string]int64{}
	for i := 0; ; i++ {
		for k, v := range m.Snapshot() {
			if !valid[k] || v == 0 || v < last[k] {
				t.Fatalf("read %d: key %q = %d (last %d)", i, k, v, last[k])
			}
			last[k] = v
		}
		names := m.Names()
		for _, n := range names {
			if !valid[n] {
				t.Fatalf("read %d: name %q", i, n)
			}
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("read %d: names not sorted", i)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// blockRegistry returns a registry holding one block of set for each of
// processes 0..n-1, a few plain counters and a histogram, with every
// fifth block counter nonzero.
func blockRegistry(set *CounterSet, n int) *Metrics {
	return countedRegistry(set, n, func(k, _ int) bool { return k%5 == 0 })
}

// countedRegistry is blockRegistry with block counter j of the k-th
// counter overall (counting across blocks) nonzero where counted(k, j).
func countedRegistry(set *CounterSet, n int, counted func(k, j int) bool) *Metrics {
	m := NewMetrics()
	m.Counter(MKernelMessages).Add(3)
	m.Counter(MBindKernelSends).Add(5)
	m.Histogram(MQueueWaitNs).Observe(7)
	k := 0
	for proc := 0; proc < n; proc++ {
		b := m.ProcCounters(set, proc)
		for j, name := range set.names {
			if counted(k, j) {
				b.Counter(name).Add(int64(k + 1))
			}
			k++
		}
	}
	return m
}

// sodaScaleSet has as many names as the SODA binding's set, which an
// open-loop SODA run fills with 11,719 blocks. In that run every hint
// hits, so only puts, accepts and hint hits count.
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

// sodaScaleRegistry is an open-soda-sized registry: 11,719 blocks of
// sodaScaleSet, each with puts, accepts and hint hits counted.
func sodaScaleRegistry() *Metrics {
	return countedRegistry(sodaScaleSet, 11719, func(_, j int) bool {
		n := sodaScaleSet.names[j]
		return n == MPuts || n == MAccepts || n == MHintHits
	})
}

func BenchmarkSnapshot(b *testing.B) {
	m := sodaScaleRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = m.Snapshot()
	}
}

func BenchmarkNames(b *testing.B) {
	m := sodaScaleRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		namesSink = m.Names()
	}
}
