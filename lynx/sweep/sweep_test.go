package sweep_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/lynx"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// oneCell runs body as the replicas of a one-cell grid, the way every
// caller fans replicas out, and returns the cell's aggregate.
func oneCell(s grid.Spec, body func(sweep.Run) sweep.Outcome) *sweep.Aggregate {
	s.Body = func(_ grid.Cell, r sweep.Run) sweep.Outcome { return body(r) }
	return grid.Run(s).Cells[0].Agg
}

// echoBody is a real whole-system replica: one RPC echo pair on the
// Chrysalis substrate, measuring the round trip and reporting the run's
// metric registry.
func echoBody(r sweep.Run) sweep.Outcome {
	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Chrysalis, Seed: r.Seed})
	var rtt lynx.Duration
	c := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
		start := th.Now()
		if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: []byte("x")}); err != nil {
			return
		}
		rtt = lynx.Duration(th.Now() - start)
		th.Destroy(boot[0])
	})
	s := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
		th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{Data: req.Data()})
		})
	})
	sys.Join(c, s)
	err := sys.Run()
	return sweep.Outcome{
		Values:  map[string]float64{"rtt_ms": rtt.Milliseconds()},
		Metrics: sys.Metrics(),
		Err:     err,
	}
}

// The determinism contract: the aggregate must be identical for
// Parallel=1 and Parallel=8 at the same root seed, replicas included.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	const reps = 12
	serial := oneCell(grid.Spec{Replicas: reps, Parallel: 1, RootSeed: 99}, echoBody)
	wide := oneCell(grid.Spec{Replicas: reps, Parallel: 8, RootSeed: 99}, echoBody)
	if !reflect.DeepEqual(serial.Values, wide.Values) || !reflect.DeepEqual(serial.Metrics(), wide.Metrics()) {
		t.Fatalf("aggregate differs between Parallel=1 and Parallel=8:\n--- serial\n%v %v\n--- parallel\n%v %v",
			serial.Values, serial.Metrics(), wide.Values, wide.Metrics())
	}
	for i := range serial.Outcomes {
		if serial.Outcomes[i].Values["rtt_ms"] != wide.Outcomes[i].Values["rtt_ms"] {
			t.Fatalf("replica %d rtt differs across parallelism", i)
		}
	}
	if len(serial.Errs) != 0 || len(wide.Errs) != 0 {
		t.Fatalf("replica errors: %v, %v", serial.Errs, wide.Errs)
	}
}

// Replica seeds are pure functions of (root, index): a sweep at R=4
// must agree with the prefix of a sweep at R=8.
func TestSweepSeedsStableAcrossReplicaCount(t *testing.T) {
	seeds := func(r int) []uint64 {
		var got []uint64
		oneCell(grid.Spec{Replicas: r, Parallel: 1, RootSeed: 5}, func(run sweep.Run) sweep.Outcome {
			got = append(got, run.Seed)
			return sweep.Outcome{}
		})
		return got
	}
	four, eight := seeds(4), seeds(8)
	for i := range four {
		if four[i] != eight[i] {
			t.Fatalf("seed %d differs: %#x vs %#x", i, four[i], eight[i])
		}
	}
}

func TestSweepMergedMetrics(t *testing.T) {
	const reps = 5
	agg := oneCell(grid.Spec{Replicas: reps, Parallel: 4, RootSeed: 3}, echoBody)
	// The echo exchange is structurally identical in every replica, so
	// the per-replica dual-queue enqueue count is a constant series and
	// the pooled counter is exactly reps times it.
	st, ok := agg.Metrics()["queue_enqueues_total"]
	if !ok {
		t.Fatalf("no per-replica stat for queue_enqueues_total; have %d metric stats", len(agg.Metrics()))
	}
	if st.N != reps || st.Min == 0 || st.Min != st.Max || st.CI95 != 0 {
		t.Fatalf("per-replica stat = %+v, want N=%d and a constant nonzero series", st, reps)
	}
	pooled := agg.Merged.Value("queue_enqueues_total")
	if pooled != int64(st.Mean)*int64(reps) {
		t.Fatalf("pooled queue_enqueues_total = %d, want %d", pooled, int64(st.Mean)*int64(reps))
	}
}

func TestSummarize(t *testing.T) {
	st := sweep.Summarize([]float64{4, 1, 3, 2, 5})
	if st.N != 5 || st.Mean != 3 || st.Min != 1 || st.Max != 5 {
		t.Fatalf("basic stats wrong: %+v", st)
	}
	if st.P50 != 3 || st.P95 != 5 || st.P99 != 5 {
		t.Fatalf("percentiles wrong: %+v", st)
	}
	// sd of 1..5 is sqrt(2.5); CI95 = 1.96*sd/sqrt(5).
	want := 1.96 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(st.CI95-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", st.CI95, want)
	}
	if got := sweep.Summarize(nil); got != (sweep.Stat{}) {
		t.Fatalf("empty series: %+v", got)
	}
	if got := sweep.Summarize([]float64{7}); got.CI95 != 0 || got.Mean != 7 {
		t.Fatalf("singleton series: %+v", got)
	}
}

// Replica k of a one-cell grid runs with sweep.CellSeed(root, 0, k),
// the grid's two-level split, on the serial and the parallel path.
func TestSweepSeedsHook(t *testing.T) {
	const root = uint64(11)
	var got []uint64
	oneCell(grid.Spec{Replicas: 4, Parallel: 1, RootSeed: root}, func(r sweep.Run) sweep.Outcome {
		got = append(got, r.Seed)
		return sweep.Outcome{}
	})
	for k, s := range got {
		if want := sweep.CellSeed(root, 0, k); s != want {
			t.Fatalf("replica %d seed = %#x, want CellSeed %#x", k, s, want)
		}
	}
	wide := oneCell(grid.Spec{Replicas: 4, Parallel: 4, RootSeed: root}, func(r sweep.Run) sweep.Outcome {
		return sweep.Outcome{Values: map[string]float64{"seed": float64(r.Seed % 1000)}}
	})
	for k := range got {
		if wide.Outcomes[k].Values["seed"] != float64(got[k]%1000) {
			t.Fatalf("parallel replica %d saw a different seed", k)
		}
	}
}

// A single-replica sweep has no confidence interval: the stat must
// carry CI95=0 and render it as "n/a", never NaN or ±0.000.
func TestSweepSingleReplicaCI(t *testing.T) {
	agg := oneCell(grid.Spec{Replicas: 1, Parallel: 1, RootSeed: 2}, echoBody)
	st := agg.Values["rtt_ms"]
	if st.N != 1 {
		t.Fatalf("stat N = %d, want 1", st.N)
	}
	if math.IsNaN(st.CI95) || st.CI95 != 0 {
		t.Fatalf("CI95 = %v, want 0 for a singleton series", st.CI95)
	}
	s := st.String()
	if !strings.Contains(s, "±n/a") {
		t.Fatalf("singleton Stat renders %q, want ±n/a", s)
	}
	for _, stats := range []map[string]sweep.Stat{agg.Values, agg.Metrics()} {
		for name, st := range stats {
			if strings.Contains(st.String(), "NaN") {
				t.Fatalf("stat %s renders NaN: %s", name, st)
			}
		}
	}
	// Two replicas DO have a CI and render it numerically.
	if s := sweep.Summarize([]float64{1, 2}).String(); strings.Contains(s, "n/a") {
		t.Fatalf("two-sample stat should render a numeric CI, got %q", s)
	}
}

// Failed replicas surface in Errs but do not poison aggregation.
func TestSweepCollectsErrors(t *testing.T) {
	agg := oneCell(grid.Spec{Replicas: 4, Parallel: 2}, func(r sweep.Run) sweep.Outcome {
		if r.Replica%2 == 1 {
			return sweep.Outcome{Err: fmt.Errorf("replica %d failed", r.Replica)}
		}
		return sweep.Outcome{Values: map[string]float64{"v": 1}}
	})
	if len(agg.Errs) != 2 {
		t.Fatalf("errs = %v, want 2", agg.Errs)
	}
	if agg.Values["v"].N != 2 {
		t.Fatalf("value stat over surviving replicas: %+v", agg.Values["v"])
	}
}

// TestForEachCallsEveryIndexOnce covers the worker pool's edges: no
// work, fewer indexes than workers, and the serial path.
func TestForEachCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{0, 1, 3, 16} {
			var mu sync.Mutex
			calls := make([]int, n)
			sweep.ForEach(n, workers, func(i int) {
				mu.Lock()
				calls[i]++
				mu.Unlock()
			})
			for i, c := range calls {
				if c != 1 {
					t.Errorf("n=%d workers=%d: index %d called %d times", n, workers, i, c)
				}
			}
		}
	}
}

// mixedBody reports registries whose name sets differ by replica, with
// a histogram and a per-process counter block in some of them. Replica
// 2 reports no registry, replica 3 fails with one and replica 5 fails
// without.
func mixedBody(r sweep.Run) sweep.Outcome {
	if r.Replica == 5 {
		return sweep.Outcome{Err: fmt.Errorf("replica %d failed", r.Replica)}
	}
	out := sweep.Outcome{Values: map[string]float64{"v": float64(r.Seed % 97)}}
	if r.Replica == 2 {
		return out
	}
	m := obs.NewMetrics()
	m.Counter("all_total").Add(int64(r.Seed % 1000))
	m.Counter(fmt.Sprintf("mod%d_total", r.Replica%3)).Add(int64(r.Replica + 1))
	if r.Replica%2 == 0 {
		m.Histogram("lat").Observe(sim.Duration(r.Seed % 5000))
	}
	set := obs.NewCounterSet("sends_total", "recvs_total")
	m.ProcCounters(set, r.Replica%4).Counter("sends_total").Add(int64(r.Replica))
	out.Metrics = m
	if r.Replica == 3 {
		out.Err = fmt.Errorf("replica %d failed", r.Replica)
	}
	return out
}

// eagerMetrics is the reference for Aggregate.Metrics: the snapshots of
// every replica's registry in replica order (nil for a replica without
// one), one Stat per key, whose series reads 0 in each registry that
// lacks the key.
func eagerMetrics(snaps []map[string]int64) map[string]sweep.Stat {
	keys := map[string]bool{}
	for _, snap := range snaps {
		for k := range snap {
			keys[k] = true
		}
	}
	series := map[string][]float64{}
	for k := range keys {
		for _, snap := range snaps {
			if snap != nil {
				series[k] = append(series[k], float64(snap[k]))
			}
		}
	}
	stats := make(map[string]sweep.Stat, len(series))
	for k, s := range series {
		stats[k] = sweep.Summarize(s)
	}
	return stats
}

// snapshotAside wraps body so that each replica's registry is also
// snapshotted into the returned slice as the body returns it: Fold
// consumes the registries, and the eager reference needs their values.
func snapshotAside(reps int, body func(sweep.Run) sweep.Outcome) ([]map[string]int64, func(sweep.Run) sweep.Outcome) {
	snaps := make([]map[string]int64, reps)
	return snaps, func(r sweep.Run) sweep.Outcome {
		out := body(r)
		snaps[r.Replica] = out.Metrics.Snapshot()
		return out
	}
}

// Metrics built on first read equals the eager per-replica snapshot
// statistics, whatever the parallelism, for replicas with differing
// name sets, no registry, or an error.
func TestAggregateMetricsMatchesEagerSnapshots(t *testing.T) {
	const reps = 8
	snaps, body := snapshotAside(reps, mixedBody)
	serial := oneCell(grid.Spec{Replicas: reps, Parallel: 1, RootSeed: 4}, body)
	wide := oneCell(grid.Spec{Replicas: reps, Parallel: 4, RootSeed: 4}, mixedBody)
	want := eagerMetrics(snaps)
	if got := serial.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Metrics() = %v\nwant eager %v", got, want)
	}
	if got := wide.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Metrics() at Parallel=4 = %v\nwant %v", got, want)
	}
	if len(serial.Errs) != 2 {
		t.Fatalf("errs = %v, want replicas 3 and 5", serial.Errs)
	}
	// Every series skips the registry-less replica 2 and the failed
	// replica 5 only, whether or not the other replicas have its key.
	for _, k := range []string{"all_total", "mod0_total", "lat_count", "sends_total{proc=1}"} {
		if n := want[k].N; n != reps-2 {
			t.Fatalf("%s series has %d samples, want %d", k, n, reps-2)
		}
	}
	if _, ok := want["sends_total{proc=1}"]; !ok {
		t.Fatalf("no stat for the block counter sends_total{proc=1}; have %v", want)
	}
}

// A block counter that counts in one replica of four reads 0 in the
// other three: its series has one value per registry, so the mean is
// the per-replica mean, not the mean over the replicas that counted.
func TestAggregateMetricsReadsMissingKeysAsZero(t *testing.T) {
	set := obs.NewCounterSet("moves_total", "hits_total")
	agg := oneCell(grid.Spec{Replicas: 4, Parallel: 1, RootSeed: 3}, func(r sweep.Run) sweep.Outcome {
		m := obs.NewMetrics()
		b := m.ProcCounters(set, 1)
		b.Counter("hits_total").Inc()
		if r.Replica == 2 {
			b.Counter("moves_total").Add(8)
		}
		return sweep.Outcome{Metrics: m}
	})
	st := agg.Metrics()["moves_total{proc=1}"]
	if st.N != 4 || st.Mean != 2 || st.Min != 0 || st.Max != 8 {
		t.Fatalf("moves_total{proc=1} = %+v, want N=4 Mean=2 Min=0 Max=8", st)
	}
}

// Concurrent first readers share one build and get the same map:
// Metrics is documented as safe for concurrent use.
func TestAggregateMetricsConcurrentReaders(t *testing.T) {
	snaps, body := snapshotAside(6, mixedBody)
	agg := oneCell(grid.Spec{Replicas: 6, Parallel: 2, RootSeed: 9}, body)
	const readers = 8
	got := make([]map[string]sweep.Stat, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = agg.Metrics()
		}(i)
	}
	close(start)
	wg.Wait()
	first := reflect.ValueOf(got[0]).Pointer()
	for i, m := range got {
		if reflect.ValueOf(m).Pointer() != first {
			t.Fatalf("reader %d got a different map", i)
		}
	}
	if !reflect.DeepEqual(got[0], eagerMetrics(snaps)) {
		t.Fatal("concurrently built Metrics differs from the eager reference")
	}
}

// unreadMetricsCeiling is the allocation count of folding 100 replica
// outcomes over prebuilt registries (30 counters, 5 histograms and
// three blocks of a 35-name counter set) whose caller never reads
// Aggregate.Metrics (go1.24, amd64), pinned so that it can only fall.
// All of it is made once: the Aggregate, the pooled registry's
// instruments (its new counters in one slab), the entry lists Merge
// copies each replica's entries into, which the pooled registry keeps
// for the next merge, and the column store that keeps every replica's
// values, sized by the first registry. When Merge made fresh lists for
// every replica, a 100-replica sweep of the same registries took 361
// allocations, and when the sweep snapshotted every registry up front
// to build the per-replica statistics, 4,636, a figure that grows with
// replicas × names. Before the slab and the column store it took 69.
const unreadMetricsCeiling = 51

// TestSweepUnreadMetricsAllocs is the gate that unread per-replica
// statistics cost no allocation per replica or name: the registries
// and outcomes are built outside the measured call, so every
// allocation counted is Fold's own.
func TestSweepUnreadMetricsAllocs(t *testing.T) {
	const reps = 100
	set := obs.NewCounterSet(gateBlockNames()...)
	regs := make([]*obs.Metrics, reps)
	for r := range regs {
		m := obs.NewMetrics()
		for i := 0; i < 30; i++ {
			m.Counter(fmt.Sprintf("counter%02d_total", i)).Add(int64(r + i))
		}
		for i := 0; i < 5; i++ {
			m.Histogram(fmt.Sprintf("hist%d", i)).Observe(sim.Duration(r*1000 + i))
		}
		for p := 0; p < 3; p++ {
			m.ProcCounters(set, p).Counter("block00_total").Add(int64(r))
		}
		regs[r] = m
	}
	// Replica 0's blocks count 0, so only the other replicas name the
	// three counted block counters.
	if n := len(regs[1].Snapshot()); n != 48 {
		t.Fatalf("registry has %d snapshot names, want 48", n)
	}
	outs := make([]sweep.Outcome, reps)
	for r := range outs {
		outs[r] = sweep.Outcome{Metrics: regs[r]}
	}
	// Fold clears the registries in the slice it folds, so every run
	// folds a fresh copy, made into a slice allocated here.
	work := make([]sweep.Outcome, reps)
	allocs := testing.AllocsPerRun(5, func() {
		copy(work, outs)
		sweep.Fold(work)
	})
	if allocs > unreadMetricsCeiling {
		t.Fatalf("100-replica fold with unread metrics: %v allocations, want <= %d", allocs, unreadMetricsCeiling)
	}
}

// gateBlockNames is the 35-name counter set of the allocation gate's
// per-process blocks.
func gateBlockNames() []string {
	names := make([]string, 35)
	for i := range names {
		names[i] = fmt.Sprintf("block%02d_total", i)
	}
	return names
}
