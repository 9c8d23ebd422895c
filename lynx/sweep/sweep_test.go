package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/lynx"
)

// echoBody is a real whole-system replica: one RPC echo pair on the
// Chrysalis substrate, measuring the round trip and reporting the run's
// metric registry.
func echoBody(r Run) Outcome {
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
	return Outcome{
		Values:  map[string]float64{"rtt_ms": rtt.Milliseconds()},
		Metrics: sys.Metrics(),
		Err:     err,
	}
}

// The determinism contract: the aggregate must be byte-identical for
// Parallel=1 and Parallel=8 at the same root seed, replicas included.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	const reps = 12
	serial := Sweep(Options{Replicas: reps, Parallel: 1, RootSeed: 99}, echoBody)
	wide := Sweep(Options{Replicas: reps, Parallel: 8, RootSeed: 99}, echoBody)
	if s, w := serial.Render(), wide.Render(); s != w {
		t.Fatalf("aggregate differs between Parallel=1 and Parallel=8:\n--- serial\n%s\n--- parallel\n%s", s, w)
	}
	for i := range serial.Outcomes {
		if serial.Outcomes[i].Values["rtt_ms"] != wide.Outcomes[i].Values["rtt_ms"] {
			t.Fatalf("replica %d rtt differs across parallelism", i)
		}
	}
	if len(serial.Errs) != 0 {
		t.Fatalf("replica errors: %v", serial.Errs)
	}
}

// Replica seeds are pure functions of (root, index): a sweep at R=4
// must agree with the prefix of a sweep at R=8.
func TestSweepSeedsStableAcrossReplicaCount(t *testing.T) {
	seeds := func(r int) []uint64 {
		var got []uint64
		Sweep(Options{Replicas: r, Parallel: 1, RootSeed: 5}, func(run Run) Outcome {
			got = append(got, run.Seed)
			return Outcome{}
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
	agg := Sweep(Options{Replicas: reps, Parallel: 4, RootSeed: 3}, echoBody)
	// The echo exchange is structurally identical in every replica, so
	// the per-replica dual-queue enqueue count is a constant series and
	// the pooled counter is exactly reps times it.
	st, ok := agg.Metrics["queue_enqueues_total"]
	if !ok {
		t.Fatalf("no per-replica stat for queue_enqueues_total; have %d metric stats", len(agg.Metrics))
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
	st := Summarize([]float64{4, 1, 3, 2, 5})
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
	if got := Summarize(nil); got != (Stat{}) {
		t.Fatalf("empty series: %+v", got)
	}
	if got := Summarize([]float64{7}); got.CI95 != 0 || got.Mean != 7 {
		t.Fatalf("singleton series: %+v", got)
	}
}

// The Seeds hook overrides seed derivation per replica; CellSeed is the
// grid runner's two-level split, stable across worker scheduling.
func TestSweepSeedsHook(t *testing.T) {
	const root, cell = uint64(11), 3
	var got []uint64
	Sweep(Options{Replicas: 4, Parallel: 1, Seeds: func(k int) uint64 {
		return CellSeed(root, cell, k)
	}}, func(r Run) Outcome {
		got = append(got, r.Seed)
		return Outcome{}
	})
	for k, s := range got {
		if want := CellSeed(root, cell, k); s != want {
			t.Fatalf("replica %d seed = %#x, want CellSeed %#x", k, s, want)
		}
	}
	// The hook must also feed the parallel path identically.
	wide := Sweep(Options{Replicas: 4, Parallel: 4, Seeds: func(k int) uint64 {
		return CellSeed(root, cell, k)
	}}, func(r Run) Outcome {
		return Outcome{Values: map[string]float64{"seed": float64(r.Seed % 1000)}}
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
	agg := Sweep(Options{Replicas: 1, Parallel: 1, RootSeed: 2}, echoBody)
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
	if strings.Contains(agg.Render(), "NaN") {
		t.Fatalf("aggregate render contains NaN:\n%s", agg.Render())
	}
	// Two replicas DO have a CI and render it numerically.
	if s := Summarize([]float64{1, 2}).String(); strings.Contains(s, "n/a") {
		t.Fatalf("two-sample stat should render a numeric CI, got %q", s)
	}
}

// Failed replicas surface in Errs but do not poison aggregation.
func TestSweepCollectsErrors(t *testing.T) {
	agg := Sweep(Options{Replicas: 4, Parallel: 2}, func(r Run) Outcome {
		if r.Replica%2 == 1 {
			return Outcome{Err: fmt.Errorf("replica %d failed", r.Replica)}
		}
		return Outcome{Values: map[string]float64{"v": 1}}
	})
	if len(agg.Errs) != 2 {
		t.Fatalf("errs = %v, want 2", agg.Errs)
	}
	if agg.Values["v"].N != 2 {
		t.Fatalf("value stat over surviving replicas: %+v", agg.Values["v"])
	}
}

// Progress fires once per replica with a monotonic completed count and
// never perturbs the aggregate (observation only).
func TestSweepProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	agg := Sweep(Options{Replicas: 8, Parallel: 4, Progress: func(completed, total int) {
		if total != 8 {
			t.Errorf("total = %d, want 8", total)
		}
		mu.Lock()
		seen = append(seen, completed)
		mu.Unlock()
	}}, func(r Run) Outcome {
		return Outcome{Values: map[string]float64{"seed": float64(r.Seed % 1000)}}
	})
	if len(seen) != 8 {
		t.Fatalf("progress called %d times, want 8", len(seen))
	}
	sort.Ints(seen)
	for i, c := range seen {
		if c != i+1 {
			t.Fatalf("completed counts = %v, want a permutation of 1..8", seen)
		}
	}
	want := Sweep(Options{Replicas: 8, Parallel: 1}, func(r Run) Outcome {
		return Outcome{Values: map[string]float64{"seed": float64(r.Seed % 1000)}}
	})
	if agg.Values["seed"] != want.Values["seed"] {
		t.Fatal("progress callback changed the aggregate")
	}
}

// TestForEachCallsEveryIndexOnce covers the worker pool's edges: no
// work, fewer indexes than workers, and the serial path.
func TestForEachCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{0, 1, 3, 16} {
			var mu sync.Mutex
			calls := make([]int, n)
			ForEach(n, workers, func(i int) {
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
