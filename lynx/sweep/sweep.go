// Package sweep holds the replica plumbing of the deterministic
// parallel run harness: the Run a replica body receives, the Outcome it
// reports, the stream-split seeds, the worker pool (ForEach), and the
// fold of replica outcomes into per-metric means, percentiles and
// confidence intervals (Fold). lynx/grid fans a configuration grid's
// cells and replicas out through it.
//
// Each lynx.System is single-threaded by construction (the simulation
// kernel hands one token among its procs), but distinct Systems share
// no mutable state, so whole runs are embarrassingly parallel. Replica
// k of grid cell c receives the seed CellSeed(root, c, k), a stateless
// splitmix64 stream split, so its run is a pure function of
// (root, c, k) no matter which worker executes it or in what order,
// and Fold assembles outcomes in replica order. Consequently the
// output is bit-identical at any worker count: parallelism changes
// wall-clock time and nothing else.
//
// Typical use, through lynx/grid:
//
//	t := grid.Run(grid.Spec{Replicas: 32, RootSeed: 7,
//	    Body: func(_ grid.Cell, r sweep.Run) sweep.Outcome {
//	        sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Chrysalis, Seed: r.Seed})
//	        ... spawn processes, sys.Run() ...
//	        return sweep.Outcome{
//	            Values:  map[string]float64{"rtt_ms": rtt.Milliseconds()},
//	            Metrics: sys.Metrics(),
//	        }
//	    }})
//	st := t.Cells[0].Agg.Values["rtt_ms"] // Mean, P50/P95/P99, CI95 over 32 replicas
//
// Fold builds Values and the pooled Merged registry at once, and
// consumes the replicas' registries: it keeps each one's values in a
// per-cell column store (obs.Columns) and clears Outcome.Metrics, so a
// folded replica's registry is garbage as soon as its cell has folded.
// The per-replica metric statistics (Aggregate.Metrics) are built from
// the column store the first time a caller asks for them, so a caller
// that reads only Values, Merged or Outcomes never pays to name and
// summarize every replica's instruments. A body's registry is read only
// during Fold, and must not change once the body has returned.
package sweep

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// CellSeed derives the seed of replica rep of grid cell c under root: a
// two-level stateless stream split, so the seed depends only on
// (root, cell, replica) and never on worker scheduling.
func CellSeed(root uint64, cell, rep int) uint64 {
	return sim.StreamSeed2(root, uint64(cell), uint64(rep))
}

// Run identifies one replica: its index and its derived seed. The body
// function must derive ALL randomness from Seed (typically by passing
// it as lynx.Config.Seed) for the determinism contract to hold.
type Run struct {
	Replica int
	Seed    uint64
}

// Outcome is one replica's report: named scalar measurements, an
// optional metric registry, and an error if the run failed. A failed
// replica's Values/Metrics are still aggregated if present.
//
// Metrics is read only during Fold, which merges it, records its
// values and then sets it to nil, so nothing may change the registry
// once the body has returned, and a folded Outcome holds no registry.
type Outcome struct {
	Values  map[string]float64
	Metrics *obs.Metrics
	Err     error
}

// Stat summarizes one named series across replicas: mean, nearest-rank
// percentiles, extrema, and the half-width of the normal-approximation
// 95% confidence interval on the mean (zero when N < 2).
type Stat struct {
	N             int
	Mean          float64
	P50, P95, P99 float64
	Min, Max      float64
	CI95          float64
}

// Aggregate is the combined result of one cell's replicas. Its
// per-replica metric statistics are built on first use (see Metrics)
// from the values Fold recorded; Fold fills every other field.
type Aggregate struct {
	// Values holds a Stat per Outcome.Values key.
	Values map[string]Stat
	// Merged pools every replica's registry: counter sums, histogram
	// bucket merges. Quantiles of pooled histograms come from
	// Merged.Histogram(name).Quantile.
	Merged *obs.Metrics
	// Outcomes lists each replica's report in replica order, with its
	// Metrics cleared by Fold.
	Outcomes []Outcome
	// Errs collects the non-nil replica errors (replica order).
	Errs []error

	metricsOnce sync.Once
	// cols holds every registry's values until Metrics summarizes them.
	cols    *obs.Columns
	metrics map[string]Stat
}

// Metrics returns a Stat per metric-snapshot key (counters under their
// names, histograms as name_count/name_sum_ns/name_max_ns), each series
// holding that key's value in every replica that reported a registry,
// in replica order. A key missing from such a registry reads 0 there: a
// per-process counter that never counted has no snapshot key, nor has a
// counter created on first use that was never used, and leaving those
// replicas out would average over the nonzero ones only. Replicas with
// no registry stay out of every series. The map is built from the
// values Fold recorded on the first call, which then drops them, and is
// shared by every later call, so callers must not modify it. Safe for
// concurrent use.
func (a *Aggregate) Metrics() map[string]Stat {
	a.metricsOnce.Do(func() {
		series := a.cols.Series()
		a.metrics = make(map[string]Stat, len(series))
		var buf []float64
		for k, s := range series {
			buf = buf[:0]
			for _, v := range s {
				buf = append(buf, float64(v))
			}
			a.metrics[k] = Summarize(buf)
		}
		a.cols = nil
	})
	return a.metrics
}

// ForEach calls fn(i) for every i in [0, n) on up to workers goroutines
// (on the caller's goroutine when workers <= 1) and returns once every
// call has returned. Indexes are handed out in increasing order; fn must
// be safe to call concurrently when workers > 1.
func ForEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Fold folds replica outcomes, given in replica order, into their
// Aggregate, in that order so that every derived number is independent
// of scheduling. It consumes the registries: each is merged into Merged,
// its values are recorded for Metrics, and its Outcome.Metrics is set
// to nil in outcomes, which the Aggregate keeps as its Outcomes.
func Fold(outcomes []Outcome) *Aggregate {
	a := &Aggregate{
		Values:   map[string]Stat{},
		Merged:   obs.NewMetrics(),
		Outcomes: outcomes,
		cols:     obs.NewColumns(len(outcomes)),
	}
	valueSeries := map[string][]float64{}
	for i := range outcomes {
		out := &outcomes[i]
		if out.Err != nil {
			a.Errs = append(a.Errs, out.Err)
		}
		for k, v := range out.Values {
			valueSeries[k] = append(valueSeries[k], v)
		}
		a.Merged.Merge(out.Metrics)
		a.cols.Record(out.Metrics)
		out.Metrics = nil
	}
	for k, s := range valueSeries {
		a.Values[k] = Summarize(s)
	}
	return a
}

// Summarize computes the Stat of one series. The series is not
// modified; percentiles are nearest-rank on a sorted copy.
func Summarize(series []float64) Stat {
	n := len(series)
	if n == 0 {
		return Stat{}
	}
	sorted := make([]float64, n)
	copy(sorted, series)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(n)
	st := Stat{
		N:    n,
		Mean: mean,
		Min:  sorted[0],
		Max:  sorted[n-1],
		P50:  rank(sorted, 0.50),
		P95:  rank(sorted, 0.95),
		P99:  rank(sorted, 0.99),
	}
	if n >= 2 {
		var ss float64
		for _, v := range sorted {
			d := v - mean
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(n-1))
		st.CI95 = 1.96 * sd / math.Sqrt(float64(n))
	}
	return st
}

// rank returns the nearest-rank q-quantile of a sorted series.
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// String renders a Stat as "mean ±ci [p50 p95 p99]" with three
// significant decimals — the format experiment tables embed. A series
// of fewer than two samples has no confidence interval, so its CI
// renders as "n/a" rather than a spuriously certain ±0.000.
func (s Stat) String() string {
	ci := "n/a"
	if s.N >= 2 {
		ci = fmt.Sprintf("%.3f", s.CI95)
	}
	return fmt.Sprintf("%.3f ±%s [p50 %.3f, p95 %.3f, p99 %.3f]",
		s.Mean, ci, s.P50, s.P95, s.P99)
}
