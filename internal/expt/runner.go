package expt

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/lynx/sweep"
)

// Options parameterizes a harness run: how many worker goroutines fan
// the experiments out, and how many replicas each replicable
// experiment runs. The zero value is GOMAXPROCS workers, one replica
// (the canonical paper seeds), root seed 1.
type Options struct {
	// Parallel is the worker goroutine count. Default GOMAXPROCS.
	Parallel int
	// Reps is R, the replicas per replicable experiment. Default 1.
	// Replica 0 always runs the canonical paper seeds; further
	// replicas derive their seeds from RootSeed by stream splitting,
	// so aggregated output is identical for any Parallel.
	Reps int
	// RootSeed seeds replicas 1..R-1. Default 1.
	RootSeed uint64
}

// shapeThreshold is the replication tolerance policy: an aggregated
// result passes when at least this fraction of its replicas match the
// paper's shape. Stochastic SODA experiments (broadcast loss, backoff
// jitter) can legitimately miss the shape at exotic seeds, so it is 0.8
// rather than the strict all-replicas AND.
const shapeThreshold = 0.8

// normalized fills in defaults.
func (o Options) normalized() Options {
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.RootSeed == 0 {
		o.RootSeed = 1
	}
	return o
}

// Experiment is one catalogued entry of the harness.
type Experiment struct {
	ID, Title string
	// Replicable marks experiments whose measurements depend on the
	// seed; non-replicable ones (code-size scans) always run once.
	Replicable bool
	run        func(seed uint64) *Result
}

// catalog lists every experiment in run order.
var catalog = []Experiment{
	{"E1", "Charlotte simple remote operation latency (§3.3)", true, e1},
	{"E2", "Charlotte link-enclosure protocol (figure 2)", true, e2},
	{"E3", "SODA vs Charlotte latency sweep and crossover (§4.3)", true, e3},
	{"E4", "Chrysalis simple remote operation latency (§5.3)", true, e4},
	{"E5", "Run-time package size and special-case inventory", false, func(uint64) *Result { return e5() }},
	{"E6", "Link moving at both ends simultaneously (figure 1)", true, e6},
	{"E7", "Unwanted messages and NAK traffic (§6 claim 2)", true, e7},
	{"E8", "Fate of enclosures in aborted messages (§3.2.2)", true, e8},
	{"E9", "Chrysalis tuning ablation (§5.3)", true, e9},
	{"E10", "SODA hint repair: cache → discover → freeze (§4.2)", true, e10},
	{"E11", "Queue fairness under saturation (§2.1)", true, e11},
	{"E12", "EXT: per-pair request limits under many links (§4.2.1)", true, e12},
	{"E13", "EXT: discover success vs broadcast loss (§4.2)", true, e13},
}

// Catalog returns the experiment inventory (copy; run order).
func Catalog() []Experiment {
	out := make([]Experiment, len(catalog))
	copy(out, catalog)
	return out
}

// replicaSeed derives the seed handed to replica rep of experiment
// exp. Replica 0 is the canonical single-shot run (seed 0 keeps the
// legacy per-system seeds); later replicas double-split the root so
// every (experiment, replica) pair draws an independent stream.
func replicaSeed(root uint64, exp, rep int) uint64 {
	if rep == 0 {
		return 0
	}
	return sim.StreamSeed(sim.StreamSeed(root, uint64(exp)), uint64(rep))
}

// AllWith runs the full catalog under the given options. Every
// (experiment, replica) pair is an independent job fanned across the
// worker pool; results are assembled and aggregated in catalog order,
// so the output is byte-identical for any Parallel at a fixed
// (Reps, RootSeed).
func AllWith(o Options) []*Result {
	o = o.normalized()
	return runJobs(o, catalog)
}

// Lookup resolves an experiment id ("E1".."E13", any case) without
// running the experiment, and reports false if the id is unknown.
func Lookup(id string) (Experiment, bool) {
	for _, e := range catalog {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// ByIDWith is AllWith for a single experiment id ("E1".."E13"); nil if
// unknown.
func ByIDWith(id string, o Options) *Result {
	e, ok := Lookup(id)
	if !ok {
		return nil
	}
	return runJobs(o.normalized(), []Experiment{e})[0]
}

// runJobs fans (experiment, replica) jobs across o.Parallel workers
// and aggregates each experiment's replicas into one Result.
func runJobs(o Options, exps []Experiment) []*Result {
	type job struct{ exp, rep int }
	reps := func(e Experiment) int {
		if !e.Replicable {
			return 1
		}
		return o.Reps
	}
	perExp := make([][]*Result, len(exps))
	var jobs []job
	for i, e := range exps {
		perExp[i] = make([]*Result, reps(e))
		for r := range perExp[i] {
			jobs = append(jobs, job{i, r})
		}
	}
	sweep.ForEach(len(jobs), o.Parallel, func(i int) {
		j := jobs[i]
		perExp[j.exp][j.rep] = exps[j.exp].run(replicaSeed(o.RootSeed, j.exp, j.rep))
	})
	out := make([]*Result, len(exps))
	for i := range exps {
		out[i] = aggregateResults(perExp[i], o)
	}
	return out
}

// aggregateResults folds R replica results into one: cell-wise table
// aggregation (identical cells kept, numeric cells replaced by
// "mean ±ci", anything else marked varying), Pass under the
// replication tolerance policy (at least shapeThreshold of the
// replicas match the paper's shape), and metric snapshots averaged per
// key. With one replica the result passes through untouched.
func aggregateResults(rs []*Result, o Options) *Result {
	if len(rs) == 1 {
		return rs[0]
	}
	agg := &Result{
		ID:       rs[0].ID,
		Title:    rs[0].Title,
		Columns:  rs[0].Columns,
		Notes:    rs[0].Notes,
		Replicas: len(rs),
		RootSeed: o.RootSeed,
	}
	passes := 0
	for _, r := range rs {
		if r.Pass {
			passes++
		}
	}
	agg.Pass = float64(passes) >= shapeThreshold*float64(len(rs))-1e-9
	for row := range rs[0].Rows {
		cells := make([]string, len(rs[0].Rows[row]))
		for col := range cells {
			series := make([]string, len(rs))
			ok := true
			for i, r := range rs {
				if row >= len(r.Rows) || col >= len(r.Rows[row]) {
					ok = false
					break
				}
				series[i] = r.Rows[row][col]
			}
			if !ok {
				cells[col] = "(varies)"
				continue
			}
			cells[col] = aggregateCell(series)
		}
		agg.Rows = append(agg.Rows, cells)
	}
	agg.Metrics = aggregateMetrics(rs)
	agg.Notes = append(agg.Notes, fmt.Sprintf(
		"replication: R=%d (replica 0 = canonical seeds, rest from root seed %d); shape pass %d/%d (threshold %.2f); varying cells shown as mean ±1.96·sd/√R",
		len(rs), o.RootSeed, passes, len(rs), shapeThreshold))
	return agg
}

// aggregateCell folds one table cell's per-replica values: identical
// strings pass through, numeric strings become "mean ±ci" (preserving
// the inputs' decimal precision), and anything else is marked.
func aggregateCell(series []string) string {
	allEqual := true
	for _, s := range series[1:] {
		if s != series[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		return series[0]
	}
	vals := make([]float64, len(series))
	decimals := 0
	for i, s := range series {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return "(varies)"
		}
		vals[i] = v
		if dot := strings.IndexByte(s, '.'); dot >= 0 && len(s)-dot-1 > decimals {
			decimals = len(s) - dot - 1
		}
	}
	st := sweep.Summarize(vals)
	if decimals == 0 && st.CI95 != math.Trunc(st.CI95) {
		decimals = 1
	}
	return fmt.Sprintf("%.*f ±%.*f", decimals, st.Mean, decimals, st.CI95)
}

// aggregateMetrics averages each metric key over the replicas that
// carry it, keeping the values comparable to a single-shot run.
func aggregateMetrics(rs []*Result) map[string]int64 {
	sums := map[string]int64{}
	counts := map[string]int64{}
	for _, r := range rs {
		for k, v := range r.Metrics {
			sums[k] += v
			counts[k]++
		}
	}
	if len(sums) == 0 {
		return nil
	}
	out := make(map[string]int64, len(sums))
	for k, s := range sums {
		out[k] = s / counts[k]
	}
	return out
}
