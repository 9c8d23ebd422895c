// Command lynxload is the thin CLI over the lynx/load engine and the
// lynx/grid runner. It measures the three kernel bindings under load in
// virtual time: the open-loop load.Run engine injects Poisson arrivals
// of echo/pipeline/mesh work units INSIDE one simulated System per
// (substrate, rate) cell, sweeping offered rates that cross saturation
// (-rates R1,R2,...). Offered rate vs realized throughput and
// p50/p95/p99 virtual-time sojourn land in a pivoted matrix; with
// -faults every scenario is crossed with the sweep and reported one
// line per cell. Every number is a pure function of the seed: a table
// is byte-identical on any machine at any -parallel, and the default
// overload and faults tables are pinned as goldens under testdata.
// -rate runs one open-loop System in full detail instead.
//
// The sweep itself lives in lynx/load (SweepSpec/Rows/Key), shared with
// the lynxd daemon, so a daemon job and a CLI run of the same options
// produce byte-identical tables. -json prints exactly that table (the
// grid's JSONL rendering) to stdout and nothing else.
//
// Host-time throughput is measured by the benchmark under bench/, not
// here.
//
// Examples:
//
//	lynxload                        # default overload sweep, 3 substrates x 4 rates
//	lynxload -rate 300 -window 2s   # one open-loop virtual-time run
//	lynxload -rates 10,100,1000 -substrates soda
//	lynxload -faults default -rates 40 -window 250ms   # every fault scenario
//	lynxload -rates 30,60 -substrates charlotte -json   # machine-readable table
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/load"
)

// defaultRates sweeps from inside every substrate's capacity to well
// past SODA's and Charlotte's saturation points.
const defaultRates = "5,20,80,320"

// parseRates parses the -rates list; every entry must be a positive
// number of arrivals per virtual second.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		if r <= 0 {
			return nil, fmt.Errorf("rate must be positive, got %g", r)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rates")
	}
	return out, nil
}

// parseFaults parses the -faults list: "/"-separated fault scenarios,
// each a registered name (drop10, part-heal, ...) or an inline plan
// string; "default" expands to every registered scenario.
func parseFaults(s string) ([]*fault.Plan, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []*fault.Plan
	for _, part := range strings.Split(s, "/") {
		part = strings.TrimSpace(part)
		if part == "default" {
			out = append(out, defaultScenarios()...)
			continue
		}
		p, err := fault.ParseScenario(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// defaultScenarios resolves the registered scenario set, in registry
// order.
func defaultScenarios() []*fault.Plan {
	names := fault.ScenarioNames()
	plans := make([]*fault.Plan, len(names))
	for i, name := range names {
		p, err := fault.ParseScenario(name)
		if err != nil {
			panic(err) // registered scenarios always parse
		}
		plans[i] = p
	}
	return plans
}

// loadConfig is the resolved workload configuration.
type loadConfig struct {
	subs       []lynx.Substrate
	mix        *load.Mix
	parallel   int
	simWorkers int // in-System parallel worker cap; never changes results
	gens       int // load-generator processes per run; >1 changes the workload
	seed       uint64
	rate       float64 // -rate: one open-loop run instead of the sweep
	rates      []float64
	window     lynx.Duration
	faults     []*fault.Plan
	json       bool
}

// parseArgs resolves the command line; an error is a usage error.
func parseArgs(args []string) (loadConfig, error) {
	fs := flag.NewFlagSet("lynxload", flag.ExitOnError)
	var (
		substrates = fs.String("substrates", "charlotte,soda,chrysalis", "comma-separated substrate list")
		mixFlag    = fs.String("mix", load.DefaultMix, "traffic mix, kind=weight pairs")
		parallel   = fs.Int("parallel", 0, "worker goroutines (default GOMAXPROCS); never changes results")
		simWorkers = fs.Int("simworkers", 1, "in-System parallel worker cap (lynx.Config.SimWorkers); never changes results")
		gens       = fs.Int("gens", 1, "load-generator processes per run; >=2 partitions the run (workload parameter: changes arrival schedules)")
		seed       = fs.Uint64("seed", 1, "root seed (workload shape and System seeds)")
		rate       = fs.Float64("rate", 0, "single open-loop virtual-time run at this rate (first -substrates entry)")
		rates      = fs.String("rates", defaultRates, "overload sweep: offered rates, arrivals per virtual second")
		window     = fs.Duration("window", time.Second, "open-loop arrival window (virtual time)")
		faults     = fs.String("faults", "", "fault scenarios crossed with the sweep: '/'-separated names or inline plans; 'default' = all registered")
		jsonOut    = fs.Bool("json", false, "print the overload sweep's grid table as JSONL to stdout and exit")
	)
	fs.Parse(args)

	c := loadConfig{parallel: *parallel, simWorkers: *simWorkers, gens: *gens,
		seed: *seed, rate: *rate, window: lynx.Duration(*window), json: *jsonOut}
	var err error
	if c.subs, err = lynx.ParseSubstrates(*substrates); err != nil {
		return c, err
	}
	if c.mix, err = load.ParseMix(*mixFlag); err != nil {
		return c, err
	}
	if c.rates, err = parseRates(*rates); err != nil {
		return c, fmt.Errorf("-rates: %w", err)
	}
	if c.window <= 0 {
		return c, fmt.Errorf("-window must be positive")
	}
	if c.faults, err = parseFaults(*faults); err != nil {
		return c, fmt.Errorf("-faults: %w", err)
	}
	return c, nil
}

// sweepOptions maps the config onto the shared overload-sweep engine.
func (c loadConfig) sweepOptions() load.SweepOptions {
	return load.SweepOptions{
		Substrates: c.subs,
		Rates:      c.rates,
		Window:     c.window,
		Mix:        c.mix,
		Seed:       c.seed,
		Parallel:   c.parallel,
		SimWorkers: c.simWorkers,
		Gens:       c.gens,
		Faults:     c.faults,
	}
}

// runOverload executes the shared sweep and flattens the grid into
// table rows in enumeration order.
func runOverload(o load.SweepOptions) ([]load.Row, *grid.Table, error) {
	spec, err := load.SweepSpec(o)
	if err != nil {
		return nil, nil, err
	}
	tbl := grid.Run(spec)
	rows, err := load.Rows(tbl)
	if err != nil {
		return nil, tbl, err
	}
	if err := load.CheckShape(rows); err != nil {
		return nil, tbl, err
	}
	return rows, tbl, nil
}

// runSingle is the -rate mode: one open-loop virtual run, full detail.
func runSingle(c loadConfig, rate float64) (*load.Result, error) {
	return load.Run(load.Options{
		Substrate:  c.subs[0],
		Rate:       rate,
		Window:     c.window,
		Mix:        c.mix,
		Seed:       c.seed,
		SimWorkers: c.simWorkers,
		Gens:       c.gens,
	})
}

// reportFaults prints an overload-under-faults table: one line per
// (substrate, rate, scenario), completion against arrivals plus
// realized throughput and tail sojourn.
func reportFaults(rows []load.Row) {
	for _, r := range rows {
		fmt.Printf("  %-10s %6g/s %-36s completed %3d/%-3d realized %7.2f/s p95 %8.3fms\n",
			r.Substrate, r.Rate, r.Scenario, r.Completed, r.Arrivals, r.Realized, r.P95MS)
	}
}

// reportSingle prints one -rate run in full.
func reportSingle(sub lynx.Substrate, res *load.Result) {
	fmt.Printf("lynxload: %v open-loop rate %g/s window %s\n",
		sub, res.Offered, time.Duration(res.Window))
	fmt.Printf("  arrivals %d completed %d makespan %s realized %.2f/s\n",
		res.Arrivals, res.Completed, time.Duration(res.Makespan), res.Realized)
	fmt.Printf("  sojourn ms: p50 %.3f p95 %.3f p99 %.3f max %.3f\n",
		res.Sojourn.P50, res.Sojourn.P95, res.Sojourn.P99, res.Sojourn.Max)
	kinds := make([]string, 0, len(res.ByKind))
	for k := range res.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := res.ByKind[k]
		fmt.Printf("  %-10s n=%-5d sojourn ms: p50 %.3f p95 %.3f p99 %.3f\n",
			k, s.N, s.P50, s.P95, s.P99)
	}
}

func main() {
	c, err := parseArgs(os.Args[1:])
	cli.CheckUsage("lynxload", err)

	if c.rate != 0 && !c.json {
		res, err := runSingle(c, c.rate)
		cli.Check("lynxload", err)
		reportSingle(c.subs[0], res)
		return
	}

	rows, tbl, err := runOverload(c.sweepOptions())
	cli.Check("lynxload", err)
	if c.json {
		// Machine-readable mode: exactly the grid's JSONL table, the
		// byte-level contract shared with a lynxd job of the same spec.
		fmt.Print(tbl.RenderJSONL())
		return
	}
	fmt.Printf("overload sweep: %s\n", c.sweepOptions().Key())
	if len(c.faults) > 0 {
		reportFaults(rows)
		return
	}
	fmt.Print(tbl.RenderMatrix("substrate", "rate",
		"realized", "sojourn_p50_ms", "sojourn_p95_ms", "sojourn_p99_ms"))
}
