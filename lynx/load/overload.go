package load

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// SweepOptions parameterizes a substrate × offered-rate overload sweep
// (× fault scenario, when Faults is set): one deterministic open-loop
// Run per cell. cmd/lynxload's -rates mode builds its grid here.
type SweepOptions struct {
	// Substrates lists the kernels under load; at least one.
	Substrates []lynx.Substrate
	// Rates lists the offered loads (arrivals per virtual second); all
	// positive, at least one.
	Rates []float64
	// Window is the arrival-generation window (virtual). Default 1s.
	Window lynx.Duration
	// Mix is the traffic mix. Default DefaultMix.
	Mix *Mix
	// Seed is the sweep's root seed. Default 1.
	Seed uint64
	// Faults optionally crosses the sweep with fault scenarios: each
	// plan becomes one value of a third "scenario" grid axis (its
	// canonical string renders the axis value, so it flows into cell
	// keys and Key unchanged). Empty means no scenario axis at all —
	// the sweep enumerates, seeds, and renders exactly as before, byte
	// for byte.
	Faults []*fault.Plan
	// Parallel is the grid worker count; never changes results.
	Parallel int
	// SimWorkers is the in-System parallel worker cap passed to every
	// cell's run (load.Options.SimWorkers); like Parallel it never
	// changes results, so it is EXCLUDED from Key() — a sweep at any
	// SimWorkers must match the same gates as the serial sweep.
	SimWorkers int
	// Gens is the per-cell generator count (load.Options.Gens). Unlike
	// SimWorkers it is a workload parameter — Gens >= 2 changes every
	// cell's arrival schedule — so it IS part of Key(), but only when
	// set above 1: the default keys exactly as before the knob existed.
	Gens int
}

// normalized fills in defaults and validates.
func (o SweepOptions) normalized() (SweepOptions, error) {
	if len(o.Substrates) == 0 {
		return o, fmt.Errorf("load: sweep needs at least one substrate")
	}
	if len(o.Rates) == 0 {
		return o, fmt.Errorf("load: sweep needs at least one rate")
	}
	for _, r := range o.Rates {
		if err := CheckRate(r); err != nil {
			return o, fmt.Errorf("load: %w", err)
		}
	}
	if o.Window < 0 {
		return o, fmt.Errorf("load: negative window %v", o.Window)
	}
	if o.Window == 0 {
		o.Window = lynx.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Mix == nil {
		mix, err := ParseMix(DefaultMix)
		if err != nil {
			panic(err) // DefaultMix always parses
		}
		o.Mix = mix
	}
	for i, p := range o.Faults {
		if p == nil {
			o.Faults[i] = &fault.Plan{} // nil plan = the "none" scenario
		} else if err := p.Validate(); err != nil {
			return o, err
		}
	}
	return o, nil
}

// Key canonicalizes the sweep for the header lynxload prints over its
// table. A sweep without fault scenarios keys
// exactly as it did before the scenario axis existed.
func (o SweepOptions) Key() string {
	o, err := o.normalized()
	if err != nil {
		return "invalid: " + err.Error()
	}
	subs := make([]string, len(o.Substrates))
	for i, s := range o.Substrates {
		subs[i] = s.String()
	}
	rs := make([]string, len(o.Rates))
	for i, r := range o.Rates {
		rs[i] = fmt.Sprintf("%g", r)
	}
	key := fmt.Sprintf("subs=%s rates=%s mix=%s seed=%d window=%s",
		strings.Join(subs, ","), strings.Join(rs, ","), o.Mix, o.Seed,
		time.Duration(o.Window))
	if len(o.Faults) > 0 {
		fs := make([]string, len(o.Faults))
		for i, p := range o.Faults {
			fs[i] = p.String()
		}
		key += " faults=" + strings.Join(fs, "/")
	}
	if o.Gens > 1 {
		key += fmt.Sprintf(" gens=%d", o.Gens)
	}
	return key
}

// SweepSpec builds the substrate × rate (× scenario) grid: each cell is
// one load.Run, seeded by the grid's two-level stream split, so the
// whole table is a pure function of (options, seed) at any Parallel.
// The scenario axis exists only when Faults is non-empty; without it
// the grid's enumeration order and per-cell seeds are unchanged from
// the pre-fault layout.
func SweepSpec(o SweepOptions) (grid.Spec, error) {
	o, err := o.normalized()
	if err != nil {
		return grid.Spec{}, err
	}
	axes := []grid.Axis{
		grid.AxisOf("substrate", o.Substrates...),
		grid.AxisOf("rate", o.Rates...),
	}
	if len(o.Faults) > 0 {
		axes = append(axes, grid.AxisOf("scenario", o.Faults...))
	}
	return grid.Spec{
		Name:     "lynxload overload",
		Axes:     axes,
		Replicas: 1,
		Parallel: o.Parallel,
		RootSeed: o.Seed,
		Body: func(cell grid.Cell, r sweep.Run) sweep.Outcome {
			opts := Options{
				Substrate:  grid.MustAs[lynx.Substrate](cell, "substrate"),
				Rate:       grid.MustAs[float64](cell, "rate"),
				Window:     o.Window,
				Mix:        o.Mix,
				Seed:       r.Seed,
				SimWorkers: o.SimWorkers,
				Gens:       o.Gens,
			}
			if cell.Has("scenario") {
				opts.Faults = grid.MustAs[*fault.Plan](cell, "scenario")
			}
			res, err := Run(opts)
			if err != nil {
				return sweep.Outcome{Err: err}
			}
			return sweep.Outcome{
				Values: map[string]float64{
					"arrivals":       float64(res.Arrivals),
					"completed":      float64(res.Completed),
					"makespan_ms":    float64(res.Makespan) / 1e6,
					"realized":       res.Realized,
					"sojourn_p50_ms": res.Sojourn.P50,
					"sojourn_p95_ms": res.Sojourn.P95,
					"sojourn_p99_ms": res.Sojourn.P99,
				},
				Metrics: res.Metrics,
			}
		},
	}, nil
}

// Row is one (substrate, offered rate[, scenario]) line of an overload
// table — the record lynxload's golden tables pin. All fields are
// virtual-time derived and machine independent. Scenario is the fault
// plan's canonical string, present only on faulted sweeps (rows of an
// unfaulted sweep marshal byte-identically to the pre-fault format).
type Row struct {
	Substrate  string  `json:"substrate"`
	Rate       float64 `json:"rate"`
	Arrivals   int     `json:"arrivals"`
	Completed  int     `json:"completed"`
	MakespanMS float64 `json:"makespan_ms"`
	Realized   float64 `json:"realized"`
	P50MS      float64 `json:"sojourn_p50_ms"`
	P95MS      float64 `json:"sojourn_p95_ms"`
	P99MS      float64 `json:"sojourn_p99_ms"`
	Scenario   string  `json:"scenario,omitempty"`
}

// Rows flattens an overload grid table into Row records in cell
// enumeration order, surfacing the first replica error if any cell
// failed.
func Rows(tbl *grid.Table) ([]Row, error) {
	if tbl.Errs() > 0 {
		for _, cr := range tbl.Cells {
			if len(cr.Agg.Errs) > 0 {
				return nil, fmt.Errorf("%s: %v", cr.Cell.Key(), cr.Agg.Errs[0])
			}
		}
	}
	rows := make([]Row, len(tbl.Cells))
	for i, cr := range tbl.Cells {
		v := cr.Agg.Values
		rows[i] = Row{
			Substrate:  grid.MustAs[lynx.Substrate](cr.Cell, "substrate").String(),
			Rate:       grid.MustAs[float64](cr.Cell, "rate"),
			Arrivals:   int(v["arrivals"].Mean),
			Completed:  int(v["completed"].Mean),
			MakespanMS: v["makespan_ms"].Mean,
			Realized:   v["realized"].Mean,
			P50MS:      v["sojourn_p50_ms"].Mean,
			P95MS:      v["sojourn_p95_ms"].Mean,
			P99MS:      v["sojourn_p99_ms"].Mean,
		}
		if cr.Cell.Has("scenario") {
			rows[i].Scenario = grid.MustAs[*fault.Plan](cr.Cell, "scenario").String()
		}
	}
	if err := CheckShape(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// CheckShape asserts the physics every overload table must satisfy
// before it is recorded or gated: open-loop runs drain completely and
// realized throughput is no more than the offered load could produce
// (the engine measures, it does not invent work; see exceedsOffered).
// Rows under a churn scenario — a plan that crashes or restarts
// processes — are exempt from the full drain requirement (killed units
// never report), but completions can still never exceed arrivals.
func CheckShape(rows []Row) error {
	for _, r := range rows {
		churns := false
		if r.Scenario != "" {
			if p, err := fault.Parse(r.Scenario); err == nil {
				churns = p.Churns()
			}
		}
		switch {
		case r.Completed > r.Arrivals:
			return fmt.Errorf("%s rate %g: %d completed exceeds %d arrivals",
				r.Substrate, r.Rate, r.Completed, r.Arrivals)
		case !churns && r.Completed != r.Arrivals:
			return fmt.Errorf("%s rate %g: %d of %d units completed",
				r.Substrate, r.Rate, r.Completed, r.Arrivals)
		case exceedsOffered(r.Rate, r.Realized, r.Completed):
			return fmt.Errorf("%s rate %g: realized %g exceeds offered",
				r.Substrate, r.Rate, r.Realized)
		}
	}
	return nil
}

// shapeAlpha is the chance below which exceedsOffered takes a count of
// completions to be more than the offered load produced.
const shapeAlpha = 1e-6

// exceedsOffered reports whether completed units, realized per virtual
// second, are more than Poisson arrivals at rate could have put out:
// whether a Poisson count with mean rate × makespan reaches completed
// with probability below shapeAlpha. The makespan is completed/realized.
// Every completed unit arrived before it completed, so within the
// makespan, and arrivals are Poisson at the offered rate (several
// generators' streams superpose into one), so no honest run fails the
// test but once in 1/shapeAlpha. A fixed ratio cannot do this: a short
// run of a dozen arrivals can realize 1.5× its rate by chance, while a
// run of thousands cannot come near it.
func exceedsOffered(rate, realized float64, completed int) bool {
	if completed == 0 || realized <= 0 {
		return false
	}
	return poissonTail(rate*float64(completed)/realized, completed) < shapeAlpha
}

// poissonTail returns P(X >= k) for X Poisson with mean mu, summing the
// terms from k up until they no longer change the sum. At or below the
// mean it returns 1 without summing: such a count is never surprising.
func poissonTail(mu float64, k int) float64 {
	if float64(k) <= mu {
		return 1
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	term := math.Exp(float64(k)*math.Log(mu) - mu - lg)
	sum := 0.0
	for i := k; term > sum*1e-17; i++ {
		sum += term
		term *= mu / float64(i+1)
	}
	return sum
}
