// Package load is the virtual-time load engine: an open-loop arrival
// process that runs INSIDE one simulated System, so queueing and
// saturation are measured in virtual time and every number is a pure
// function of the seed.
//
// A generator simproc draws exponential interarrival gaps from a
// private seeded stream (sim.ArrivalStream), sleeps until each arrival
// instant, and LaunchGroup-es a multi-process work unit — an echo pair,
// a three-stage pipeline, or a four-peer mesh — into the running
// System. Arrivals never wait for completions (open loop), so offered
// load beyond the substrate's capacity builds a real queue: work units
// contend for the same simulated kernels and network as every other
// process, and their arrival-to-completion sojourn, recorded in virtual
// time into obs histograms, grows without bound past saturation.
//
// Contrast with wall-clock load generation (the benchmark's systems-mix
// workload under bench/, short Systems through grid.Run): there the
// host CPU is the resource under test and numbers vary run to run;
// here the simulated machine is, and the same seed yields
// byte-identical overload tables at any parallelism on any host. That is what turns capacity and backpressure claims about
// the three kernel bindings into pinned artifacts.
//
// Typical use:
//
//	res, err := load.Run(load.Options{
//	    Substrate: lynx.Charlotte,
//	    Rate:      400,              // arrivals per virtual second
//	    Window:    2 * lynx.Second,  // generation window (virtual)
//	    Seed:      1,
//	})
//	fmt.Println(res.Realized, res.Sojourn.P99) // deterministic
package load

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sim"
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/sweep"
)

// Metric names the engine records into the System's obs registry.
const (
	// MSojournNs is the per-unit virtual-time sojourn histogram
	// (arrival instant → completion report); per-kind variants are
	// filed under MSojournNs + "{kind=<kind>}".
	MSojournNs = "load_sojourn_ns"
	// MArrivals counts launched work units; per-kind variants are
	// filed under MArrivals + "{kind=<kind>}".
	MArrivals = "load_arrivals_total"
	// MCompleted counts work units that reported completion.
	MCompleted = "load_completed_total"
)

// KindKey derives the per-kind variant of an engine metric name, e.g.
// KindKey(MSojournNs, "echo") = "load_sojourn_ns{kind=echo}".
func KindKey(name, kind string) string {
	return fmt.Sprintf("%s{kind=%s}", name, kind)
}

// Options parameterizes one open-loop run.
type Options struct {
	// Substrate picks the kernel under load. Default Charlotte.
	Substrate lynx.Substrate
	// Seed drives everything: the System, the arrival schedule, and
	// the workload mix draws, through disjoint stream splits. Default 1.
	Seed uint64
	// Rate is the offered load in work-unit arrivals per virtual
	// second. It must be positive.
	Rate float64
	// Window is the arrival-generation window in virtual time:
	// arrivals are injected on schedule until the first instant past
	// it, then generation stops and the backlog drains. Default 1
	// virtual second.
	Window lynx.Duration
	// Mix is the traffic mix. Default DefaultMix.
	Mix *Mix
	// Nodes is the simulated machine size (lynx.Config.Nodes). 0 =
	// lynx default.
	Nodes int
	// SimWorkers is lynx.Config.SimWorkers: the in-System parallel
	// worker cap. It never changes results — with Gens <= 1 the boot
	// graph is the single loadgen process (nothing to partition); with
	// Gens >= 2 the run partitions into one shard per generator and
	// SimWorkers only sets how many execute concurrently, with
	// byte-identical tables at every value. Either way it is an
	// execution hint, not a parameter, and is excluded from sweep cache
	// keys. 0 = serial.
	SimWorkers int
	// Gens is the number of independent load-generator processes.
	// Each generator is its own boot-join component with its own
	// arrival and mix streams, offering Rate/Gens arrivals per virtual
	// second (total offered load stays Rate) and launching work units
	// onto its own shard of a partitioned run. Gens >= 2 therefore
	// turns the engine into an end-to-end exercise of per-shard media
	// and mid-run LaunchGroup under SimWorkers > 1. Unlike SimWorkers,
	// Gens changes the arrival schedule and so the results: it is a
	// workload parameter and part of sweep keys. Default (and any
	// value <= 1): the classic single-loadgen run, stream-for-stream
	// identical to previous releases. With Gens >= 2 and a Deadline,
	// which breach fires the (trace-only) anomaly dump first is
	// execution-order dependent; results are unaffected.
	Gens int
	// MaxUnits caps the number of arrivals as a runaway guard when
	// Rate×Window is enormous. Default 100000.
	MaxUnits int
	// Faults is an optional declarative fault plan applied to the run
	// (lynx.Config.Faults). The injector draws from its own seed
	// streams, so a nil plan leaves the run byte-identical and the
	// faulted run is still a pure function of (Options, Seed). A plan
	// that crashes the generator ("loadgen") or work-unit processes
	// ("u<seq>.<role>") makes Completed lag Arrivals — see CheckShape.
	Faults *fault.Plan
	// Trace, when non-nil, engages the flight recorder for the run:
	// Mode/SampleK/Ring shape lynx.Config.Trace, Sink receives the
	// exported event stream, DumpTo receives ring dumps. Dumps fire on
	// the run's anomaly hooks — a run error or fault-plan panic, a
	// Deadline breach, a shape-check failure — and once at end of run.
	// Recording never changes Result, so Trace is excluded from sweep
	// keys and cache identity.
	Trace *flight.Config
	// Deadline, when positive, is the per-unit virtual sojourn budget:
	// the first completion whose arrival→completion sojourn exceeds it
	// fires the deadline-breach anomaly hook (recording only — units
	// are never cancelled). 0 = no deadline.
	Deadline lynx.Duration
}

// TraceConfig lowers a thread-through flight config onto
// lynx.Config.Trace (the zero TraceOptions for nil — mode Off).
func TraceConfig(t *flight.Config) lynx.TraceOptions {
	if t == nil {
		return lynx.TraceOptions{}
	}
	return lynx.TraceOptions{Mode: t.Mode, SampleK: t.SampleK, Ring: t.Ring}
}

// AttachTrace wires a thread-through flight config's destinations onto
// a freshly built System's flight recorder: the export sink attaches
// to the recorder (so sampling applies) and the dump writer is set.
// No-op when either side is absent.
func AttachTrace(sys *lynx.System, t *flight.Config) {
	fr := sys.Flight()
	if t == nil || fr == nil {
		return
	}
	if t.Sink != nil {
		fr.Attach(t.Sink)
	}
	if t.DumpTo != nil {
		fr.SetDumpWriter(t.DumpTo)
	}
}

// Result is one run's report. Every field is virtual-time derived and
// therefore deterministic in Options.
type Result struct {
	// Offered echoes Options.Rate.
	Offered float64
	// Arrivals is the number of work units injected inside Window.
	Arrivals int
	// Completed is how many reported completion before the System
	// drained.
	Completed int
	// Window echoes Options.Window.
	Window lynx.Duration
	// Makespan is the virtual instant the last work unit reported
	// completion — under overload it exceeds Window by the time needed
	// to clear the backlog. (Not the System drain instant: that trails
	// the last completion by protocol teardown and recovery timers,
	// which are not useful work.)
	Makespan lynx.Duration
	// Realized is Completed per virtual second of Makespan: the
	// throughput the substrate actually sustained. It saturates at the
	// substrate's capacity as Offered crosses it.
	Realized float64
	// Sojourn summarizes per-unit virtual sojourn (arrival instant to
	// completion report) in milliseconds, exact percentiles over all
	// completed units.
	Sojourn sweep.Stat
	// ByKind holds the per-kind sojourn summaries (same units).
	ByKind map[string]sweep.Stat
	// Metrics is the System's pooled registry: kernel protocol events
	// plus the engine's own load_* instruments.
	Metrics *obs.Metrics
}

// Run executes one open-loop virtual-time load run.
func Run(o Options) (*Result, error) {
	if o.Rate <= 0 {
		return nil, fmt.Errorf("load: rate must be positive, got %g", o.Rate)
	}
	if o.Window < 0 {
		return nil, fmt.Errorf("load: negative window %v", o.Window)
	}
	if o.Window == 0 {
		o.Window = lynx.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxUnits <= 0 {
		o.MaxUnits = 100000
	}
	mix := o.Mix
	if mix == nil {
		var err error
		if mix, err = ParseMix(DefaultMix); err != nil {
			panic(err) // DefaultMix always parses
		}
	}

	sys := lynx.NewSystem(lynx.Config{
		Substrate:  o.Substrate,
		Seed:       sim.StreamSeed(o.Seed, 0),
		Nodes:      o.Nodes,
		SimWorkers: o.SimWorkers,
		Faults:     o.Faults,
		Trace:      TraceConfig(o.Trace),
	})
	AttachTrace(sys, o.Trace)
	fr := sys.Flight()
	m := sys.Metrics()
	gens := o.Gens
	if gens < 1 {
		gens = 1
	}
	// The accumulators are shared by every generator's completion
	// callbacks; with Gens >= 2 those run on concurrent shards, so the
	// mutex is load-bearing. Order inside never matters for results:
	// sojourn percentiles are sorted in Summarize, counts are counts,
	// and lastDone is a max.
	var (
		mu         sync.Mutex
		sojournsMS []float64
		byKindMS   = map[string][]float64{}
		arrivals   int
		completed  int
		lastDone   lynx.Duration
		breached   bool
	)
	for gi := 0; gi < gens; gi++ {
		gi := gi
		// Gens <= 1 must stay stream-for-stream identical to the classic
		// single-generator run: same process name, same stream seeds,
		// same rate, seq 0,1,2,... Gens >= 2 gives each generator its
		// own split of the arrival and mix streams and a 1/Gens share of
		// the offered rate, with unit sequence numbers strided so names
		// ("u<seq>.<role>") stay globally unique.
		name := "loadgen"
		arrSeed := sim.StreamSeed(o.Seed, 1)
		kindSeed := sim.StreamSeed(o.Seed, 2)
		rate := o.Rate
		if gens > 1 {
			name = fmt.Sprintf("loadgen-%d", gi)
			arrSeed = sim.StreamSeed2(o.Seed, 1, uint64(gi))
			kindSeed = sim.StreamSeed2(o.Seed, 2, uint64(gi))
			rate = o.Rate / float64(gens)
		}
		sys.Spawn(name, func(t *lynx.Thread, _ []*lynx.End) {
			arr := sim.NewArrivalStream(arrSeed, rate)
			kindRnd := sim.NewRand(kindSeed)
			for seq := gi; seq < o.MaxUnits; seq += gens {
				at := arr.Next()
				if lynx.Duration(at) > o.Window {
					return
				}
				if err := t.SleepUntil(at); err != nil {
					return
				}
				kind := mix.Pick(kindRnd)
				specs, wires := unitSpecs(kind, seq)
				head, _ := sys.LaunchGroup(t, specs, wires)
				mu.Lock()
				arrivals++
				mu.Unlock()
				m.Counter(MArrivals).Inc()
				m.Counter(KindKey(MArrivals, kind)).Inc()
				t.Serve(head, func(st *lynx.Thread, req *lynx.Request) {
					sojourn := lynx.Duration(st.Now() - at)
					done := lynx.Duration(st.Now())
					ms := float64(sojourn) / 1e6
					mu.Lock()
					if o.Deadline > 0 && sojourn > o.Deadline && !breached {
						// First breach only: one dump shows the lead-up, and
						// an overloaded run would otherwise dump per unit.
						breached = true
						fr.Anomaly(fmt.Sprintf("deadline breach: unit sojourn %v > %v",
							sojourn, o.Deadline))
					}
					if done > lastDone {
						lastDone = done
					}
					completed++
					sojournsMS = append(sojournsMS, ms)
					byKindMS[kind] = append(byKindMS[kind], ms)
					mu.Unlock()
					m.Counter(MCompleted).Inc()
					m.Histogram(MSojournNs).Observe(sojourn)
					m.Histogram(KindKey(MSojournNs, kind)).Observe(sojourn)
					st.Reply(req, lynx.Msg{})
				})
			}
		})
	}
	if err := runGuarded(sys, fr); err != nil {
		return nil, fmt.Errorf("load: %v run failed: %w", o.Substrate, err)
	}

	res := &Result{
		Offered:   o.Rate,
		Arrivals:  arrivals,
		Completed: completed,
		Window:    o.Window,
		Makespan:  lastDone,
		Sojourn:   sweep.Summarize(sojournsMS),
		ByKind:    map[string]sweep.Stat{},
		Metrics:   m,
	}
	if res.Makespan > 0 {
		res.Realized = float64(completed) / (float64(res.Makespan) / float64(lynx.Second))
	}
	for kind, s := range byKindMS {
		res.ByKind[kind] = sweep.Summarize(s)
	}
	if fr != nil {
		if reason := shapeAnomaly(o, res); reason != "" {
			fr.Anomaly("shape: " + reason)
		}
		// The on-demand end-of-run dump: even a clean sampled or
		// counters-only run leaves a full last-N ring in the trace
		// stream. (sys.Run already fired the run-error anomaly if the
		// run failed.)
		if err := fr.Dump("run-complete"); err != nil {
			return nil, fmt.Errorf("load: trace dump: %w", err)
		}
	}
	return res, nil
}

// runGuarded executes the system, converting a mid-run panic (a
// fault-plan defect, an injector bug) into a flight-recorder anomaly —
// the ring dump lands before the panic unwinds past the caller.
func runGuarded(sys *lynx.System, fr *flight.Recorder) error {
	defer func() {
		if p := recover(); p != nil {
			fr.Anomaly(fmt.Sprintf("panic: %v", p))
			panic(p)
		}
	}()
	return sys.Run()
}

// shapeAnomaly applies CheckShape's physics to a single run's result,
// returning a non-empty reason on violation: completions beyond
// arrivals, an incomplete drain without a churn scenario, or realized
// throughput wildly exceeding offered load.
func shapeAnomaly(o Options, res *Result) string {
	churns := o.Faults.Churns()
	switch {
	case res.Completed > res.Arrivals:
		return fmt.Sprintf("%d completed exceeds %d arrivals", res.Completed, res.Arrivals)
	case !churns && res.Completed != res.Arrivals:
		return fmt.Sprintf("%d of %d units completed", res.Completed, res.Arrivals)
	case res.Arrivals > 10 && res.Realized > res.Offered*1.5:
		return fmt.Sprintf("realized %g exceeds offered %g", res.Realized, res.Offered)
	}
	return ""
}
