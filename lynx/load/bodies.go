package load

import (
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// GridBody is one registered, daemon-runnable grid body: a cell
// function plus the axes it requires. The registry is shared by
// lynx/service (lynxd grid jobs) and cmd/lynxload, so a body behaves
// identically whether a grid is run in-process or submitted to the
// daemon — axis values arrive as strings over the wire, so bodies
// parse axis values from their rendered form rather than type-assert.
type GridBody struct {
	// Axes the body requires present on the grid spec.
	Axes []string
	// Body runs one cell replica.
	Body func(c grid.Cell, r sweep.Run) sweep.Outcome
}

// GridBodies returns the body registry. Registered bodies:
//
//	echo     — one echo round trip (axes: payload, substrate); reports rtt_ms
//	pipeline — one closed-loop 3-stage pipeline unit (axis: substrate)
//	mesh     — one closed-loop 4-peer mesh unit (axis: substrate)
//	faults   — one open-loop load run under a fault scenario
//	           (axes: substrate, scenario); scenario values are
//	           registered names or inline fault-plan strings
func GridBodies() map[string]GridBody { return gridBodyRegistry }

var gridBodyRegistry = map[string]GridBody{
	"echo":     {Axes: []string{"payload", "substrate"}, Body: echoBody},
	"pipeline": {Axes: []string{"substrate"}, Body: unitBody("pipeline")},
	"mesh":     {Axes: []string{"substrate"}, Body: unitBody("mesh")},
	"faults":   {Axes: []string{"substrate", "scenario"}, Body: faultsBody},
}

// echoBody measures one echo round trip: a client/server pair on the
// cell's substrate exchanging the cell's payload in both directions.
func echoBody(c grid.Cell, r sweep.Run) sweep.Outcome {
	sub, err := lynx.ParseSubstrate(c.Str("substrate"))
	if err != nil {
		return sweep.Outcome{Err: err}
	}
	payload := grid.MustAs[int](c, "payload")
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: r.Seed, Trace: r.Trace})
	data := make([]byte, payload)
	var rtt lynx.Duration
	cl := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
		start := th.Now()
		if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
			return
		}
		rtt = lynx.Duration(th.Now() - start)
		th.Destroy(boot[0])
	})
	sv := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
		th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{Data: req.Data()})
		})
	})
	sys.Join(cl, sv)
	if err := sys.Run(); err != nil {
		return sweep.Outcome{Err: err}
	}
	sys.Flight().Dump("run-complete")
	return sweep.Outcome{
		Values:  map[string]float64{"rtt_ms": float64(rtt) / 1e6},
		Metrics: sys.Metrics(),
	}
}

// unitBody runs one closed-loop work unit (Build form) of the given
// kind on the cell's substrate and reports its makespan.
func unitBody(kind string) func(c grid.Cell, r sweep.Run) sweep.Outcome {
	return func(c grid.Cell, r sweep.Run) sweep.Outcome {
		sub, err := lynx.ParseSubstrate(c.Str("substrate"))
		if err != nil {
			return sweep.Outcome{Err: err}
		}
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: r.Seed, Trace: r.Trace})
		if err := Build(sys, kind); err != nil {
			return sweep.Outcome{Err: err}
		}
		if err := sys.Run(); err != nil {
			return sweep.Outcome{Err: err}
		}
		sys.Flight().Dump("run-complete")
		return sweep.Outcome{
			Values:  map[string]float64{"makespan_ms": float64(sys.Now()) / 1e6},
			Metrics: sys.Metrics(),
		}
	}
}

// The faults body's fixed cell shape: every cell offers the same
// open-loop load, so the scenario axis is the only varying stress.
const (
	faultsBodyRate   = 40
	faultsBodyWindow = 250 * lynx.Millisecond
)

// faultsBody runs one open-loop load run under the cell's fault
// scenario (a registered name like "drop10" or an inline plan string).
func faultsBody(c grid.Cell, r sweep.Run) sweep.Outcome {
	sub, err := lynx.ParseSubstrate(c.Str("substrate"))
	if err != nil {
		return sweep.Outcome{Err: err}
	}
	plan, err := fault.ParseScenario(c.Str("scenario"))
	if err != nil {
		return sweep.Outcome{Err: err}
	}
	res, err := Run(Options{
		Substrate: sub,
		Rate:      faultsBodyRate,
		Window:    faultsBodyWindow,
		Seed:      r.Seed,
		Faults:    plan,
		Trace:     r.Trace,
	})
	if err != nil {
		return sweep.Outcome{Err: err}
	}
	return sweep.Outcome{
		Values: map[string]float64{
			"arrivals":       float64(res.Arrivals),
			"completed":      float64(res.Completed),
			"makespan_ms":    float64(res.Makespan) / 1e6,
			"realized":       res.Realized,
			"sojourn_p95_ms": res.Sojourn.P95,
		},
		Metrics: res.Metrics,
	}
}
