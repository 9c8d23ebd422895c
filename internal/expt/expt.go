// Package expt is the experiment harness: one entry per table or figure
// in the paper's evaluation, each regenerating the corresponding
// measurement on the simulated substrates and reporting paper-vs-measured
// values. cmd/lynxbench drives it; bench_test.go wraps each experiment in
// a testing.B benchmark.
package expt

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/lynx"
)

// Result is one experiment's regenerated table.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Pass reports whether the measured shape matches the paper's claim
	// (who wins, rough factors, crossover band).
	Pass bool
	// Metrics is the obs counter snapshot the numbers were computed
	// from, keyed "<substrate>/<metric>" (experiments that count from
	// the observability subsystem attach it; others leave it nil).
	// For a replicated result each value is the per-replica mean.
	Metrics map[string]int64 `json:",omitempty"`
	// Replicas and RootSeed record the replication an aggregated
	// result was computed over (zero for a single-shot run).
	Replicas int    `json:",omitempty"`
	RootSeed uint64 `json:",omitempty"`
}

// addMetrics merges a registry snapshot into r.Metrics under prefix.
func (r *Result) addMetrics(prefix string, m *obs.Metrics) {
	snap := m.Snapshot()
	if len(snap) == 0 {
		return
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]int64)
	}
	for k, v := range snap {
		r.Metrics[prefix+"/"+k] = v
	}
}

// Render formats the result as a text table.
func (r *Result) Render() string {
	var b strings.Builder
	status := "SHAPE OK"
	if !r.Pass {
		status = "SHAPE MISMATCH"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "  %-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// sysSeed derives the seed for one System an experiment builds. Each
// call site passes the canonical seed its system used before
// replication existed; the legacy single-shot run (replica seed 0)
// keeps exactly that value, so default output is unchanged, while
// replicated runs stream-split the replica seed to give every System
// of every replica fresh, reproducible randomness.
func sysSeed(seed, canonical uint64) uint64 {
	if seed == 0 {
		return canonical
	}
	return sim.StreamSeed(seed, canonical)
}

// ms renders a duration in milliseconds.
func ms(d lynx.Duration) string {
	return fmt.Sprintf("%.2f", d.Milliseconds())
}

// echoRTT measures one simple remote operation's round trip with the
// given payload size in each direction, after a configurable number of
// warm-up operations.
func echoRTT(seed uint64, sub lynx.Substrate, payload, warmup int, tuned bool) lynx.Duration {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: sysSeed(seed, 1), Chrysalis: lynx.ChrysalisOptions{Tuned: tuned}})
	data := make([]byte, payload)
	var rtt lynx.Duration
	c := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
		for i := 0; i < warmup; i++ {
			if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
				return
			}
		}
		start := th.Now()
		if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
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
	if err := sys.Run(); err != nil {
		panic(fmt.Sprintf("expt: echoRTT(%v,%d): %v", sub, payload, err))
	}
	return rtt
}

// within reports whether v is within frac of target.
func within(v, target, frac float64) bool {
	if target == 0 {
		return v == 0
	}
	r := v / target
	return r >= 1-frac && r <= 1+frac
}
