// Command schedbench measures the discrete-event scheduler's real-time
// throughput and gates allocation regressions.
//
// It runs the scheduler microbenchmarks (the same workloads as
// internal/sim's Benchmark* functions) via testing.Benchmark, then
// compares against the numbers recorded in BENCH_sched.json:
//
//	schedbench                 # measure + fail on >10% allocs/op regression
//	schedbench -update         # measure + rewrite the "current" numbers
//	schedbench -as-baseline    # measure + rewrite the "baseline" numbers
//
// The baseline section records the engine before the fast-path rewrite
// (PR 2) and is never touched by -update, so every future run shows the
// cumulative speedup; the current section is the regression reference.
//
// It also sweeps the conservative parallel engine (sim.EnterParallel)
// over a partitioned timer workload at 1, 2, and 4 workers and records
// the events/s per worker count as the "scaling" section. Wall-clock
// scaling is hardware-dependent, so the >= 2x-at-4-workers assertion
// only runs on machines with at least 4 CPUs (the artifact records
// num_cpu and the gate outcome, so a SKIP is auditable), and -update /
// -as-baseline refuse to overwrite numbers recorded on a bigger
// machine from a 1-CPU run unless -force is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sim"
	"repro/lynx"
	"repro/lynx/load"
)

// measurement is one bench's recorded numbers.
type measurement struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// benchRecord pairs the pre-rewrite baseline with the latest recording.
type benchRecord struct {
	Baseline *measurement `json:"baseline,omitempty"`
	Current  *measurement `json:"current,omitempty"`
}

// benchFile is the BENCH_sched.json schema. NumCPU is the recording
// machine's CPU count — the update guard reads it so a 1-CPU run cannot
// silently clobber numbers recorded on real hardware.
type benchFile struct {
	Note     string                  `json:"note"`
	NumCPU   int                     `json:"num_cpu,omitempty"`
	Benches  map[string]*benchRecord `json:"benches"`
	Scaling  *scalingMeasurement     `json:"scaling,omitempty"`
	Overhead *overheadMeasurement    `json:"recorder_overhead,omitempty"`
}

// bench is one scheduler workload. eventsPerOp converts ns/op into
// sched-events/s.
type bench struct {
	name        string
	eventsPerOp float64
	fn          func(b *testing.B)
}

// benches mirrors internal/sim/bench_test.go — keep the workloads in
// sync.
var benches = []bench{
	{"sched_timer_8", 1, func(b *testing.B) {
		b.ReportAllocs()
		env := sim.NewEnv(1)
		const procs = 8
		for i := 0; i < procs; i++ {
			env.Spawn("p", func(p *sim.Proc) {
				for {
					p.Delay(sim.Microsecond)
				}
			})
		}
		b.ResetTimer()
		if err := env.RunUntil(sim.Time(b.N) * sim.Time(sim.Microsecond) / procs); err != nil {
			b.Fatal(err)
		}
	}},
	{"sched_yield", 2, func(b *testing.B) {
		b.ReportAllocs()
		env := sim.NewEnv(1)
		n := b.N
		for i := 0; i < 2; i++ {
			env.Spawn("y", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					p.Yield()
				}
			})
		}
		b.ResetTimer()
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}},
	{"sched_timer_256", 1, func(b *testing.B) {
		b.ReportAllocs()
		env := sim.NewEnv(1)
		const procs = 256
		for i := 0; i < procs; i++ {
			env.Spawn("p", func(p *sim.Proc) {
				for {
					p.Delay(sim.Microsecond)
				}
			})
		}
		b.ResetTimer()
		if err := env.RunUntil(sim.Time(b.N) * sim.Time(sim.Microsecond) / procs); err != nil {
			b.Fatal(err)
		}
	}},
}

// Parallel-scaling workload shape: independent groups of procs looping
// on short timers — the partitionable topology class the parallel
// engine accelerates. 8 groups x 4 procs x 30k delay events per proc
// keeps a sweep under a second per worker count while dwarfing the
// per-run worker-pool cost.
const (
	scalingGroups        = 8
	scalingProcsPerGroup = 4
	scalingEventsPerProc = 30000
	// minScaling is the acceptance threshold for events/s at 4 workers
	// versus 1 (only checkable on >= 4 CPUs).
	minScaling = 2.0
	// Connected-topology workload: a full lynx System on the Charlotte
	// token ring — a CONNECTED shared medium, partitioned into
	// per-group segments licensed by the MinLatency bound — with 8
	// client/server pairs each shipping connOpsPerClient RPCs. This
	// drives independent components on per-shard media end to end
	// (kernel, binding, medium segments), not just the bare timer
	// engine, so its scaling floor
	// is lower: protocol work serializes on per-shard medium
	// reservations that the timer workload never touches.
	connGroups       = 8
	connOpsPerClient = 400
	minConnScaling   = 1.5
)

var scalingWorkers = []int{1, 2, 4}

// scalingMeasurement records the parallel-engine sweep: events/s per
// worker count plus the gate outcome on the recording machine
// ("checked" or "SKIP (n CPU)"). The connected_* fields are the same
// sweep over the partitioned token-ring workload (lynx RPCs/s per
// worker count).
type scalingMeasurement struct {
	EventsPerSec  map[string]float64 `json:"events_per_sec"`
	Scaling4v1    float64            `json:"scaling_4v1"`
	ScalingGate   string             `json:"scaling_gate"`
	ConnOpsPerSec map[string]float64 `json:"connected_ops_per_sec,omitempty"`
	Conn4v1       float64            `json:"connected_4v1,omitempty"`
}

// runScaling times one partitioned run at the given worker count and
// returns wall-clock events/s (best of three to shed OS-scheduler
// noise).
func runScaling(workers int) float64 {
	best := 0.0
	for try := 0; try < 3; try++ {
		root := sim.NewEnv(1)
		shards := root.EnterParallel(sim.ParallelOptions{Groups: scalingGroups, Workers: workers})
		for _, sh := range shards {
			for p := 0; p < scalingProcsPerGroup; p++ {
				sh.Spawn("p", func(p *sim.Proc) {
					for {
						p.Delay(sim.Microsecond)
					}
				})
			}
		}
		start := time.Now()
		horizon := sim.Time(scalingEventsPerProc) * sim.Time(sim.Microsecond)
		if err := root.RunUntil(horizon); err != nil {
			cli.Failf("schedbench", "scaling run: %v", err)
		}
		elapsed := time.Since(start).Seconds()
		events := float64(scalingGroups * scalingProcsPerGroup * scalingEventsPerProc)
		if eps := events / elapsed; eps > best {
			best = eps
		}
	}
	return best
}

// runScalingConnected times the connected-topology workload at the
// given worker count and returns wall-clock RPCs/s (best of three).
// The System partitions because the boot graph has connGroups
// components and the token ring's MinLatency licenses per-group
// segments — a serial collapse here would silently turn this into a
// measurement of nothing, so the partition is asserted.
func runScalingConnected(workers int) float64 {
	best := 0.0
	for try := 0; try < 3; try++ {
		sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Charlotte, Seed: 1, SimWorkers: workers})
		for g := 0; g < connGroups; g++ {
			client := sys.Spawn(fmt.Sprintf("client-%d", g), func(t *lynx.Thread, boot []*lynx.End) {
				data := make([]byte, 32)
				for i := 0; i < connOpsPerClient; i++ {
					if _, err := t.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
						cli.Failf("schedbench", "connected scaling rpc: %v", err)
					}
				}
				t.Destroy(boot[0])
			})
			server := sys.Spawn(fmt.Sprintf("server-%d", g), func(t *lynx.Thread, boot []*lynx.End) {
				t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{Data: req.Data()})
				})
			})
			sys.Join(client, server)
		}
		start := time.Now()
		if err := sys.Run(); err != nil {
			cli.Failf("schedbench", "connected scaling run: %v", err)
		}
		if !sys.Partitioned() {
			cli.Failf("schedbench", "connected scaling workload did not partition (serial collapse)")
		}
		elapsed := time.Since(start).Seconds()
		if ops := float64(connGroups*connOpsPerClient) / elapsed; ops > best {
			best = ops
		}
	}
	return best
}

// measureScaling sweeps the worker counts and applies the hardware-gated
// scaling assertion. Returns the recording and whether the gate failed.
func measureScaling() (*scalingMeasurement, bool) {
	m := &scalingMeasurement{EventsPerSec: map[string]float64{}, ConnOpsPerSec: map[string]float64{}}
	for _, w := range scalingWorkers {
		eps := runScaling(w)
		m.EventsPerSec[fmt.Sprint(w)] = eps
		fmt.Printf("sched_parallel workers=%d %12.0f events/s\n", w, eps)
	}
	for _, w := range scalingWorkers {
		ops := runScalingConnected(w)
		m.ConnOpsPerSec[fmt.Sprint(w)] = ops
		fmt.Printf("sched_parallel_connected workers=%d %12.0f rpcs/s\n", w, ops)
	}
	if one := m.EventsPerSec["1"]; one > 0 {
		m.Scaling4v1 = m.EventsPerSec["4"] / one
	}
	if one := m.ConnOpsPerSec["1"]; one > 0 {
		m.Conn4v1 = m.ConnOpsPerSec["4"] / one
	}
	failed := false
	if ncpu := runtime.NumCPU(); ncpu >= 4 {
		m.ScalingGate = "checked"
		if m.Scaling4v1 < minScaling {
			fmt.Fprintf(os.Stderr, "schedbench: parallel scaling 4v1 = %.2fx, want >= %.1fx\n",
				m.Scaling4v1, minScaling)
			failed = true
		}
		if m.Conn4v1 < minConnScaling {
			fmt.Fprintf(os.Stderr, "schedbench: connected scaling 4v1 = %.2fx, want >= %.1fx\n",
				m.Conn4v1, minConnScaling)
			failed = true
		}
		fmt.Printf("sched_parallel scaling 4v1 = %.2fx, connected 4v1 = %.2fx (NumCPU=%d)\n",
			m.Scaling4v1, m.Conn4v1, ncpu)
	} else {
		m.ScalingGate = fmt.Sprintf("SKIP (%d CPU)", ncpu)
		fmt.Printf("sched_parallel scaling gate SKIP (%d CPU): 4v1 = %.2fx, connected 4v1 = %.2fx not asserted\n",
			ncpu, m.Scaling4v1, m.Conn4v1)
	}
	return m, failed
}

// Recorder-overhead probe. The penalty a recorder mode inflicts is
// per-event cost added / per-event cost of the untraced workload. The
// two factors are measured separately because they live at different
// scales: the added cost (tens of ns) comes from a testing.Benchmark
// tight loop over a representative instrumented site, which averages
// over millions of iterations and is stable even on shared 1-CPU CI
// hardware; the baseline (microseconds per protocol event) comes from
// CPU-timing a real open-loop load run. Timing two full runs and
// differencing them — the obvious approach — cannot resolve a 5%
// threshold on shared hardware: the identical deterministic run varies
// by ±20-40% CPU time with host frequency scaling, swamping the
// effect. Dividing instead keeps that noise where it is harmless: the
// baseline is taken as the MINIMUM over several runs (noise only adds
// time), which biases the denominator low and the reported penalty
// high — the strict direction for a gate.
const (
	overheadRate      = 400
	overheadWindow    = lynx.Second
	overheadBaseTries = 5
	overheadSampleK   = 64
	// Acceptance thresholds: events/s penalty vs the untraced run.
	maxCountersPenalty = 0.05
	maxSampledPenalty  = 0.15
)

// overheadMeasurement records the recorder-overhead probe: the
// workload's per-event baseline, each mode's added per-event cost, the
// derived events/s, and the penalty ratios the gate asserts.
type overheadMeasurement struct {
	Events             int                `json:"events"`
	BaseNsPerEvent     float64            `json:"base_ns_per_event"`
	CountersNsPerEvent float64            `json:"counters_ns_per_event"`
	SampledNsPerEvent  float64            `json:"sampled_ns_per_event"`
	EventsPerSec       map[string]float64 `json:"events_per_sec"`
	CountersPenaltyPct float64            `json:"counters_penalty_pct"`
	SampledPenaltyPct  float64            `json:"sampled_penalty_pct"`
	Gate               string             `json:"gate"`
}

// countSink tallies recorded events — the calibration run uses it to
// learn how many protocol events the overhead workload emits.
type countSink struct{ n int }

func (c *countSink) Event(obs.Event) { c.n++ }

// runOverhead times one run of the fixed overhead workload under the
// given trace configuration (nil = untraced) and returns the CPU
// seconds it consumed (wall seconds where rusage is unavailable).
func runOverhead(tr *flight.Config) float64 {
	runtime.GC()
	cpu0, wall0 := cpuSeconds(), time.Now()
	if _, err := load.Run(load.Options{
		Substrate: lynx.Charlotte,
		Rate:      overheadRate,
		Window:    overheadWindow,
		Seed:      1,
		Trace:     tr,
	}); err != nil {
		cli.Failf("schedbench", "overhead run: %v", err)
	}
	if cpu0 > 0 {
		return cpuSeconds() - cpu0
	}
	return time.Since(wall0).Seconds()
}

// emitBench is the instrumented-site shape the kernels use, as a tight
// benchmark loop: gate on Active, build a Detail string only when the
// recorder wants it, emit. Its ns/op is the per-event cost a workload
// pays once a flight recorder in the given mode is attached.
func emitBench(mode flight.Mode, sink obs.Sink) func(b *testing.B) {
	return func(b *testing.B) {
		rec := obs.NewRecorder(sim.NewEnv(1), "bench")
		rec.Attach(flight.New(flight.Config{Mode: mode, SampleK: overheadSampleK, Sink: sink}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec.Active() {
				var detail string
				if rec.WantDetail() {
					detail = fmt.Sprintf("Wait -> end<%d.%d> send OK", i&7, i&1)
				}
				rec.Emit(obs.Event{Kind: obs.KindQueueService, Proc: 1, Link: 2, Bytes: 64, Detail: detail})
			}
		}
	}
}

// minBenchNs runs fn under testing.Benchmark three times and returns
// the fastest ns/op — matching the minimum bias of the baseline so the
// ratio compares two fast-period measurements.
func minBenchNs(fn func(b *testing.B)) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(fn)
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// measureOverhead measures the workload baseline and each mode's added
// per-event cost, derives the penalties, and applies the gates.
// Returns the recording and whether a gate failed.
func measureOverhead() (*overheadMeasurement, bool) {
	// Calibrate the event count once with a full-mode counting sink
	// (doubles as the warmup run).
	cnt := &countSink{}
	runOverhead(&flight.Config{Mode: flight.Full, Sink: cnt})
	events := cnt.n

	base := 0.0
	for i := 0; i < overheadBaseTries; i++ {
		if el := runOverhead(nil); base == 0 || el < base {
			base = el
		}
	}
	baseNs := base * 1e9 / float64(events)

	ctrNs := minBenchNs(emitBench(flight.Counters, nil))
	smpNs := minBenchNs(emitBench(flight.Sampled, &obs.JSONLExporter{W: io.Discard}))

	m := &overheadMeasurement{
		Events:             events,
		BaseNsPerEvent:     baseNs,
		CountersNsPerEvent: ctrNs,
		SampledNsPerEvent:  smpNs,
		EventsPerSec: map[string]float64{
			"untraced":      1e9 / baseNs,
			"counters-only": 1e9 / (baseNs + ctrNs),
			"sampled":       1e9 / (baseNs + smpNs),
		},
		CountersPenaltyPct: ctrNs / baseNs * 100,
		SampledPenaltyPct:  smpNs / baseNs * 100,
		Gate:               "checked",
	}
	fmt.Printf("recorder_overhead %d events: untraced %.0f ev/s, counters-only %+.1f%%, sampled(K=%d) %+.1f%%\n",
		events, m.EventsPerSec["untraced"], m.CountersPenaltyPct, overheadSampleK, m.SampledPenaltyPct)
	failed := false
	if m.CountersPenaltyPct > maxCountersPenalty*100 {
		fmt.Fprintf(os.Stderr, "schedbench: counters-only recorder penalty %.1f%%, want <= %.0f%%\n",
			m.CountersPenaltyPct, maxCountersPenalty*100)
		failed = true
	}
	if m.SampledPenaltyPct > maxSampledPenalty*100 {
		fmt.Fprintf(os.Stderr, "schedbench: sampled recorder penalty %.1f%%, want <= %.0f%%\n",
			m.SampledPenaltyPct, maxSampledPenalty*100)
		failed = true
	}
	return m, failed
}

func measure(bn bench) measurement {
	r := testing.Benchmark(bn.fn)
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return measurement{
		NsPerOp:      ns,
		AllocsPerOp:  float64(r.AllocsPerOp()),
		BytesPerOp:   float64(r.AllocedBytesPerOp()),
		EventsPerSec: bn.eventsPerOp * 1e9 / ns,
	}
}

func loadFile(path string) (*benchFile, error) {
	f := &benchFile{Benches: map[string]*benchRecord{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Benches == nil {
		f.Benches = map[string]*benchRecord{}
	}
	return f, nil
}

func save(path string, f *benchFile) error {
	f.Note = "Scheduler microbench trajectory. baseline = pre-fast-path engine (PR 2); " +
		"current = last recording (refresh with `make bench-update`). " +
		"make check fails on >10% allocs/op regression vs current. " +
		"scaling = parallel-engine events/s per worker count; its >=2x-at-4-workers " +
		"gate only runs on >=4-CPU machines (see scaling_gate/num_cpu). " +
		"recorder_overhead = flight-recorder events/s penalty vs untraced " +
		"(ratio-based, always gated: counters-only <=5%, sampled K=64 <=15%)."
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	path := flag.String("file", "BENCH_sched.json", "trajectory file")
	update := flag.Bool("update", false, "rewrite the current numbers")
	asBaseline := flag.Bool("as-baseline", false, "rewrite the baseline numbers")
	force := flag.Bool("force", false, "allow -update/-as-baseline to overwrite numbers recorded on a bigger machine")
	flag.Parse()

	f, err := loadFile(*path)
	cli.Check("schedbench", err)

	// The update guard: wall-clock numbers recorded on real hardware must
	// not be silently replaced by a 1-CPU container run (which would also
	// re-disarm the scaling gate). Closes the ROADMAP housekeeping note.
	if (*update || *asBaseline) && !*force && f.NumCPU > 1 && runtime.NumCPU() == 1 {
		cli.Failf("schedbench",
			"refusing to overwrite %s recorded on %d CPUs with a 1-CPU run (re-record on comparable hardware, or pass -force)",
			*path, f.NumCPU)
	}

	// Overhead first: the microbenches and the scaling sweep park
	// thousands of never-terminating sim procs whose stacks every later
	// GC must scan, which would bill the recorder modes (the only
	// allocating runs) for garbage they didn't make.
	overhead, overheadFailed := measureOverhead()

	failed := overheadFailed
	for _, bn := range benches {
		m := measure(bn)
		rec := f.Benches[bn.name]
		if rec == nil {
			rec = &benchRecord{}
			f.Benches[bn.name] = rec
		}
		fmt.Printf("%-16s %10.1f ns/op %8.0f events/s %6.0f B/op %5.0f allocs/op",
			bn.name, m.NsPerOp, m.EventsPerSec, m.BytesPerOp, m.AllocsPerOp)
		if rec.Baseline != nil {
			fmt.Printf("   (baseline: %.1f ns/op, %.0f allocs/op -> %.2fx events/s, %+.0f%% allocs)",
				rec.Baseline.NsPerOp, rec.Baseline.AllocsPerOp,
				m.EventsPerSec/rec.Baseline.EventsPerSec,
				pctDelta(m.AllocsPerOp, rec.Baseline.AllocsPerOp))
		}
		fmt.Println()
		switch {
		case *asBaseline:
			base := m
			rec.Baseline = &base
		case *update:
			cur := m
			rec.Current = &cur
		case rec.Current != nil:
			// The regression gate: allocs/op may not grow more than 10%
			// over the recorded current (a zero record forbids any alloc).
			if m.AllocsPerOp > rec.Current.AllocsPerOp*1.10 {
				fmt.Fprintf(os.Stderr,
					"schedbench: %s allocs/op regressed: %.0f recorded, %.0f measured (>10%%)\n",
					bn.name, rec.Current.AllocsPerOp, m.AllocsPerOp)
				failed = true
			}
		}
	}

	scaling, scalingFailed := measureScaling()
	failed = failed || scalingFailed

	if *asBaseline || *update {
		f.Scaling = scaling
		f.Overhead = overhead
		f.NumCPU = runtime.NumCPU()
		cli.Check("schedbench", save(*path, f))
		fmt.Println("wrote", *path)
		return
	}
	if failed {
		cli.Failf("schedbench", "regression gate failed (refresh deliberately with `make bench-update`)")
	}
}

// pctDelta reports the percent change from base to cur (0 when base is
// zero and cur is too; +Inf-ish large values are clamped for display).
func pctDelta(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return (cur - base) / base * 100
}
