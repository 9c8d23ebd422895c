// Command bench is the repository's benchmark. It drives four workloads
// through the public lynx, lynx/load and lynx/grid APIs, checks their
// outputs, and prints every end-to-end metric by name and unit; a traced
// run (-trace 1) adds per-layer metrics: host time per module from a CPU
// profile, spans around the benchmark's calls into each layer, and
// protocol counts from the obs registry. From this directory:
//
//	go run . -workload all -seed 1
//	go run . -workload open-soda -seed 2 -trace 1
//	go run ./cmp A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. See README.md for the
// workloads, the metrics and how their spread was measured.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/lynx"
)

// spec names a workload with the reason it is in the benchmark, its
// full size and the half size its set-up runs as warm-up.
type spec struct {
	name, why  string
	full, warm workload
}

var specs = []spec{
	{
		"rpc-star-charlotte",
		"closed loop, 8 clients to 1 Charlotte server: the paper's headline kernel and heaviest binding, with link moves beside plain data",
		rpcLoad{substrate: lynx.Charlotte, clients: 8, ops: 6000},
		rpcLoad{substrate: lynx.Charlotte, clients: 8, ops: 3000},
	},
	{
		"rpc-pairs-chrysalis",
		"closed loop, 8 independent Chrysalis client/server pairs on 2 sim workers: the parallel engine and the Chrysalis layers; Charlotte and SODA idle",
		rpcLoad{substrate: lynx.Chrysalis, pairs: true, clients: 8, ops: 8000, workers: 2},
		rpcLoad{substrate: lynx.Chrysalis, pairs: true, clients: 8, ops: 4000, workers: 2},
	},
	{
		"open-soda",
		"open loop at ~77% of SODA's capacity: mid-run process churn, discover/hint/bus contention near saturation, and state that grows through the run",
		openLoad{rate: 40, window: 125 * lynx.Second},
		openLoad{rate: 40, window: 125 * lynx.Second / 2},
	},
	{
		"systems-mix",
		"closed loop of whole Systems through grid.Run on 2 workers: System assembly, obs registry creation and merge, sweep fan-out and GC",
		systemsLoad{batches: 30, perCell: 100, parallel: 2},
		systemsLoad{batches: 15, perCell: 100, parallel: 2},
	},
}

const (
	// setupReps is how many times a run sets up (generates its inputs
	// and runs a half-size warm-up rep); setup_s is their median.
	setupReps = 5
	// minReps is the fewest timed reps a run makes, however long they take.
	minReps = 5
	// profileHz is the CPU profile's sampling rate in the traced run,
	// which repeats its rep until minSamples samples are in.
	profileHz     = 500
	minSamples    = 2000
	maxTracedReps = 8
)

// metric is one reported number. Host metrics are the median over reps
// with their quartiles; the others repeat bit for bit for a seed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Host  bool    `json:"host"`
}

func hostMetric(s summary, unit string) metric {
	return metric{Value: s.Median, Unit: unit, Q1: s.Q1, Q3: s.Q3, N: s.N, Host: true}
}

func oneHost(v float64, unit string) metric {
	return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1, Host: true}
}

func exact(v float64, unit string, n int) metric {
	return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: n}
}

// result is one workload's run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reps      int               `json:"reps"`
	Traced    bool              `json:"traced"`
	E2E       map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer"`
}

// report is what -out writes and cmp reads.
type report struct {
	Machine   machine   `json:"machine"`
	Workloads []*result `json:"workloads"`
}

type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func thisMachine() machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// run tallies a run's reps and checks each against the first.
type run struct {
	res   *result
	first *repOut
}

func (r *run) add(o *repOut) {
	r.res.Attempted += o.attempted
	r.res.Failed += o.failed
	if r.first == nil {
		r.first = o
	} else if o.digest != r.first.digest {
		// A rep that does not reproduce the first one's virtual outputs
		// counts as one failed op.
		r.res.Failed++
	}
}

// measure runs one workload: set-up, timed reps for the given budget,
// and with traced set the profiled reps that give the host layer split.
func measure(sp spec, seed uint64, budget time.Duration, traced bool, traceDir string) (*result, error) {
	r := &run{res: &result{Workload: sp.name, Seed: seed, Traced: traced,
		E2E: map[string]metric{}, Layers: map[string]metric{}}}

	// The calibration loop runs before every set-up and timed rep and
	// after the last; see calibrate.
	var calib, setups []float64
	for k := 0; k < setupReps; k++ {
		calib = append(calib, calibrate())
		t0 := time.Now()
		if _, err := sp.warm.run(seed, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var wall, cpu, rss, heapLive []float64
	ops := 0
	// Allocation and background GC cycles of the reps alone, without
	// the calibration loop's.
	var allocBytes, gcCycles uint64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for rep := 0; ; rep++ {
		// Stop once the next rep, as long as the mean one, would overrun.
		if el := time.Since(start); rep >= minReps && el+el/time.Duration(rep) > budget {
			break
		}
		calib = append(calib, calibrate())
		resetPeakRSS()
		runtime.ReadMemStats(&ms0)
		c0, t0 := cpuSeconds(), time.Now()
		o, err := sp.full.run(seed, nil)
		el, cel := time.Since(t0).Seconds(), cpuSeconds()-c0
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", rep, err)
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcCycles += uint64((ms1.NumGC - ms0.NumGC) - (ms1.NumForcedGC - ms0.NumForcedGC))
		rss = append(rss, peakRSSMB())
		heapLive = append(heapLive, liveHeapMB())
		r.add(o)
		ops += o.ops
		wall = append(wall, float64(o.ops)/el)
		cpu = append(cpu, float64(o.ops)/cel)
	}
	calib = append(calib, calibrate())
	res, first := r.res, r.first
	res.Reps = len(wall)
	opsPerS, setup := summarize(wall), summarize(setups)
	// slowdown is how much slower than nominal the host ran this run's
	// calibration loop; the bounded times are scaled to nominal speed.
	cal := summarize(calib)
	slowdown := cal.Median / calibNominal.Seconds()

	res.E2E["setup_s"] = hostMetric(setup.scaled(1/slowdown), "s")
	res.E2E["ops_per_s"] = hostMetric(opsPerS.scaled(slowdown), "ops/s")
	res.E2E["peak_rss_mb"] = hostMetric(summarize(rss), "MB")
	res.Layers["unscaled.setup_s"] = hostMetric(setup, "s")
	res.Layers["unscaled.ops_per_s"] = hostMetric(opsPerS, "ops/s")
	res.Layers["unscaled.ops_per_cpu_s"] = hostMetric(summarize(cpu), "ops/CPU-s")
	res.Layers["calib.loop_ms"] = hostMetric(cal.scaled(1000), "ms")
	res.E2E["virt_ms_p50"] = exact(first.virtP50, "vms", first.virtN)
	res.E2E["virt_ms_"+first.tailName] = exact(first.virtTail, "vms", first.virtN)

	for k, v := range first.counts {
		res.Layers[k] = exact(v, countUnit(k), 1)
	}
	perOp := func(v float64) float64 { return v / float64(max(ops, 1)) }
	res.Layers["runtime.gc.alloc_kb_per_op"] = oneHost(perOp(float64(allocBytes)/1024), "KB/op")
	res.Layers["runtime.gc.cycles_per_kop"] = oneHost(1000*perOp(float64(gcCycles)), "1/kop")
	res.Layers["runtime.gc.heap_live_mb_end"] = hostMetric(summarize(heapLive), "MB")

	if traced {
		if err := traceReps(sp, seed, r, opsPerS.Median, traceDir); err != nil {
			return nil, err
		}
	}
	res.E2E["failed_ratio"] = exact(float64(res.Failed)/float64(max(res.Attempted, 1)), "fraction", res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// traceReps runs the profiled reps after the timed ones and fills in
// the host per-layer metrics.
func traceReps(sp spec, seed uint64, r *run, untracedOpsPerS float64, traceDir string) error {
	dir := filepath.Join(traceDir, sp.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tr := newTracer()
	samples := map[string]int64{}
	cpuNs := map[string]float64{}
	var total int64
	ops := 0
	var wall time.Duration
	for rep := 0; rep < maxTracedReps && total < minSamples; rep++ {
		runtime.GC()
		tr.rep = rep
		rs := tr.begin("rep", 0, rep)
		tr.rootID = rs.ID
		var buf bytes.Buffer
		// StartCPUProfile keeps a rate set before it (and warns that it
		// cannot set its own 100 Hz), so the profile samples at profileHz.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		t0 := time.Now()
		o, err := sp.full.run(seed, tr)
		wall += time.Since(t0)
		pprof.StopCPUProfile()
		tr.end(rs)
		if err != nil {
			return fmt.Errorf("traced rep %d: %w", rep, err)
		}
		r.add(o)
		ops += o.ops
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", rep)), buf.Bytes(), 0o644); err != nil {
			return err
		}
		p, err := decodeProfile(buf.Bytes())
		if err != nil {
			return err
		}
		for l, n := range hostShares(p) {
			samples[l] += n
			cpuNs[l] += float64(n * p.periodNs)
			total += n
		}
	}
	if err := tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	L := r.res.Layers
	for l, pct := range layerPcts(samples) {
		L[l+".host_pct"] = oneHost(pct, "%")
		L[l+".host_ns_per_op"] = oneHost(cpuNs[l]/float64(max(ops, 1)), "ns/op")
	}
	p50 := func(name string, unit time.Duration) float64 { return percentile(tr.durations(name, unit), 0.5) }
	p99 := func(name string, unit time.Duration) float64 { return percentile(tr.durations(name, unit), 0.99) }
	L["core.connect_host_us_p50"] = oneHost(p50("core.connect", time.Microsecond), "us")
	L["core.connect_host_us_p99"] = oneHost(p99("core.connect", time.Microsecond), "us")
	L["core.connect_enc_host_us_p50"] = oneHost(p50("core.connect_enc", time.Microsecond), "us")
	L["core.newlink_host_us_p50"] = oneHost(p50("core.newlink", time.Microsecond), "us")
	L["lynx.build_host_us_p50"] = oneHost(p50("lynx.build", time.Microsecond), "us")
	L["lynx.run_host_ms_p50"] = oneHost(p50("lynx.run", time.Millisecond), "ms")
	L["grid.cell_host_us_p50"] = oneHost(p50("grid.cell", time.Microsecond), "us")
	L["grid.cell_host_us_p99"] = oneHost(p99("grid.cell", time.Microsecond), "us")
	L["load.run_host_s"] = oneHost(p50("load.run", time.Second), "s")
	L["trace.samples"] = oneHost(float64(total), "count")
	traced := float64(ops) / wall.Seconds()
	L["trace.overhead_pct"] = oneHost(100*(untracedOpsPerS-traced)/untracedOpsPerS, "%")
	return nil
}

// countUnit is the unit of a deterministic per-layer metric, read from
// its name. vms is virtual (simulated) milliseconds.
func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "_ms_per_op"):
		return "vms/op"
	case strings.HasSuffix(name, "_per_op"):
		return "1/op"
	case strings.HasSuffix(name, "_ms_p99"):
		return "vms"
	case strings.HasSuffix(name, "_per_vs"):
		return "1/s"
	}
	return "count"
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM)
// from the current resident set, so peakRSSMB reads one rep's peak.
// Where /proc/self/clear_refs is not writable the count keeps the
// process's peak, which only raises the reading.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set since the last resetPeakRSS: VmHWM
// from /proc/self/status, or the process's ru_maxrss where that file
// is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(v, "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB is the heap the last garbage collection found live.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// contractLine is the last line of output: correct, attempted, failed
// and the given metrics, each as value and unit.
func contractLine(correct bool, attempted, failed int, ms map[string]metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for k, m := range ms {
		out.Metrics[k] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// contractMetrics picks the metrics of the last line. Untraced, they
// are the end-to-end host metrics, each a median over reps. Traced, they
// are the per-layer metrics plus the end-to-end virtual latencies: those
// repeat exactly for a seed (any change to them is a behaviour change,
// which bench/cmp reports), so they carry no noise bound. failed_ratio
// is carried by the failed and attempted counts.
func (res *result) contractMetrics() map[string]metric {
	ms := map[string]metric{}
	if res.Traced {
		for k, m := range res.Layers {
			ms[k] = m
		}
	}
	for k, m := range res.E2E {
		if k != "failed_ratio" && m.Host != res.Traced {
			ms[k] = m
		}
	}
	return ms
}

// printTable writes a result as aligned text.
func printTable(res *result) {
	fmt.Printf("%s seed=%d reps=%d correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Reps, res.Correct, res.Attempted, res.Failed)
	for _, group := range []map[string]metric{res.E2E, res.Layers} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group[k]
			fmt.Printf("  %-36s %14.6g  q1 %-12.6g q3 %-12.6g n %-7d %s\n", k, m.Value, m.Q1, m.Q3, m.N, m.Unit)
		}
	}
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak RSS and set-up time, and merges their reports
// (passed through a temporary directory under traceDir).
func runAll(traceDir string, args []string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(traceDir, "all-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rep := &report{Machine: thisMachine()}
	for _, sp := range specs {
		out := filepath.Join(tmp, sp.name+".json")
		cmd := exec.Command(exe, append([]string{"-workload", sp.name, "-out", out}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		r, err := readReport(out)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, r.Workloads...)
	}
	return rep, nil
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 22, "how long the timed reps run, in seconds")
	trace := flag.Int("trace", 0, "1 adds the traced reps and reports per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its CPU profiles and spans")
	out := flag.String("out", "", "also write the full report (quartiles, counts, machine) to this JSON file")
	flag.Parse()
	usage := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		usage("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		usage("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		usage("-seconds must be at least 1, got %d", *seconds)
	}
	var rep *report
	if *name == "all" {
		var err error
		rep, err = runAll(*traceDir, []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*trace), "-trace-dir", *traceDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	} else {
		var sp *spec
		for i := range specs {
			if specs[i].name == *name {
				sp = &specs[i]
			}
		}
		if sp == nil {
			names := make([]string, len(specs))
			for i, s := range specs {
				names[i] = s.name
			}
			usage("unknown -workload %q (want %s or all)", *name, strings.Join(names, ", "))
		}
		res, err := measure(*sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *name, err)
			os.Exit(1)
		}
		printTable(res)
		rep = &report{Machine: thisMachine(), Workloads: []*result{res}}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	correct, attempted, failed := true, 0, 0
	ms := map[string]metric{}
	for _, r := range rep.Workloads {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		for k, m := range r.contractMetrics() {
			if len(rep.Workloads) > 1 {
				k = r.Workload + "/" + k
			}
			ms[k] = m
		}
	}
	line, err := contractLine(correct, attempted, failed, ms)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}
