package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/load"
)

// JobRequest is the POST /jobs body: a kind selector plus the matching
// spec block. Client, when set, names the fair-queue lane the job joins
// (unset falls back to the submitter's remote address, so separate
// machines are separate lanes by default).
type JobRequest struct {
	Kind   string   `json:"kind"` // "expt" | "grid" | "load"
	Client string   `json:"client,omitempty"`
	Expt   *ExptJob `json:"expt,omitempty"`
	Grid   *GridJob `json:"grid,omitempty"`
	Load   *LoadJob `json:"load,omitempty"`
}

// ExptJob runs catalogued experiments: one of the paper's E1..E13 by
// id, or "all" for the full catalog, optionally replicated. The result
// stream carries one JSON line per experiment Result — the same record
// `lynxbench -json` renders.
type ExptJob struct {
	ID       string `json:"id"`
	Reps     int    `json:"reps,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
}

// GridAxis mirrors grid.Axis for the wire: JSON numbers that are whole
// become ints (so keys render "payload=1024", matching in-process
// specs), other numbers stay floats, strings stay strings.
type GridAxis struct {
	Name   string `json:"name"`
	Values []any  `json:"values"`
}

// GridJob runs a configuration grid over a registered body. Bodies are
// server-side (functions cannot travel in JSON): "echo" measures one
// echo round trip per replica over substrate/payload axes.
type GridJob struct {
	Body     string     `json:"body"`
	Axes     []GridAxis `json:"axes"`
	Replicas int        `json:"replicas,omitempty"`
	Seed     uint64     `json:"seed,omitempty"`
	Parallel int        `json:"parallel,omitempty"`
	// Trace engages the flight recorder for every cell run: "full",
	// "sampled" or "counters" ("" = off). The live event stream and ring
	// dumps are served at GET /jobs/{id}/trace as JSONL. Recording never
	// changes results, so — like Parallel — the mode is excluded from
	// the job key and the cell-cache identity.
	Trace string `json:"trace,omitempty"`
}

// LoadJob runs the substrate × offered-rate overload sweep — exactly
// the grid `lynxload -rates` builds, so the streamed result table is
// byte-identical to the CLI run of the same options. Faults optionally
// crosses the sweep with fault scenarios (registered names like
// "drop10", inline fault-plan strings, or "default" for every
// registered scenario), mirroring `lynxload -faults`.
type LoadJob struct {
	Substrates []string  `json:"substrates"`
	Rates      []float64 `json:"rates"`
	Window     string    `json:"window,omitempty"` // Go duration, default "1s"
	Mix        string    `json:"mix,omitempty"`    // kind=weight pairs, default load.DefaultMix
	Seed       uint64    `json:"seed,omitempty"`
	Parallel   int       `json:"parallel,omitempty"`
	Faults     []string  `json:"faults,omitempty"` // scenario names or inline plans
	// Trace engages the flight recorder for every cell run: "full",
	// "sampled" or "counters" ("" = off). The live event stream and ring
	// dumps are served at GET /jobs/{id}/trace as JSONL. Like Parallel,
	// the mode never changes results and is excluded from the job key
	// and the cell-cache body identity: a sampled job hits the cache
	// entries a full-mode (or untraced) job populated.
	Trace string `json:"trace,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the GET /jobs/{id} record (also embedded in submit
// responses and the job list).
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Client string `json:"client"`
	// Key names the job's workload identity: the overload sweep key for
	// load jobs, body+fingerprint for grid jobs, the experiment id for
	// expt jobs.
	Key             string `json:"key"`
	State           string `json:"state"`
	CancelRequested bool   `json:"cancel_requested,omitempty"`
	Done            int    `json:"progress_done"`
	Total           int    `json:"progress_total"`
	CacheHits       int64  `json:"cache_hits"`
	CacheMisses     int64  `json:"cache_misses"`
	ResultLines     int    `json:"result_lines"`
	TraceLines      int    `json:"trace_lines,omitempty"`
	Error           string `json:"error,omitempty"`
	Submitted       string `json:"submitted"`
}

// job is the daemon-side state of one submission. Its two logs are
// append-only: every subscriber replays one from the start and then
// follows live appends, so a client attaching after completion still
// reads the full deterministic stream.
type job struct {
	id     string
	kind   string
	client string
	key    string

	ctx       context.Context
	cancel    context.CancelFunc
	submitted time.Time
	// run executes the job body; it must end by calling j.finish.
	run func(s *Service, j *job)

	// traced marks a job submitted with a trace mode; GET
	// /jobs/{id}/trace is 404 otherwise.
	traced bool

	mu              sync.Mutex
	state           string
	cancelRequested bool
	// counted guards the service-level terminal-state counters: a job
	// can reach a terminal state from either the worker or a cancel
	// racing it, and must be tallied exactly once.
	counted     bool
	errText     string
	resultLines int
	// stream is the /jobs/{id}/stream log (envelopes and result lines);
	// trace is the /jobs/{id}/trace log (event and ring-dump lines).
	stream      lineLog
	trace       lineLog
	done        int
	total       int
	cacheHits   int64
	cacheMisses int64
	// rollup is the per-job metric snapshot (every cell's pooled
	// registry, each name under its cell-key prefix), served at
	// /jobs/{id}/metrics; nil until the job is done.
	rollup map[string]int64
}

func newJob(id, kind, client, key string, now time.Time) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id: id, kind: kind, client: client, key: key,
		ctx: ctx, cancel: cancel, submitted: now,
		state:  StateQueued,
		stream: lineLog{changed: make(chan struct{})},
		trace:  lineLog{changed: make(chan struct{})},
	}
}

// lineLog is one of a job's append-only logs of JSONL lines (no
// trailing newlines). Lines are shared by every follower and never
// mutated. Its fields are guarded by the owning job's mu.
type lineLog struct {
	lines   [][]byte
	changed chan struct{} // closed and replaced on every append
}

// add appends lines and wakes the log's followers; the caller holds
// the job's mu.
func (l *lineLog) add(lines ...[]byte) {
	if len(lines) == 0 {
		return
	}
	l.lines = append(l.lines, lines...)
	l.wake()
}

// wake releases every follower waiting on the log.
func (l *lineLog) wake() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// log appends lines to one of the job's logs in one lock acquisition,
// so a multi-line ring dump lands atomically.
func (j *job) log(l *lineLog, lines ...[]byte) {
	j.mu.Lock()
	l.add(lines...)
	j.mu.Unlock()
}

// follow writes l to w from its start, then follows live appends,
// flushing after every batch; it returns when the job reaches a
// terminal state or ctx ends (the client hung up). Lines, terminal
// state and the wake channel are read under one j.mu hold, so no
// append between them is missed.
func (j *job) follow(ctx context.Context, w http.ResponseWriter, l *lineLog) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	fl, _ := w.(http.Flusher)
	i := 0
	for {
		j.mu.Lock()
		lines := l.lines[i:]
		i = len(l.lines)
		terminal := j.terminal()
		changed := l.changed
		j.mu.Unlock()
		for _, ln := range lines {
			// Two writes, not append(ln, '\n'): lines are shared across
			// subscribers and must never be mutated (append could write
			// into spare capacity of the shared backing array).
			if _, err := w.Write(ln); err != nil {
				return
			}
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return
			}
		}
		if len(lines) > 0 && fl != nil {
			fl.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return
		}
	}
}

// emit marshals an envelope record onto the stream.
func (j *job) emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	j.log(&j.stream, b)
}

// jobTraceSink adapts the job trace stream to obs.Sink: each exported
// event becomes one JSONL line. Marshalling happens outside the job
// lock, so concurrent cells of a parallel sweep can export at once —
// lines from different cells interleave, but each line is whole.
type jobTraceSink struct{ j *job }

func (t jobTraceSink) Event(ev obs.Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	t.j.log(&t.j.trace, b)
}

// jobTraceWriter adapts the job trace stream to io.Writer for ring
// dumps: the buffer (one dump = one Write, by the flight recorder's
// dump contract) is split into lines and appended atomically. Bytes
// are copied — the recorder reuses its dump buffer.
type jobTraceWriter struct{ j *job }

func (t jobTraceWriter) Write(p []byte) (int, error) {
	t.j.log(&t.j.trace, splitLines(string(p))...)
	return len(p), nil
}

// traceConfig builds the flight thread-through config wiring a job's
// trace destinations (nil for mode Off).
func (j *job) traceConfig(mode flight.Mode) *flight.Config {
	if mode == flight.Off {
		return nil
	}
	return &flight.Config{
		Mode:   mode,
		Sink:   jobTraceSink{j},
		DumpTo: jobTraceWriter{j},
	}
}

// envelope is the typed stream record. Verbatim result lines carry no
// "type" key; everything else on the stream is an envelope.
type envelope struct {
	Type        string `json:"type"`
	ID          string `json:"id,omitempty"`
	Kind        string `json:"kind,omitempty"`
	Key         string `json:"key,omitempty"`
	State       string `json:"state,omitempty"`
	Done        int    `json:"done,omitempty"`
	Total       int    `json:"total,omitempty"`
	Lines       int    `json:"lines,omitempty"`
	CacheHits   int64  `json:"cache_hits,omitempty"`
	CacheMisses int64  `json:"cache_misses,omitempty"`
	Error       string `json:"error,omitempty"`
}

// progress records replica completion and emits a progress envelope.
func (j *job) progress(done, total int) {
	j.mu.Lock()
	if done > j.done {
		j.done = done
	}
	j.total = total
	j.mu.Unlock()
	j.emit(envelope{Type: "progress", Done: done, Total: total})
}

// terminal reports whether the job reached a final state.
func (j *job) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// finish transitions the job to a terminal state, appending the result
// section (a "result" envelope announcing the verbatim line count, then
// the lines byte-for-byte) and the closing "done" envelope.
func (j *job) finish(state string, result [][]byte, err error) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	if err != nil {
		j.errText = err.Error()
	}
	j.resultLines = len(result)
	var lines [][]byte
	if len(result) > 0 {
		head, _ := json.Marshal(envelope{Type: "result", Lines: len(result)})
		lines = append([][]byte{head}, result...)
	}
	tail, _ := json.Marshal(envelope{
		Type: "done", State: state, Error: j.errText,
		CacheHits: j.cacheHits, CacheMisses: j.cacheMisses,
	})
	j.stream.add(append(lines, tail)...)
	// Wake trace followers too: they return at terminal state and would
	// otherwise wait for a trace line that never comes.
	j.trace.wake()
	j.mu.Unlock()
}

// status snapshots the job for the HTTP status endpoints.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, Kind: j.kind, Client: j.client, Key: j.key,
		State: j.state, CancelRequested: j.cancelRequested,
		Done: j.done, Total: j.total,
		CacheHits: j.cacheHits, CacheMisses: j.cacheMisses,
		ResultLines: j.resultLines, TraceLines: len(j.trace.lines),
		Error:     j.errText,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
	}
}

// splitLines turns a rendered multi-line string into stream lines.
func splitLines(s string) [][]byte {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return nil
	}
	parts := strings.Split(s, "\n")
	out := make([][]byte, len(parts))
	for i, p := range parts {
		out[i] = []byte(p)
	}
	return out
}

// buildJob validates a request and constructs the runnable job.
func (s *Service) buildJob(req JobRequest, client string, now time.Time) (*job, error) {
	if req.Client != "" {
		client = req.Client
	}
	switch req.Kind {
	case "expt":
		if req.Expt == nil {
			return nil, fmt.Errorf("kind %q needs an %q block", "expt", "expt")
		}
		return buildExptJob(*req.Expt, client, now)
	case "grid":
		if req.Grid == nil {
			return nil, fmt.Errorf("kind %q needs a %q block", "grid", "grid")
		}
		return s.buildGridJob(*req.Grid, client, now)
	case "load":
		if req.Load == nil {
			return nil, fmt.Errorf("kind %q needs a %q block", "load", "load")
		}
		return s.buildLoadJob(*req.Load, client, now)
	default:
		return nil, fmt.Errorf("unknown job kind %q (want expt, grid or load)", req.Kind)
	}
}

// buildExptJob validates and constructs a catalog-experiment job.
// Experiment runs are not cell-cached (they flow through the expt
// harness, not the grid runner); cancellation is honored while queued
// and between experiments of an "all" run.
func buildExptJob(spec ExptJob, client string, now time.Time) (*job, error) {
	id := strings.ToUpper(strings.TrimSpace(spec.ID))
	all := strings.EqualFold(spec.ID, "all")
	if _, ok := expt.Lookup(id); !all && !ok {
		return nil, fmt.Errorf("unknown experiment %q (want E1..E%d or all)", spec.ID, len(expt.Catalog()))
	}
	opts := expt.Options{Parallel: spec.Parallel, Reps: spec.Reps, RootSeed: spec.Seed}
	key := fmt.Sprintf("expt:%s reps=%d seed=%d", strings.ToLower(id), max(1, spec.Reps), defaultSeed(spec.Seed))
	j := newJob("", "expt", client, key, now)
	j.run = func(s *Service, j *job) {
		if j.ctx.Err() != nil {
			j.finish(StateCanceled, nil, j.ctx.Err())
			return
		}
		var results []*expt.Result
		if all {
			results = expt.AllWith(opts)
		} else {
			results = []*expt.Result{expt.ByIDWith(id, opts)}
		}
		lines := make([][]byte, 0, len(results))
		for _, r := range results {
			b, err := json.Marshal(r)
			if err != nil {
				j.finish(StateFailed, nil, err)
				return
			}
			lines = append(lines, b)
		}
		j.progress(len(results), len(results))
		j.finish(StateDone, lines, nil)
	}
	return j, nil
}

// buildLoadJob validates and constructs an overload-sweep job.
func (s *Service) buildLoadJob(spec LoadJob, client string, now time.Time) (*job, error) {
	subs := make([]lynx.Substrate, 0, len(spec.Substrates))
	for _, name := range spec.Substrates {
		sub, err := lynx.ParseSubstrate(name)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	window := lynx.Duration(0)
	if spec.Window != "" {
		d, err := time.ParseDuration(spec.Window)
		if err != nil {
			return nil, fmt.Errorf("bad window %q: %v", spec.Window, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("window must be positive, got %s", d)
		}
		window = lynx.Duration(d)
	}
	var mix *load.Mix
	if spec.Mix != "" {
		m, err := load.ParseMix(spec.Mix)
		if err != nil {
			return nil, err
		}
		mix = m
	}
	plans, err := fault.ParseScenarios(spec.Faults)
	if err != nil {
		return nil, err
	}
	opts := load.SweepOptions{
		Substrates: subs,
		Rates:      spec.Rates,
		Window:     window,
		Mix:        mix,
		Seed:       spec.Seed,
		Parallel:   spec.Parallel,
		Faults:     plans,
	}
	mode, err := flight.ParseMode(spec.Trace)
	if err != nil {
		return nil, err
	}
	// Validate eagerly so submit reports bad specs as 400, not as a
	// failed job.
	gspec, err := load.SweepSpec(opts)
	if err != nil {
		return nil, err
	}
	key := opts.Key()
	// Everything outside the axes that shapes a cell's result belongs in
	// the cache body identity; the seed-bearing parts are keyed per cell.
	// The trace mode is deliberately absent from both the key and the
	// body identity: recording never changes results, so a sampled job
	// must hit the cells a full-mode or untraced job populated.
	bodyID := fmt.Sprintf("load|window=%s|mix=%s",
		keyField(key, "window"), keyField(key, "mix"))
	j := newJob("", "load", client, key, now)
	j.traced = mode != flight.Off
	j.run = func(s *Service, j *job) {
		run := gspec
		run.Hook = s.cacheHook(j, bodyID, 1, defaultSeed(run.RootSeed))
		run.Progress = j.progress
		run.Trace = j.traceConfig(mode)
		tbl := grid.Run(run)
		s.finishGridJob(j, tbl)
	}
	return j, nil
}

// keyField extracts "name=value" values from a canonical sweep key.
func keyField(key, name string) string {
	for _, part := range strings.Fields(key) {
		if v, ok := strings.CutPrefix(part, name+"="); ok {
			return v
		}
	}
	return ""
}

// buildGridJob validates and constructs a declarative-grid job. Bodies
// come from the shared load.GridBodies registry, so a grid submitted
// to the daemon runs the same cell function cmd/lynxload runs
// in-process.
func (s *Service) buildGridJob(spec GridJob, client string, now time.Time) (*job, error) {
	bodies := load.GridBodies()
	bdef, ok := bodies[spec.Body]
	if !ok {
		names := make([]string, 0, len(bodies))
		for n := range bodies {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown grid body %q (have %s)", spec.Body, strings.Join(names, ", "))
	}
	if spec.Replicas < 0 {
		return nil, fmt.Errorf("negative replicas %d", spec.Replicas)
	}
	axes := make([]grid.Axis, 0, len(spec.Axes))
	seen := map[string]bool{}
	for _, a := range spec.Axes {
		if a.Name == "" || len(a.Values) == 0 {
			return nil, fmt.Errorf("axis needs a name and at least one value")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		vals := make([]any, len(a.Values))
		for i, v := range a.Values {
			vals[i] = normalizeAxisValue(v)
		}
		axes = append(axes, grid.Axis{Name: a.Name, Values: vals})
	}
	for _, want := range bdef.Axes {
		if !seen[want] {
			return nil, fmt.Errorf("body %q needs axis %q", spec.Body, want)
		}
	}
	// Validate every cell's axis values up front (substrate names,
	// integer payloads) so bad specs fail the submit, not the run.
	if err := validateCells(spec.Body, axes); err != nil {
		return nil, err
	}
	mode, err := flight.ParseMode(spec.Trace)
	if err != nil {
		return nil, err
	}
	gspec := grid.Spec{
		Name:     "lynxd " + spec.Body,
		Axes:     axes,
		Replicas: spec.Replicas,
		Parallel: spec.Parallel,
		RootSeed: spec.Seed,
		Body:     bdef.Body,
	}
	key := fmt.Sprintf("grid:%s seed=%d fp=%s", spec.Body, defaultSeed(spec.Seed), grid.Fingerprint(gspec)[:16])
	bodyID := "grid:" + spec.Body
	j := newJob("", "grid", client, key, now)
	j.traced = mode != flight.Off
	j.run = func(s *Service, j *job) {
		run := gspec
		run.Hook = s.cacheHook(j, bodyID, normReplicas(run.Replicas), defaultSeed(run.RootSeed))
		run.Progress = j.progress
		run.Trace = j.traceConfig(mode)
		tbl := grid.Run(run)
		s.finishGridJob(j, tbl)
	}
	return j, nil
}

// validateCells dry-checks body-specific axis values.
func validateCells(body string, axes []grid.Axis) error {
	for _, a := range axes {
		for _, v := range a.Values {
			switch a.Name {
			case "substrate":
				if _, err := lynx.ParseSubstrate(fmt.Sprint(v)); err != nil {
					return err
				}
			case "payload":
				n, ok := v.(int)
				if !ok || n < 0 {
					return fmt.Errorf("payload axis values must be non-negative integers, got %v", v)
				}
			case "scenario":
				if _, err := fault.ParseScenario(fmt.Sprint(v)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// normalizeAxisValue maps JSON decoding artifacts onto the value types
// in-process specs use: whole float64s become ints (so cell keys render
// "payload=1024" identically in both worlds).
func normalizeAxisValue(v any) any {
	if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return int(f)
	}
	return v
}

func defaultSeed(s uint64) uint64 {
	if s == 0 {
		return 1
	}
	return s
}

func normReplicas(r int) int {
	if r <= 0 {
		return 1
	}
	return r
}
