// Package service is lynxd's engine: a resident simulation service
// that accepts experiment and load jobs over a message-style HTTP/JSON
// API, schedules them through a bounded worker pool with fair
// FIFO-per-client queueing and 429 backpressure, memoizes completed
// grid cells so repeated and overlapping sweeps are incremental, and
// streams progress and results back as JSONL.
//
// The paper's lesson — a small message-based interface beats a rich
// one — is applied one level up: the whole API is five verbs over
// JSON lines.
//
//	POST   /jobs             submit (202 + status; 429 + Retry-After when full)
//	GET    /jobs             list job statuses
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/stream JSONL: envelopes + verbatim result lines (chunked)
//	GET    /jobs/{id}/metrics  per-job pooled obs registry snapshot
//	DELETE /jobs/{id}        cancel (context cancellation; cells are the grain)
//	GET    /metrics          service registry snapshot
//	GET    /healthz          liveness
//
// Determinism is the contract: a job is executed by the same
// lynx/grid + lynx/sweep machinery the CLIs use, with the same
// stream-split seeds, so a daemon-run sweep produces byte-identical
// result tables to the equivalent CLI invocation at any worker count —
// cold or served from the cell cache. The stream frames verbatim
// result lines behind a {"type":"result","lines":N} envelope, so
// clients can extract exactly the CLI bytes.
package service

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// Service metric names (the /metrics registry).
const (
	MJobsSubmitted = "lynxd_jobs_submitted_total"
	MJobsRejected  = "lynxd_jobs_rejected_total"
	MJobsDone      = "lynxd_jobs_done_total"
	MJobsFailed    = "lynxd_jobs_failed_total"
	MJobsCanceled  = "lynxd_jobs_canceled_total"
	MCacheHits     = "lynxd_cache_hits_total"
	MCacheMisses   = "lynxd_cache_misses_total"
)

// Config parameterizes the service. The zero value is a working
// daemon: GOMAXPROCS workers, a 64-job queue, a 4096-cell cache.
type Config struct {
	// Workers is the number of jobs executed concurrently. Worker count
	// changes throughput only, never results — each job's seeds are
	// stream-split from its own spec.
	Workers int
	// QueueLimit bounds the number of queued (not yet running) jobs;
	// past it, submissions get 429 + Retry-After instead of unbounded
	// queue growth.
	QueueLimit int
	// CacheCells bounds the cell result cache (entries, FIFO eviction).
	CacheCells int
	// RetryAfter is the backpressure hint returned with 429. Default 1s.
	RetryAfter time.Duration
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.CacheCells <= 0 {
		c.CacheCells = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Service is the resident job engine. Create with New, serve its
// Handler, Close on shutdown.
type Service struct {
	cfg   Config
	queue *fairQueue
	cache *cellCache

	// statsMu guards stats: obs.Metrics is single-writer by design (it
	// lives inside one simulation), so the service keeps its own
	// lock-guarded counters for the concurrent HTTP world.
	statsMu sync.Mutex
	stats   map[string]int64

	// ready carries one token per queued job; its capacity equals the
	// queue bound so push never blocks.
	ready chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job ids in submission order, for GET /jobs
	seq    int
	closed bool
}

// New starts a Service: cfg.Workers goroutines draining the fair queue.
func New(cfg Config) *Service {
	cfg = cfg.normalized()
	s := &Service{
		cfg:   cfg,
		queue: newFairQueue(cfg.QueueLimit),
		cache: newCellCache(cfg.CacheCells),
		stats: map[string]int64{},
		ready: make(chan struct{}, cfg.QueueLimit),
		quit:  make(chan struct{}),
		jobs:  map[string]*job{},
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting jobs, cancels everything outstanding, and waits
// for the workers to drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	close(s.quit)
	s.wg.Wait()
	// Queued jobs the workers never picked up terminate as canceled.
	for q := s.queue.pop(); q != nil; q = s.queue.pop() {
		q.finish(StateCanceled, nil, fmt.Errorf("service shut down"))
		s.noteTerminal(q)
	}
}

// worker drains the fair queue until shutdown.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ready:
			j := s.queue.pop()
			if j == nil {
				continue
			}
			s.runJob(j)
		case <-s.quit:
			return
		}
	}
}

// runJob executes one job end to end.
func (s *Service) runJob(j *job) {
	j.mu.Lock()
	if j.terminal() {
		j.mu.Unlock()
		return // canceled while queued
	}
	j.state = StateRunning
	j.mu.Unlock()
	j.emit(envelope{Type: "status", ID: j.id, State: StateRunning})
	j.run(s, j)
	s.noteTerminal(j)
}

// noteTerminal tallies a job's terminal state into the service
// counters exactly once, however the job got there (worker completion
// or a cancel racing one).
func (s *Service) noteTerminal(j *job) {
	j.mu.Lock()
	if j.counted || !j.terminal() {
		j.mu.Unlock()
		return
	}
	j.counted = true
	state := j.state
	j.mu.Unlock()
	switch state {
	case StateDone:
		s.count(MJobsDone)
	case StateFailed:
		s.count(MJobsFailed)
	case StateCanceled:
		s.count(MJobsCanceled)
	}
}

// count bumps one service counter.
func (s *Service) count(name string) {
	s.statsMu.Lock()
	s.stats[name]++
	s.statsMu.Unlock()
}

// statsSnapshot copies the service counters.
func (s *Service) statsSnapshot() map[string]int64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	snap := make(map[string]int64, len(s.stats))
	for k, v := range s.stats {
		snap[k] = v
	}
	return snap
}

// cacheHook builds the grid Hook injecting the cell cache into a job's
// run: identical (body, cell, seeds) aggregates are reused, fresh cells
// are computed and stored, and a canceled job context short-circuits
// remaining cells (cancellation's grain is the cell boundary).
func (s *Service) cacheHook(j *job, bodyID string, replicas int, root uint64) func(c grid.Cell, run func() *sweep.Aggregate) *sweep.Aggregate {
	return func(c grid.Cell, run func() *sweep.Aggregate) *sweep.Aggregate {
		if err := j.ctx.Err(); err != nil {
			return &sweep.Aggregate{
				Values: map[string]sweep.Stat{},
				Merged: obs.NewMetrics(),
				Errs:   []error{err},
			}
		}
		key := cellKey(bodyID, c, replicas, root)
		if agg, ok := s.cache.get(key); ok {
			j.mu.Lock()
			j.cacheHits++
			j.mu.Unlock()
			s.count(MCacheHits)
			return agg
		}
		j.mu.Lock()
		j.cacheMisses++
		j.mu.Unlock()
		s.count(MCacheMisses)
		agg := run()
		if len(agg.Errs) == 0 {
			s.cache.put(key, agg)
		}
		return agg
	}
}

// finishGridJob folds a completed grid table into the job's terminal
// state: canceled if the job context was canceled, failed on the first
// replica error, otherwise done with the table's JSONL rendering as the
// verbatim result section and every cell's pooled registry snapshot,
// each name prefixed by its cell key, as the metrics rollup. Entries
// that read 0 are left out; a reader takes a missing key as 0, as
// Metrics.Value does.
func (s *Service) finishGridJob(j *job, tbl *grid.Table) {
	if err := j.ctx.Err(); err != nil {
		j.finish(StateCanceled, nil, err)
		return
	}
	if tbl.Errs() > 0 {
		for _, cr := range tbl.Cells {
			if len(cr.Agg.Errs) > 0 {
				j.finish(StateFailed, nil, fmt.Errorf("%s: %v", cr.Cell.Key(), cr.Agg.Errs[0]))
				return
			}
		}
	}
	rollup := make(map[string]int64)
	for _, cr := range tbl.Cells {
		prefix := cr.Cell.Key() + "/"
		for name, v := range cr.Agg.Merged.Snapshot() {
			if v != 0 {
				rollup[prefix+name] = v
			}
		}
	}
	j.mu.Lock()
	j.rollup = rollup
	j.mu.Unlock()
	j.finish(StateDone, splitLines(tbl.RenderJSONL()), nil)
}

// Submit validates, registers, and enqueues a job, returning its
// status. The error is ErrQueueFull when backpressure applies, or a
// validation error.
func (s *Service) Submit(req JobRequest, client string) (JobStatus, error) {
	j, err := s.buildJob(req, client, time.Now())
	if err != nil {
		return JobStatus{}, &badRequestError{err}
	}
	return s.enqueue(j)
}

// ErrQueueFull is returned (wrapped) when the admission queue is at its
// bound; HTTP maps it to 429 + Retry-After.
var ErrQueueFull = fmt.Errorf("queue full")

type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }

// enqueue registers j and admits it to the fair queue.
func (s *Service) enqueue(j *job) (JobStatus, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service is shutting down")
	}
	s.seq++
	j.id = fmt.Sprintf("j%06d", s.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	if !s.queue.push(j.client, j) {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.count(MJobsRejected)
		return JobStatus{}, ErrQueueFull
	}
	s.count(MJobsSubmitted)
	j.emit(envelope{Type: "job", ID: j.id, Kind: j.kind, Key: j.key, State: StateQueued})
	s.ready <- struct{}{}
	return j.status(), nil
}

// job looks a job up by id.
func (s *Service) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Cancel requests cancellation of a job: queued jobs terminate
// immediately, running jobs stop at the next cell boundary.
func (s *Service) Cancel(id string) (JobStatus, bool) {
	j := s.job(id)
	if j == nil {
		return JobStatus{}, false
	}
	j.mu.Lock()
	j.cancelRequested = true
	queued := j.state == StateQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		j.finish(StateCanceled, nil, fmt.Errorf("canceled while queued"))
		s.noteTerminal(j)
	}
	return j.status(), true
}

// Handler returns the HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// clientKey derives the fair-queue lane from the remote address (the
// host without the port, so one machine is one lane by default).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad job request: %v", err)
		return
	}
	st, err := s.Submit(req, clientKey(r))
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, "queue full (%d jobs pending); retry later", s.cfg.QueueLimit)
	default:
		if _, ok := err.(*badRequestError); ok {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	rollup := j.rollup
	j.mu.Unlock()
	if rollup == nil {
		writeError(w, http.StatusNotFound, "job %s has no metrics rollup (not finished, failed, or not a grid job)", j.id)
		return
	}
	writeJSON(w, http.StatusOK, rollup)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.statsSnapshot()
	snap["lynxd_cache_entries"] = int64(s.cache.len())
	snap["lynxd_queue_depth"] = int64(s.queue.depth())
	writeJSON(w, http.StatusOK, snap)
}

// handleTrace streams the job's flight-recorder trace as JSONL: replay
// of everything recorded so far, then live follow until the job reaches
// a terminal state or the client hangs up. Only jobs submitted with a
// trace mode have a trace; others get 404.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if !j.traced {
		writeError(w, http.StatusNotFound, "job %s was not submitted with a trace mode", j.id)
		return
	}
	j.follow(r.Context(), w, &j.trace)
}

// handleStream replays the job's full line history and then follows
// live appends as chunked JSONL, so clients see progress as it
// happens; it returns when the job reaches a terminal state (after
// emitting its "done" envelope) or the client hangs up.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.follow(r.Context(), w, &j.stream)
}
