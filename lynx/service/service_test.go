package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/expt"
	"repro/internal/obs"
	"repro/lynx"
	"repro/lynx/fault"
	"repro/lynx/grid"
	"repro/lynx/load"
)

// startService spins up a daemon plus its HTTP surface for one test.
func startService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit POSTs a job request and decodes the response body.
func submit(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

// collectStream reads a job's stream to completion and splits it into
// envelopes and the verbatim result section.
func collectStream(t *testing.T, ts *httptest.Server, id string) (envs []envelope, result []string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pending := 0
	for sc.Scan() {
		line := sc.Text()
		if pending > 0 {
			result = append(result, line)
			pending--
			continue
		}
		var env envelope
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		envs = append(envs, env)
		if env.Type == "result" {
			pending = env.Lines
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return envs, result
}

// waitState polls a job over HTTP until it reaches want.
func waitState(t *testing.T, ts *httptest.Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func doneEnvelope(t *testing.T, envs []envelope) envelope {
	t.Helper()
	for _, e := range envs {
		if e.Type == "done" {
			return e
		}
	}
	t.Fatal("stream carried no done envelope")
	return envelope{}
}

// loadReq is the canonical small overload job used across tests.
func loadReq() JobRequest {
	return JobRequest{Kind: "load", Client: "tester", Load: &LoadJob{
		Substrates: []string{"charlotte"},
		Rates:      []float64{30, 60},
		Window:     "100ms",
		Seed:       1,
	}}
}

// loadWant renders the same sweep through the CLI path (lynx/load +
// grid.Run directly) — the byte-level contract the daemon must match.
func loadWant(t *testing.T) string {
	t.Helper()
	spec, err := load.SweepSpec(load.SweepOptions{
		Substrates: []lynx.Substrate{lynx.Charlotte},
		Rates:      []float64{30, 60},
		Window:     100 * lynx.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(grid.Run(spec).RenderJSONL(), "\n")
}

// The acceptance gate: a daemon load job streams a result table
// byte-identical to the CLI run of the same spec — cold, replayed from
// the cell cache, and at a different worker count.
func TestLoadJobByteIdenticalToCLI(t *testing.T) {
	want := loadWant(t)

	runOnce := func(ts *httptest.Server) (JobStatus, []envelope, []string) {
		resp, st := submit(t, ts, loadReq())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		envs, result := collectStream(t, ts, st.ID)
		final := waitState(t, ts, st.ID, StateDone)
		return final, envs, result
	}

	_, ts := startService(t, Config{Workers: 1})
	cold, coldEnvs, coldLines := runOnce(ts)
	if got := strings.Join(coldLines, "\n"); got != want {
		t.Fatalf("cold daemon table != CLI table:\n%s\nvs\n%s", got, want)
	}
	if cold.CacheMisses != 2 || cold.CacheHits != 0 {
		t.Fatalf("cold run cache = %d hits / %d misses, want 0/2", cold.CacheHits, cold.CacheMisses)
	}
	if d := doneEnvelope(t, coldEnvs); d.State != StateDone || d.CacheMisses != 2 {
		t.Fatalf("cold done envelope = %+v", d)
	}

	// Same sweep again: served entirely from the cell cache, same bytes.
	hit, _, hitLines := runOnce(ts)
	if got := strings.Join(hitLines, "\n"); got != want {
		t.Fatalf("cache-hit table != CLI table:\n%s\nvs\n%s", got, want)
	}
	if hit.CacheHits != 2 || hit.CacheMisses != 0 {
		t.Fatalf("replay cache = %d hits / %d misses, want 2/0", hit.CacheHits, hit.CacheMisses)
	}

	// A separate daemon with more workers: still the same bytes.
	_, wide := startService(t, Config{Workers: 3})
	_, _, wideLines := runOnce(wide)
	if got := strings.Join(wideLines, "\n"); got != want {
		t.Fatalf("worker count changed the table:\n%s\nvs\n%s", got, want)
	}
}

// An overlapping sweep pays only for the cells it has not seen. Cell
// seeds are positional (stream-split from the cell index), so the
// sharing pattern is extending a sweep: rates [30,60] then [30,60,90]
// reuses the first two cells and computes only the third.
func TestLoadJobOverlappingSweepIsIncremental(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	resp, st := submit(t, ts, loadReq())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateDone)

	over := loadReq()
	over.Load.Rates = []float64{30, 60, 90} // 30 and 60 cached, 90 fresh
	_, st2 := submit(t, ts, over)
	final := waitState(t, ts, st2.ID, StateDone)
	if final.CacheHits != 2 || final.CacheMisses != 1 {
		t.Fatalf("overlap cache = %d hits / %d misses, want 2/1", final.CacheHits, final.CacheMisses)
	}
}

// A grid job over the server-side echo body streams the same table an
// in-process grid.Run of the equivalent spec renders, and a replay is
// pure cache hits.
func TestGridEchoJobDeterministicAndCached(t *testing.T) {
	direct := grid.Run(grid.Spec{
		Axes: []grid.Axis{
			{Name: "payload", Values: []any{64, 1024}},
			{Name: "substrate", Values: []any{"charlotte", "soda"}},
		},
		Replicas: 2,
		RootSeed: 7,
		Body:     load.GridBodies()["echo"].Body,
	})
	want := strings.TrimRight(direct.RenderJSONL(), "\n")

	req := JobRequest{Kind: "grid", Client: "tester", Grid: &GridJob{
		Body: "echo",
		Axes: []GridAxis{
			{Name: "payload", Values: []any{64, 1024}},
			{Name: "substrate", Values: []any{"charlotte", "soda"}},
		},
		Replicas: 2,
		Seed:     7,
	}}
	_, ts := startService(t, Config{Workers: 2})
	resp, st := submit(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	_, result := collectStream(t, ts, st.ID)
	if got := strings.Join(result, "\n"); got != want {
		t.Fatalf("daemon grid table != in-process table:\n%s\nvs\n%s", got, want)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if final.CacheMisses != 4 || final.CacheHits != 0 {
		t.Fatalf("cold grid cache = %d hits / %d misses, want 0/4", final.CacheHits, final.CacheMisses)
	}
	if final.Total == 0 || final.Done != final.Total {
		t.Fatalf("progress = %d/%d, want complete", final.Done, final.Total)
	}

	_, st2 := submit(t, ts, req)
	_, replay := collectStream(t, ts, st2.ID)
	if got := strings.Join(replay, "\n"); got != want {
		t.Fatalf("cached grid table != in-process table")
	}
	if final2 := waitState(t, ts, st2.ID, StateDone); final2.CacheHits != 4 {
		t.Fatalf("replay cache hits = %d, want 4", final2.CacheHits)
	}

	// The per-job metrics rollup is served once the job is done.
	mresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("job metrics status = %d", mresp.StatusCode)
	}
}

// A finished grid job's /jobs/{id}/metrics body files each cell's
// pooled registry under its cell key: a plain counter, a histogram's
// count and a per-process block counter each read there exactly as the
// cell's own Agg.Merged reads them, a missing key reading 0, and no
// entry reads 0.
func TestJobMetricsMatchCells(t *testing.T) {
	direct := grid.Run(grid.Spec{
		Axes: []grid.Axis{
			{Name: "payload", Values: []any{64, 1024}},
			{Name: "substrate", Values: []any{"charlotte"}},
		},
		Replicas: 2,
		RootSeed: 5,
		Body:     load.GridBodies()["echo"].Body,
	})
	_, ts := startService(t, Config{Workers: 1})
	resp, st := submit(t, ts, JobRequest{Kind: "grid", Client: "tester", Grid: &GridJob{
		Body: "echo",
		Axes: []GridAxis{
			{Name: "payload", Values: []any{64, 1024}},
			{Name: "substrate", Values: []any{"charlotte"}},
		},
		Replicas: 2,
		Seed:     5,
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateDone)
	mresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("job metrics status = %d", mresp.StatusCode)
	}
	var got map[string]int64
	if err := json.NewDecoder(mresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(direct.Cells) != 2 {
		t.Fatalf("grid has %d cells, want 2", len(direct.Cells))
	}
	for name, v := range got {
		if v == 0 {
			t.Errorf("rollup carries %s = 0; zero entries are left out", name)
		}
	}
	for _, cr := range direct.Cells {
		m, key := cr.Agg.Merged, cr.Cell.Key()
		proc := -1
		for p := 0; p < 16 && proc < 0; p++ {
			if m.ProcValue(obs.MBindKernelSends, p) > 0 {
				proc = p
			}
		}
		if proc < 0 {
			t.Fatalf("%s: no process sent a kernel message", key)
		}
		for name, want := range map[string]int64{
			obs.MKernelMessages:                                    m.Value(obs.MKernelMessages),
			obs.MQueueWaitNs + "_count":                            m.Histogram(obs.MQueueWaitNs).Count(),
			fmt.Sprintf("%s{proc=%d}", obs.MBindKernelSends, proc): m.ProcValue(obs.MBindKernelSends, proc),
		} {
			// A missing key reads 0.
			if v := got[key+"/"+name]; v != want {
				t.Errorf("%s/%s = %d, want %d", key, name, v, want)
			}
		}
	}
}

// An experiment job streams the same record the expt harness produces
// in process.
func TestExptJobMatchesHarness(t *testing.T) {
	wantBytes, err := json.Marshal(expt.ByIDWith("E1", expt.Options{Reps: 2, RootSeed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startService(t, Config{Workers: 1})
	resp, st := submit(t, ts, JobRequest{Kind: "expt", Client: "tester", Expt: &ExptJob{
		ID: "e1", Reps: 2, Seed: 3,
	}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	_, result := collectStream(t, ts, st.ID)
	if len(result) != 1 {
		t.Fatalf("result lines = %d, want 1", len(result))
	}
	if result[0] != string(wantBytes) {
		t.Fatalf("daemon expt record != harness record:\n%s\nvs\n%s", result[0], wantBytes)
	}
}

// blockingJob parks the single worker until release is closed.
func blockingJob(release chan struct{}) *job {
	j := newJob("", "test", "blocker", "block", time.Now())
	j.run = func(s *Service, j *job) {
		select {
		case <-release:
			j.finish(StateDone, nil, nil)
		case <-j.ctx.Done():
			j.finish(StateCanceled, nil, j.ctx.Err())
		}
	}
	return j
}

// Backpressure: with the worker busy and the queue at its bound,
// submissions get 429 plus a Retry-After hint, and succeed again once
// the queue drains.
func TestSubmitBackpressure429(t *testing.T) {
	s, ts := startService(t, Config{Workers: 1, QueueLimit: 1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	defer close(release)

	blocker := blockingJob(release)
	if _, err := s.enqueue(blocker); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, blocker.id, StateRunning)

	resp, queued := submit(t, ts, loadReq())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first queued submit status = %d", resp.StatusCode)
	}
	resp2, _ := submit(t, ts, loadReq())
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit status = %d, want 429", resp2.StatusCode)
	}
	if got := resp2.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q", got, "2")
	}

	// Drain and verify the lane reopens.
	release <- struct{}{}
	waitState(t, ts, queued.ID, StateDone)
	resp3, _ := submit(t, ts, loadReq())
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit status = %d", resp3.StatusCode)
	}
}

// Cancellation: a queued job dies immediately; a running one stops via
// context cancellation, and its stream still terminates with a done
// envelope.
func TestCancelQueuedAndRunning(t *testing.T) {
	s, ts := startService(t, Config{Workers: 1, QueueLimit: 8})
	release := make(chan struct{})
	defer close(release)

	runner := blockingJob(release)
	if _, err := s.enqueue(runner); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, runner.id, StateRunning)

	_, queued := submit(t, ts, loadReq())
	del, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	st := waitState(t, ts, queued.ID, StateCanceled)
	if !st.CancelRequested {
		t.Fatal("canceled job must record cancel_requested")
	}

	// Now the running blocker: DELETE fires its context.
	del2, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+runner.id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(del2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	waitState(t, ts, runner.id, StateCanceled)
	envs, _ := collectStream(t, ts, runner.id)
	if d := doneEnvelope(t, envs); d.State != StateCanceled {
		t.Fatalf("done envelope state = %q, want canceled", d.State)
	}
}

// Validation failures surface as 400 at submit time, not as failed
// jobs.
// TestLoadJobDefaultFaults: a load job's fault list may say "default",
// as lynxload -faults does, and builds the same job as one that names
// every registered scenario.
func TestLoadJobDefaultFaults(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	key := func(faults []string) string {
		t.Helper()
		j, err := s.buildJob(JobRequest{Kind: "load", Load: &LoadJob{
			Substrates: []string{"charlotte"}, Rates: []float64{40}, Window: "200ms", Faults: faults,
		}}, "test", time.Unix(0, 0))
		if err != nil {
			t.Fatalf("faults %v: %v", faults, err)
		}
		j.cancel()
		return j.key
	}
	if def, all := key([]string{"default"}), key(fault.ScenarioNames()); def != all {
		t.Fatalf("default key = %q, want %q", def, all)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	cases := []JobRequest{
		{Kind: "nope"},
		{Kind: "expt"},
		{Kind: "expt", Expt: &ExptJob{ID: "E99"}},
		{Kind: "load", Load: &LoadJob{Substrates: []string{"warp"}, Rates: []float64{1}}},
		{Kind: "load", Load: &LoadJob{Substrates: []string{"soda"}, Rates: []float64{1}, Window: "banana"}},
		{Kind: "grid", Grid: &GridJob{Body: "echo", Axes: []GridAxis{{Name: "payload", Values: []any{64}}}}},
		{Kind: "grid", Grid: &GridJob{Body: "mystery"}},
	}
	for i, req := range cases {
		resp, _ := submit(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
		}
	}
}

// The list and service-metrics endpoints reflect submitted work.
func TestListAndMetricsEndpoints(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	_, st := submit(t, ts, loadReq())
	waitState(t, ts, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	err = json.NewDecoder(mresp.Body).Decode(&snap)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap[MJobsSubmitted] != 1 || snap[MJobsDone] != 1 {
		t.Fatalf("metrics = %v", snap)
	}
	if snap[MCacheMisses] != 2 {
		t.Fatalf("cache misses = %d, want 2", snap[MCacheMisses])
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hresp.StatusCode)
	}
}

// Submitting "all" experiments streams one line per catalog entry.
func TestExptAllStreamsWholeCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog run")
	}
	_, ts := startService(t, Config{Workers: 1})
	resp, st := submit(t, ts, JobRequest{Kind: "expt", Expt: &ExptJob{ID: "all", Reps: 1, Seed: 1}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	_, result := collectStream(t, ts, st.ID)
	if want := len(expt.Catalog()); len(result) != want {
		t.Fatalf("result lines = %d, want %d", len(result), want)
	}
	for i, line := range result {
		var r expt.Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
}

// Stream subscribers attaching after completion replay the full
// deterministic history.
func TestStreamReplayAfterCompletion(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	_, st := submit(t, ts, loadReq())
	waitState(t, ts, st.ID, StateDone)
	envs1, res1 := collectStream(t, ts, st.ID)
	envs2, res2 := collectStream(t, ts, st.ID)
	if fmt.Sprint(envs1) != fmt.Sprint(envs2) || strings.Join(res1, "\n") != strings.Join(res2, "\n") {
		t.Fatal("late subscribers must replay the identical stream")
	}
}
