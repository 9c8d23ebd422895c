package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// collectTrace reads a job's trace stream to completion and returns the
// raw JSONL lines.
func collectTrace(t *testing.T, url, id string) []string {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content-type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestTraceEndpointStreamsEventsAndDumps: a sampled-mode load job
// serves its trace at /jobs/{id}/trace — well-formed JSONL where every
// line is either an obs.Event or a {"type":"dump"} ring dump, with at
// least one of each (the load bodies dump the ring at run completion).
func TestTraceEndpointStreamsEventsAndDumps(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	req := loadReq()
	req.Load.Trace = "sampled"
	resp, st := submit(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	final := waitState(t, ts, st.ID, StateDone)
	if final.TraceLines == 0 {
		t.Fatal("finished sampled job reports no trace lines")
	}

	lines := collectTrace(t, ts.URL, st.ID)
	if len(lines) != final.TraceLines {
		t.Fatalf("trace stream = %d lines, status reports %d", len(lines), final.TraceLines)
	}
	events, dumps, dumped := 0, 0, 0
	for i, line := range lines {
		var probe struct {
			Type string `json:"type"`
			Ring int    `json:"ring"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", i, err)
		}
		if probe.Type == "dump" {
			dumps++
			dumped = probe.Ring
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %d is not an event: %v", i, err)
		}
		events++
	}
	if events == 0 {
		t.Error("trace carried no sampled events")
	}
	if dumps == 0 || dumped == 0 {
		t.Errorf("trace carried %d dumps (last ring %d), want a non-empty end-of-run dump", dumps, dumped)
	}

	// The trace replays identically for a late subscriber.
	if again := collectTrace(t, ts.URL, st.ID); strings.Join(again, "\n") != strings.Join(lines, "\n") {
		t.Error("late trace subscriber saw a different stream")
	}
}

// TestTraceEndpointRejectsUntracedJob: jobs submitted without a trace
// mode have no trace stream — 404, not an empty 200.
func TestTraceEndpointRejectsUntracedJob(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	_, st := submit(t, ts, loadReq())
	waitState(t, ts, st.ID, StateDone)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced trace status = %d, want 404", resp.StatusCode)
	}
}

// TestTraceModeValidation: an unknown trace mode fails at submit time.
func TestTraceModeValidation(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})
	req := loadReq()
	req.Load.Trace = "verbose"
	resp, _ := submit(t, ts, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad trace mode status = %d, want 400", resp.StatusCode)
	}
}

// TestTraceModeSharesCache: like SimWorkers, the trace mode is an
// observation knob, not a workload parameter — recording never changes
// results, so a sampled job submitted after a full-mode job must be
// served entirely from the cells the first job populated, with the
// identical key and byte-identical table.
func TestTraceModeSharesCache(t *testing.T) {
	_, ts := startService(t, Config{Workers: 1})

	runWith := func(mode string) (JobStatus, []string) {
		req := loadReq()
		req.Load.Trace = mode
		resp, st := submit(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %d", resp.StatusCode)
		}
		_, result := collectStream(t, ts, st.ID)
		return waitState(t, ts, st.ID, StateDone), result
	}

	full, fullLines := runWith("full")
	if full.CacheMisses != 2 || full.CacheHits != 0 {
		t.Fatalf("full run cache = %d hits / %d misses, want 0/2", full.CacheHits, full.CacheMisses)
	}

	sampled, sampledLines := runWith("sampled")
	if sampled.CacheHits != 2 || sampled.CacheMisses != 0 {
		t.Fatalf("sampled cache = %d hits / %d misses, want 2/0 (trace mode leaked into the cache identity)",
			sampled.CacheHits, sampled.CacheMisses)
	}
	if sampled.Key != full.Key {
		t.Fatalf("trace mode leaked into the job key:\n%s\nvs\n%s", sampled.Key, full.Key)
	}
	if got, want := strings.Join(sampledLines, "\n"), strings.Join(fullLines, "\n"); got != want {
		t.Fatalf("trace mode changed the table:\n%s\nvs\n%s", got, want)
	}
}

// TestTraceFollowerEndsOnQueuedCancel: a trace follower attached to a
// traced job while it is still queued returns, having read no lines,
// once the job is canceled — reaching a terminal state wakes trace
// followers, not only stream ones. The request carries a deadline, so
// a follower that is never woken fails the test instead of hanging it.
func TestTraceFollowerEndsOnQueuedCancel(t *testing.T) {
	s := New(Config{Workers: 1, QueueLimit: 8})
	h := s.Handler()
	following := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trace") {
			following <- struct{}{}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	release := make(chan struct{})
	defer close(release)
	runner := blockingJob(release)
	if _, err := s.enqueue(runner); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, runner.id, StateRunning)
	req := loadReq()
	req.Load.Trace = "sampled"
	_, queued := submit(t, ts, req)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type followed struct {
		lines int
		err   error
	}
	done := make(chan followed, 1)
	go func() {
		n, err := followLines(ctx, ts.URL+"/jobs/"+queued.ID+"/trace")
		done <- followed{n, err}
	}()
	<-following
	time.Sleep(20 * time.Millisecond) // let the follower wait on the trace log
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatalf("no job %s to cancel", queued.ID)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("trace follower did not return when the queued job was canceled: %v", got.err)
	}
	if got.lines != 0 {
		t.Fatalf("trace follower read %d lines from a job that never ran, want 0", got.lines)
	}
}

// followLines reads a JSONL endpoint to its end and counts its lines.
func followLines(ctx context.Context, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}
