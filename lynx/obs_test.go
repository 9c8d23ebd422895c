package lynx_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/lynx"
)

// runFigure1 replays the paper's figure 1 workload — link 3 moving at
// both ends simultaneously (A->B and D->C) — with the given sink
// attached to the system's recorder. It is the acceptance workload for
// the observability subsystem: every substrate emits kernel and
// protocol events for it.
func runFigure1(t *testing.T, sub lynx.Substrate, sink obs.Sink) {
	t.Helper()
	runFigure1Cfg(t, lynx.Config{Substrate: sub, Seed: 1}, sink)
}

// runFigure1Cfg is runFigure1 with a caller-supplied Config (the
// determinism tests replay it at several SimWorkers values).
func runFigure1Cfg(t *testing.T, cfg lynx.Config, sink obs.Sink) {
	t.Helper()
	sub := cfg.Substrate
	sys := lynx.NewSystem(cfg)
	sys.Obs().Attach(sink)
	a := sys.Spawn("A", func(th *lynx.Thread, boot []*lynx.End) {
		th.Connect(boot[0], "take3a", lynx.Msg{Links: []*lynx.End{boot[1]}})
		th.Destroy(boot[0])
	})
	d := sys.Spawn("D", func(th *lynx.Thread, boot []*lynx.End) {
		th.Connect(boot[0], "take3d", lynx.Msg{Links: []*lynx.End{boot[1]}})
		th.Destroy(boot[0])
	})
	b := sys.Spawn("B", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			return
		}
		l3 := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		if _, err := th.Connect(l3, "hello", lynx.Msg{Data: []byte("B")}); err != nil {
			return
		}
		th.Destroy(l3)
	})
	c := sys.Spawn("C", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			return
		}
		l3 := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		r2, err := th.Receive(l3)
		if err != nil {
			return
		}
		th.Reply(r2, lynx.Msg{Data: append(r2.Data(), []byte("-C")...)})
	})
	sys.Join(a, b)
	sys.Join(d, c)
	sys.Join(a, d)
	if err := sys.Run(); err != nil {
		t.Fatalf("%v: run: %v", sub, err)
	}
}

// TestJSONLDeterminism: the same seed must produce a byte-identical
// JSONL event stream, on every substrate. This is what makes traces
// diffable across runs and the golden-trace workflow possible.
func TestJSONLDeterminism(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		t.Run(sub.String(), func(t *testing.T) {
			var run1, run2 bytes.Buffer
			runFigure1(t, sub, &obs.JSONLExporter{W: &run1})
			runFigure1(t, sub, &obs.JSONLExporter{W: &run2})
			if run1.Len() == 0 {
				t.Fatal("no events emitted")
			}
			if !bytes.Equal(run1.Bytes(), run2.Bytes()) {
				t.Errorf("same seed produced different JSONL streams:\nrun1 %d bytes, run2 %d bytes",
					run1.Len(), run2.Len())
			}
			// Every line must be a standalone JSON object.
			for _, line := range strings.Split(strings.TrimRight(run1.String(), "\n"), "\n") {
				if !json.Valid([]byte(line)) {
					t.Fatalf("invalid JSONL line: %s", line)
				}
			}
		})
	}
}

// TestChromeExport: the Chrome trace of a simultaneous-move run must be
// valid JSON, show events from both moving link ends, and keep
// timestamps non-decreasing (virtual time never runs backwards).
func TestChromeExport(t *testing.T) {
	var buf bytes.Buffer
	ch := obs.NewChromeStream(&buf)
	runFigure1(t, lynx.Charlotte, ch)
	if err := ch.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome export is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Args struct {
				Detail string `json:"detail"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawEnd0, sawEnd1 bool
	last := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.Ts < last {
			t.Fatalf("timestamps run backwards: %v after %v", ev.Ts, last)
		}
		last = ev.Ts
		if strings.Contains(ev.Args.Detail, "end<3.0>") {
			sawEnd0 = true
		}
		if strings.Contains(ev.Args.Detail, "end<3.1>") {
			sawEnd1 = true
		}
	}
	if !sawEnd0 || !sawEnd1 {
		t.Errorf("want events from both moving ends of link 3; saw end<3.0>=%v end<3.1>=%v",
			sawEnd0, sawEnd1)
	}
}

// TestMetricsSnapshot: the registry the experiments read must be
// reachable through the public API and populated after a run, without
// any sink attached (counters are always on; events are opt-in).
func TestMetricsSnapshot(t *testing.T) {
	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Charlotte, Seed: 1})
	a := sys.Spawn("A", func(th *lynx.Thread, boot []*lynx.End) {
		th.Connect(boot[0], "ping", lynx.Msg{})
		th.Destroy(boot[0])
	})
	b := sys.Spawn("B", func(th *lynx.Thread, boot []*lynx.End) {
		th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{})
		})
	})
	sys.Join(a, b)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.Value(obs.MKernelMessages) == 0 {
		t.Errorf("kernel_messages_total = 0 after a remote op")
	}
	if a.Stats().Value(obs.MBindKernelSends)+b.Stats().Value(obs.MBindKernelSends) == 0 {
		t.Errorf("no per-proc %s counters after a remote op", obs.MBindKernelSends)
	}
	snap := m.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
}
