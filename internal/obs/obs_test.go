package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Active() {
		t.Fatal("nil recorder active")
	}
	r.Emit(Event{Kind: KindMark}) // must not panic
	r.Metrics().Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Histogram("h").Observe(3)
	if got := r.Metrics().Value("x"); got != 0 {
		t.Fatalf("nil metrics value = %d", got)
	}
	var c *Counter
	c.Inc()
	var h *Histogram
	h.Observe(10)
	if c.Value() != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if r.Metrics().Snapshot() != nil || r.Metrics().Names() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	m.Counter("a_total").Add(3)
	m.Counter("a_total").Inc()
	m.ProcCounters(NewCounterSet("b_total"), 2).Counter("b_total").Inc()
	m.Histogram("w_ns").Observe(100)
	m.Histogram("w_ns").Observe(300)
	if got := m.Value("a_total"); got != 4 {
		t.Fatalf("a_total = %d", got)
	}
	if got := m.ProcValue("b_total", 2); got != 1 {
		t.Fatalf("b_total{proc=2} = %d", got)
	}
	h := m.Histogram("w_ns")
	if h.Count() != 2 || h.Sum() != 400 || h.Mean() != 200 || h.Max() != 300 {
		t.Fatalf("histogram %d %v %v %v", h.Count(), h.Sum(), h.Mean(), h.Max())
	}
	snap := m.Snapshot()
	if snap["a_total"] != 4 || snap["w_ns_count"] != 2 || snap["w_ns_sum_ns"] != 400 {
		t.Fatalf("snapshot %v", snap)
	}
	want := []string{"a_total", "b_total{proc=2}", "w_ns"}
	if got := m.Names(); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("names %v", got)
	}
}

func TestRecorderEmitAndSinks(t *testing.T) {
	env := sim.NewEnv(1)
	r := NewRecorder(env, "testsub")
	rec1, rec2 := &RecordingSink{}, &RecordingSink{}
	if r.Active() {
		t.Fatal("active before attach")
	}
	r.Attach(rec1)
	r.Attach(rec2)
	env.Spawn("p", func(p *sim.Proc) {
		p.Delay(5 * sim.Microsecond)
		r.Emit(Event{Kind: KindPut, Proc: 1, Peer: 2, Bytes: 7})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, rs := range []*RecordingSink{rec1, rec2} {
		if len(rs.Events) != 1 {
			t.Fatalf("events = %d", len(rs.Events))
		}
		ev := rs.Events[0]
		if ev.At != sim.Time(5*sim.Microsecond) || ev.Substrate != "testsub" || ev.Kind != KindPut {
			t.Fatalf("event %+v", ev)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := &JSONLExporter{W: &buf}
	j.Event(Event{At: 42, Substrate: "soda", Kind: KindFreeze, Proc: 3, Detail: "x"})
	line := strings.TrimSpace(buf.String())
	var got Event
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindFreeze || got.At != 42 || got.Proc != 3 || got.Detail != "x" {
		t.Fatalf("round-trip %+v", got)
	}
}

func TestKindJSONNames(t *testing.T) {
	for k := KindUnknown; k <= KindMark; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
}

// chromeEntry is the part of a Chrome trace-array entry the tests read.
type chromeEntry struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
}

// chromeDoc decodes a Chrome trace document, failing unless it is one
// valid JSON value.
func chromeDoc(t *testing.T, b []byte) []chromeEntry {
	t.Helper()
	if !json.Valid(b) {
		t.Fatalf("invalid JSON: %s", b)
	}
	var doc struct {
		TraceEvents []chromeEntry `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.TraceEvents
}

func TestChromeStream(t *testing.T) {
	var buf bytes.Buffer
	c := NewChromeStream(&buf)
	c.Event(Event{At: sim.Time(1500), Substrate: "charlotte", Kind: KindKernelSend, Proc: 1, Link: 3})
	c.Event(Event{At: sim.Time(2500), Substrate: "charlotte", Kind: KindKernelDeliver, Proc: 2, Link: 3, Bytes: 10})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	evs := chromeDoc(t, buf.Bytes())
	if len(evs) != 2 || evs[0].Name != "kernel.send" || evs[0].Ph != "i" || evs[0].Ts != 1.5 || evs[1].Pid != 2 {
		t.Fatalf("chrome events %+v", evs)
	}

	// A stream that saw no events still closes as a complete document.
	var empty bytes.Buffer
	if err := NewChromeStream(&empty).Close(); err != nil {
		t.Fatal(err)
	}
	if evs := chromeDoc(t, empty.Bytes()); len(evs) != 0 {
		t.Fatalf("empty stream carried events %+v", evs)
	}
}

func TestTextExporterFormat(t *testing.T) {
	var buf bytes.Buffer
	te := &TextExporter{W: &buf}
	te.Event(Event{At: sim.Time(sim.Millisecond), Substrate: "soda", Kind: KindAccept, Proc: 2, Seq: 9, Bytes: 4})
	out := buf.String()
	if !strings.Contains(out, "soda") || !strings.Contains(out, "soda.accept") ||
		!strings.Contains(out, "p2") || !strings.Contains(out, "seq=9") {
		t.Fatalf("text %q", out)
	}
	// A mark that names its source is narration: source, then detail.
	buf.Reset()
	te.Event(Event{At: sim.Time(3 * sim.Millisecond), Substrate: "soda", Kind: KindMark, Src: "A", Detail: "moving link 3"})
	if got, want := buf.String(), "     3.000ms  A            moving link 3\n"; got != want {
		t.Fatalf("mark %q, want %q", got, want)
	}
}

// flushCounter wraps a buffer and counts Flush calls, standing in for
// a bufio.Writer.
type flushCounter struct {
	bytes.Buffer
	flushes int
	err     error
}

func (f *flushCounter) Flush() error { f.flushes++; return f.err }

// The JSONL exporter must push every event to the consumer as it
// arrives: one write and one flush per event, no whole-buffer
// accumulation, and a broken sink stops the stream via Err instead of
// panicking or spinning.
func TestJSONLExporterIncrementalFlush(t *testing.T) {
	w := &flushCounter{}
	j := &JSONLExporter{W: w}
	for i := 0; i < 3; i++ {
		j.Event(Event{Kind: KindKernelSend, Proc: i})
	}
	if w.flushes != 3 {
		t.Fatalf("flushes = %d, want one per event", w.flushes)
	}
	lines := strings.Split(strings.TrimRight(w.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), w.String())
	}
	if j.Err != nil {
		t.Fatalf("unexpected exporter error: %v", j.Err)
	}

	w.err = errors.New("consumer hung up")
	j.Event(Event{Kind: KindKernelSend, Proc: 9})
	if j.Err == nil {
		t.Fatal("flush error must surface in Err")
	}
	before := w.Len()
	j.Event(Event{Kind: KindKernelSend, Proc: 10})
	if w.Len() != before {
		t.Fatal("events after a sink error must be dropped")
	}
}
