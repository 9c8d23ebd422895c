package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TextExporter renders events as human-readable lines, one per event:
// virtual time, source (the substrate when the event names none), then
// the event. A mark that names its source is free-text narration and
// prints as just its detail, so narration and typed kernel events
// interleave cleanly in one terminal stream.
type TextExporter struct {
	W io.Writer
}

// Event implements Sink.
func (t *TextExporter) Event(ev Event) {
	src, text := ev.Src, ev.Detail
	if ev.Kind != KindMark || src == "" {
		text = ev.text()
	}
	if src == "" {
		src = ev.Substrate
	}
	fmt.Fprintf(t.W, "%12v  %-12s %s\n", ev.At, src, text)
}

// JSONLExporter writes one JSON object per event per line, directly to
// W as events arrive — it never accumulates the whole stream, so
// million-event runs export in constant memory. Field order is fixed by
// the Event struct, so a deterministic run produces a byte-identical
// stream.
//
// When W exposes a Flush() error method (a bufio.Writer, say), the
// exporter calls it after every event, so a consumer tailing the stream
// sees each event as soon as it is recorded rather than at buffer
// boundaries.
type JSONLExporter struct {
	W io.Writer
	// Err records the first write or flush error; once set, subsequent
	// events are dropped (the stream is broken — typically the consumer
	// hung up).
	Err error

	buf []byte
}

// flusher matches bufio.Writer-style sinks.
type flusher interface{ Flush() error }

// Event implements Sink.
func (j *JSONLExporter) Event(ev Event) {
	if j.Err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	// Reuse one scratch buffer for the line so steady-state export does
	// not allocate beyond what encoding/json needs.
	j.buf = append(j.buf[:0], b...)
	j.buf = append(j.buf, '\n')
	if _, err := j.W.Write(j.buf); err != nil {
		j.Err = err
		return
	}
	j.Err = j.Flush()
}

// Flush forwards to W's Flush method when it has one (no-op otherwise),
// pushing buffered bytes to the consumer incrementally.
func (j *JSONLExporter) Flush() error {
	if w, ok := j.W.(flusher); ok {
		return w.Flush()
	}
	return nil
}

// chromeEvent is one entry in the traceEvents array. Args is a map, but
// encoding/json sorts map keys, so output stays deterministic.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"` // always 0: events carry no thread id
	Scope string         `json:"s"`
	Args  map[string]any `json:"args,omitempty"`
}

// newChromeEvent converts one typed event into its trace-array entry:
// a thread-scoped instant event, with virtual nanoseconds mapped onto
// trace microseconds.
func newChromeEvent(ev Event) chromeEvent {
	ce := chromeEvent{
		Name:  ev.Kind.String(),
		Cat:   ev.Substrate,
		Ph:    "i",
		Ts:    float64(ev.At) / 1e3, // virtual ns -> trace µs
		Pid:   ev.Proc,
		Scope: "t",
	}
	if ce.Cat == "" {
		ce.Cat = "trace"
	}
	args := make(map[string]any)
	if ev.Src != "" {
		args["src"] = ev.Src
	}
	if ev.Peer != 0 {
		args["peer"] = ev.Peer
	}
	if ev.Link != 0 {
		args["link"] = ev.Link
	}
	if ev.Seq != 0 {
		args["seq"] = ev.Seq
	}
	if ev.Bytes != 0 {
		args["bytes"] = ev.Bytes
	}
	if ev.Wait != 0 {
		args["wait_ns"] = int64(ev.Wait)
	}
	if ev.Detail != "" {
		args["detail"] = ev.Detail
	}
	if len(args) > 0 {
		ce.Args = args
	}
	return ce
}

// ChromeStream renders events as Chrome trace-event JSON (the "JSON
// Array Format", loadable in Perfetto or chrome://tracing)
// incrementally: each event is written (and flushed, when W supports
// it) as it arrives, so a long run streams in constant memory. The
// format tolerates a missing closing bracket, so even an aborted stream
// loads in Perfetto; Close writes the proper terminator.
type ChromeStream struct {
	W io.Writer
	// Err records the first write error; once set, events are dropped.
	Err error

	started bool
}

// NewChromeStream creates a streaming exporter over w.
func NewChromeStream(w io.Writer) *ChromeStream { return &ChromeStream{W: w} }

// Event implements Sink.
func (c *ChromeStream) Event(ev Event) {
	if c.Err != nil {
		return
	}
	sep := ",\n"
	if !c.started {
		sep = "{\"traceEvents\":[\n"
		c.started = true
	}
	b, err := json.Marshal(newChromeEvent(ev))
	if err != nil {
		return
	}
	if _, err := io.WriteString(c.W, sep); err != nil {
		c.Err = err
		return
	}
	if _, err := c.W.Write(b); err != nil {
		c.Err = err
		return
	}
	if w, ok := c.W.(flusher); ok {
		c.Err = w.Flush()
	}
}

// Close terminates the JSON array. Safe on an empty stream.
func (c *ChromeStream) Close() error {
	if c.Err != nil {
		return c.Err
	}
	doc := "{\"traceEvents\":[]}\n"
	if c.started {
		doc = "\n]}\n"
	}
	if _, err := io.WriteString(c.W, doc); err != nil {
		c.Err = err
	}
	return c.Err
}

// RecordingSink keeps events in memory for test assertions.
type RecordingSink struct {
	Events []Event
}

// Event implements Sink.
func (r *RecordingSink) Event(ev Event) { r.Events = append(r.Events, ev) }
