package load

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/lynx"
)

// decodeEvent parses one JSONL line as an obs.Event, rejecting any field
// an event does not have (a dump header's "type", say).
func decodeEvent(line string) error {
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	var ev obs.Event
	return dec.Decode(&ev)
}

// A sampled-mode traced run streams well-formed JSONL events to its
// sink, ends with exactly one non-empty "run-complete" ring dump, and
// reports the same Result as the untraced run: recording is pure
// observation.
func TestTracedRunStreamsEventsAndDumpsAtEnd(t *testing.T) {
	o := Options{Substrate: lynx.Charlotte, Rate: 40, Window: 200 * lynx.Millisecond, Seed: 1}
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	var ev, dump bytes.Buffer
	o.Trace = &flight.Config{Mode: flight.Sampled, Sink: &obs.JSONLExporter{W: &ev}, DumpTo: &dump}
	traced, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	if ev.Len() == 0 {
		t.Fatal("sampled run exported no events")
	}
	for i, line := range strings.Split(strings.TrimSuffix(ev.String(), "\n"), "\n") {
		if err := decodeEvent(line); err != nil {
			t.Fatalf("event line %d %q: %v", i, line, err)
		}
	}

	lines := strings.Split(strings.TrimSuffix(dump.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("dump has %d lines, want a header and at least one event:\n%s", len(lines), dump.String())
	}
	var hdr struct{ Type, Reason string }
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Type != "dump" || hdr.Reason != "run-complete" {
		t.Fatalf("dump header %q (%v), want type dump, reason run-complete", lines[0], err)
	}
	for i, line := range lines[1:] {
		if err := decodeEvent(line); err != nil {
			t.Fatalf("dump line %d %q is not one event (a second header?): %v", i+1, line, err)
		}
	}

	plain.Metrics, traced.Metrics = nil, nil
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the result:\nplain  %+v\ntraced %+v", plain, traced)
	}
}
