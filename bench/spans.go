package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// host nanoseconds since the tracer's origin; Parent is the span that
// was open around it (0 for none); Op is the workload op it served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Rep    int    `json:"rep"`
	Op     int    `json:"op"`
}

// tracer keeps the spans of the traced reps in memory. A nil *tracer
// records nothing, so the timed reps pay one nil check per call site.
// Workload bodies may record from several goroutines (grid workers,
// parallel shards).
type tracer struct {
	origin time.Time
	rep    int
	rootID int64
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span; close it with end.
func (t *tracer) begin(name string, parent int64, op int) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, Start: t.now(), ID: t.next.Add(1), Parent: parent, Rep: t.rep, Op: op}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root is the id of the open rep span, the parent of a workload's
// top-level spans.
func (t *tracer) root() int64 {
	if t == nil {
		return 0
	}
	return t.rootID
}

// durations returns the sorted durations of the named spans in unit
// (time.Microsecond, time.Millisecond, ...).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/float64(unit))
		}
	}
	sort.Float64s(d)
	return d
}

// write stores the spans as JSON lines, in the order they closed.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
