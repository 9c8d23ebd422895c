package obs

import "repro/internal/sim"

// TraceAdapter bridges free-text sim.Env.Trace annotations into a
// Recorder as mark events, so user commentary lands in the same JSONL
// or Chrome stream as the typed kernel events. It implements
// sim.Tracer; install it with Env.SetTracer.
type TraceAdapter struct {
	R *Recorder
}

// Resume implements sim.Tracer (scheduling is not exported).
func (a *TraceAdapter) Resume(sim.Time, int, string) {}

// Event implements sim.Tracer. The event is stamped with the tracer's
// own timestamp (not the recorder env's clock): replayed parallel-run
// trace callbacks arrive after the env clock has moved on.
func (a *TraceAdapter) Event(now sim.Time, source, msg string) {
	a.R.EmitAt(now, Event{Kind: KindMark, Src: source, Detail: msg})
}
