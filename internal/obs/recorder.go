package obs

import "repro/internal/sim"

// Sink consumes typed events. Exporters implement it; a Recorder fans
// each emitted event out to every attached sink.
type Sink interface {
	Event(ev Event)
}

// Recorder ties a metrics registry and a set of event sinks to one
// simulation environment. Each kernel owns one (created in its
// constructor), the kernel's bindings share it, and lynx.System exposes
// the active one via Obs(). With no sinks attached — the default — the
// event path costs one nil/len check and the metrics still count, so
// instrumented hot paths stay cheap.
//
// The nil *Recorder is valid everywhere: Emit is a no-op and Metrics
// returns the nil (no-op) registry.
type Recorder struct {
	env   *sim.Env
	sub   string
	m     *Metrics
	sinks []Sink
}

// NewRecorder creates a recorder for the given substrate label with a
// fresh metrics registry and no sinks.
func NewRecorder(env *sim.Env, substrate string) *Recorder {
	return &Recorder{env: env, sub: substrate, m: NewMetrics()}
}

// Metrics returns the recorder's registry (nil-safe).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.m
}

// Substrate returns the substrate label.
func (r *Recorder) Substrate() string {
	if r == nil {
		return ""
	}
	return r.sub
}

// Attach adds a sink; every subsequent event goes to it.
func (r *Recorder) Attach(s Sink) {
	if r != nil && s != nil {
		r.sinks = append(r.sinks, s)
	}
}

// Active reports whether any sink is attached — the gate instrumented
// code checks before building an Event.
func (r *Recorder) Active() bool { return r != nil && len(r.sinks) > 0 }

// DetailHinter is an optional Sink refinement: a sink that discards
// some events' Detail strings (a counters-only or sampled flight
// recorder) reports whether the NEXT event's Detail will be kept, so
// instrumented sites can skip fmt work nobody will ever read.
type DetailHinter interface {
	WantDetail() bool
}

// WantDetail reports whether any attached sink will keep the next
// event's Detail string. Sites check it (after Active) around Detail
// construction only — the event itself is still emitted either way.
// The "next event" prediction is exact because delivery is serial and
// a site emits immediately after the check, with no simulation step in
// between. Under sequenced (parallel-replay) delivery events are
// buffered and delivered later, so "next" is unknowable at the call
// site — and racy to guess — hence always true there: parallel runs
// pay full Detail cost but stay byte-identical at any worker count.
func (r *Recorder) WantDetail() bool {
	if !r.Active() {
		return false
	}
	if r.env != nil && (r.env.Sequencing() || r.env.ParallelRunning()) {
		// Sequencing: this recorder's own env is a shard mid-run.
		// ParallelRunning: the recorder holds the partitioned ROOT env
		// (kernel recorders do) while shard contexts call in — consulting
		// the hinters from concurrent shards would both mispredict and
		// data-race, so parallel runs always pay full Detail cost.
		return true
	}
	for _, s := range r.sinks {
		h, ok := s.(DetailHinter)
		if !ok || h.WantDetail() {
			return true
		}
	}
	return false
}

// Emit stamps the event with the current virtual time and the
// recorder's substrate, then fans it out. No-op when inactive.
func (r *Recorder) Emit(ev Event) {
	if !r.Active() { // also guards the nil receiver before touching r.env
		return
	}
	r.EmitEnv(r.env, ev)
}

// EmitEnv is Emit reading the clock of env instead of the recorder's
// own env. Instrumented code executing on a shard env of a parallel
// partition emits through the shard (whose clock is the one advancing);
// the event is then sequenced into the shard's log and delivered in the
// engine's (time, shard) merge order, so sink output is byte-identical
// at any worker count.
func (r *Recorder) EmitEnv(env *sim.Env, ev Event) {
	if !r.Active() {
		return
	}
	ev.At = env.Now()
	if ev.Substrate == "" {
		ev.Substrate = r.sub
	}
	if env.Sequencing() {
		env.Sequenced(func() { r.deliver(ev) })
		return
	}
	r.deliver(ev)
}

func (r *Recorder) deliver(ev Event) {
	for _, s := range r.sinks {
		s.Event(ev)
	}
}

// Counter is shorthand for Metrics().Counter(name).
func (r *Recorder) Counter(name string) *Counter { return r.Metrics().Counter(name) }

// Histogram is shorthand for Metrics().Histogram(name).
func (r *Recorder) Histogram(name string) *Histogram { return r.Metrics().Histogram(name) }
