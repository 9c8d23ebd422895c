package lynx

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// SystemStats is a substrate-neutral view of a run's kernel activity: a
// window onto the internal/obs metric registry, read by metric name.
// Obtain one with System.Stats(); every accessor is safe on any
// substrate (a counter the substrate never emits reads zero).
type SystemStats struct {
	sys *System
}

// Stats returns the substrate-neutral statistics view.
func (s *System) Stats() SystemStats { return SystemStats{sys: s} }

// Substrate reports which kernel the system runs on.
func (st SystemStats) Substrate() Substrate { return st.sys.cfg.Substrate }

// Metrics returns the underlying obs registry (nil-safe: lookups on a
// nil registry report zero).
func (st SystemStats) Metrics() *obs.Metrics { return st.sys.Metrics() }

// Value reads a kernel-level counter by its obs metric name (the obs.M*
// constants), 0 if the substrate never emits it.
func (st SystemStats) Value(name string) int64 { return st.sys.Metrics().Value(name) }

// Bytes reports payload bytes moved by the kernel — the one headline
// counter every substrate emits (obs.MKernelBytes).
func (st SystemStats) Bytes() int64 { return st.Value(obs.MKernelBytes) }

// ProcStats is the per-process counterpart of SystemStats: run-time
// package counters plus this process's slice of the obs registry
// (per-process metrics are keyed by kernel pid). Obtain one with
// ProcRef.Stats().
type ProcStats struct {
	p *ProcRef
}

// Stats returns the process's substrate-neutral statistics view.
func (p *ProcRef) Stats() ProcStats { return ProcStats{p: p} }

// Runtime returns the run-time package counters (zero before Run).
func (ps ProcStats) Runtime() *core.Stats {
	if ps.p.proc == nil {
		return &core.Stats{}
	}
	return ps.p.proc.Stats()
}

// Value reads this process's per-process counter by its obs metric name
// (the binding-level obs.M* constants), 0 if never emitted.
func (ps ProcStats) Value(name string) int64 {
	return ps.p.sys.Metrics().ProcValue(name, ps.p.KernelPID())
}
