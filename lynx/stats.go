package lynx

import (
	chbind "repro/internal/bind/charlotte"
	chrbind "repro/internal/bind/chrysalis"
	sodabind "repro/internal/bind/soda"
	"repro/internal/charlotte"
	"repro/internal/chrysalis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/soda"
)

// SystemStats is a substrate-neutral view of a run's kernel activity: a
// typed window onto the internal/obs metric registry plus, for callers
// that need the full substrate-specific breakdown, the typed kernel
// counter structs. Obtain one with System.Stats(); every accessor is
// safe on any substrate (the ones that do not apply report zero or nil).
type SystemStats struct {
	sys *System
}

// Stats returns the substrate-neutral statistics view: generic counters
// are read by obs metric name via Value, and the typed kernel structs
// are reachable through Charlotte/SODA/Chrysalis for the one substrate
// that is active.
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

// Charlotte returns the typed Charlotte kernel counters (nil on other
// substrates).
func (st SystemStats) Charlotte() *charlotte.Stats {
	if st.sys.charK == nil {
		return nil
	}
	return st.sys.charK.Stats()
}

// SODA returns the typed SODA kernel counters (nil on other substrates).
func (st SystemStats) SODA() *soda.Stats {
	if st.sys.sodaK == nil {
		return nil
	}
	return st.sys.sodaK.Stats()
}

// Chrysalis returns the typed Chrysalis kernel counters (nil on other
// substrates).
func (st SystemStats) Chrysalis() *chrysalis.Stats {
	if st.sys.chrK == nil {
		return nil
	}
	return st.sys.chrK.Stats()
}

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
func (ps ProcStats) Runtime() *core.Stats { return ps.p.RuntimeStats() }

// Value reads this process's per-process counter by its obs metric name
// (the binding-level obs.M* constants), 0 if never emitted.
func (ps ProcStats) Value(name string) int64 {
	return ps.p.sys.Metrics().ProcValue(name, ps.p.KernelPID())
}

// Charlotte returns the typed Charlotte binding counters (nil on other
// substrates).
func (ps ProcStats) Charlotte() *chbind.Stats {
	if ps.p.chTr == nil {
		return nil
	}
	return ps.p.chTr.Stats()
}

// SODA returns the typed SODA binding counters (nil on other substrates).
func (ps ProcStats) SODA() *sodabind.Stats {
	if ps.p.sodaTr == nil {
		return nil
	}
	return ps.p.sodaTr.Stats()
}

// Chrysalis returns the typed Chrysalis binding counters (nil on other
// substrates).
func (ps ProcStats) Chrysalis() *chrbind.Stats {
	if ps.p.chrTr == nil {
		return nil
	}
	return ps.p.chrTr.Stats()
}
