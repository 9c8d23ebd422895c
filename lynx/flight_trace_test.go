package lynx_test

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/lynx"
)

// trioRounds is how many round trips each echo-trio client makes under
// the flight recorder: enough events that a 1-in-flight.SampleK sample
// is non-empty yet strict.
const trioRounds = 60

// runTrioFlight runs the echo-trio workload (three independent
// client/server pairs — the partitionable shape, see runEchoTrio) with
// the given recorder mode, its export sink a JSONL exporter, and
// returns the exported trace plus whether the run partitioned.
func runTrioFlight(t *testing.T, cfg lynx.Config, mode flight.Mode, rounds int) ([]byte, *flight.Recorder, bool) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Trace = &flight.Config{Mode: mode, Sink: &obs.JSONLExporter{W: &buf}}
	sys := lynx.NewSystem(cfg)
	spawnEchoTrio(t, sys, rounds)
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf.Bytes(), sys.Flight(), sys.Partitioned()
}

// TestFlightFullModeMatchesDirectTrace: a full-mode flight recorder is
// a pass-through — the JSONL stream leaving it is byte-identical to the
// stream an exporter attached directly to the obs recorder sees. This
// is the "full mode is today's behavior" contract that keeps the
// scheduler goldens valid for traced runs.
func TestFlightFullModeMatchesDirectTrace(t *testing.T) {
	cfg := lynx.Config{Substrate: lynx.Ideal, Seed: 7}
	got, fr, _ := runTrioFlight(t, cfg, flight.Full, 3)

	// The identical workload, untraced, with the exporter attached
	// directly to the obs recorder (runEchoTrio's wiring).
	want, _ := runEchoTrio(t, cfg)
	if len(want) == 0 {
		t.Fatal("untraced run emitted nothing")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("full-mode trace differs from direct trace: %d bytes vs %d", len(got), len(want))
	}
	if fr.Seen() != fr.Exported() {
		t.Errorf("full mode: seen %d != exported %d", fr.Seen(), fr.Exported())
	}
}

// TestSampledTraceWorkerInvariance is the tentpole determinism gate for
// sampled mode: the same seed must export the byte-identical 1-in-K
// trace at SimWorkers 1, 2 and 4 — with the run partitioned, so the
// parallel engine runs its shards at the higher counts — because
// sampling hashes ordinals in the engine's deterministic replay order,
// not arrival order.
func TestSampledTraceWorkerInvariance(t *testing.T) {
	trace := func(workers int) []byte {
		cfg := lynx.Config{Substrate: lynx.Ideal, Seed: 7, SimWorkers: workers}
		got, fr, partitioned := runTrioFlight(t, cfg, flight.Sampled, trioRounds)
		if !partitioned {
			t.Fatalf("Partitioned() = false at SimWorkers=%d, want true", workers)
		}
		if fr.Exported() == 0 || fr.Exported() >= fr.Seen() {
			t.Fatalf("SimWorkers=%d: exported %d of %d seen — not a strict sample",
				workers, fr.Exported(), fr.Seen())
		}
		return got
	}
	base := trace(1)
	if len(base) == 0 {
		t.Fatalf("no events sampled at SimWorkers=1 (K=%d)", flight.SampleK)
	}
	for _, workers := range []int{2, 4} {
		if got := trace(workers); !bytes.Equal(got, base) {
			t.Errorf("sampled trace differs at SimWorkers=%d: got %d bytes, want %d",
				workers, len(got), len(base))
		}
	}
}

// TestCountersModeExportsNothing: counters-only still rings and counts
// but forwards no events downstream.
func TestCountersModeExportsNothing(t *testing.T) {
	cfg := lynx.Config{Substrate: lynx.Ideal, Seed: 7}
	got, fr, _ := runTrioFlight(t, cfg, flight.Counters, trioRounds)
	if len(got) != 0 {
		t.Errorf("counters mode exported %d bytes", len(got))
	}
	if fr.Seen() == 0 || fr.RingLen() == 0 {
		t.Errorf("counters mode saw %d events, ring %d — want both nonzero", fr.Seen(), fr.RingLen())
	}
	if fr.Exported() != 0 {
		t.Errorf("counters mode exported %d events", fr.Exported())
	}
}
