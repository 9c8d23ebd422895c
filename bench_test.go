// Package repro's root benchmark suite: one testing.B benchmark per
// experiment row in DESIGN.md's per-experiment index (E1-E11), each
// regenerating the corresponding table/figure of the paper, plus
// micro-benchmarks of the simulation engine itself.
//
// Experiment benchmarks report two things: the Go implementation's real
// cost of regenerating the result (ns/op), and — via custom metrics —
// the headline virtual-time measurements, so `go test -bench .` prints
// the paper's numbers alongside.
package repro

import (
	"testing"

	"repro/internal/expt"
	"repro/internal/sim"
	"repro/lynx"
)

// benchExperiment runs experiment id once per iteration at its paper
// seeds, failing the bench if the measured shape stops matching the
// paper.
func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := expt.ByIDWith(id, expt.Options{})
		if !r.Pass {
			b.Fatalf("%s: shape mismatch:\n%s", r.ID, r.Render())
		}
	}
}

// BenchmarkE1_CharlotteLatency regenerates §3.3's latency table.
func BenchmarkE1_CharlotteLatency(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2_EnclosureProtocol regenerates figure 2's message counts.
func BenchmarkE2_EnclosureProtocol(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3_SodaCrossover regenerates §4.3's sweep and crossover.
func BenchmarkE3_SodaCrossover(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4_ChrysalisLatency regenerates §5.3's latency table.
func BenchmarkE4_ChrysalisLatency(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5_CodeSize regenerates the implementation-size comparison.
func BenchmarkE5_CodeSize(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6_SimultaneousMove regenerates figure 1 on all substrates.
func BenchmarkE6_SimultaneousMove(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7_UnwantedMessages regenerates the screening comparison.
func BenchmarkE7_UnwantedMessages(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8_EnclosureLoss regenerates the lost-enclosure scenario.
func BenchmarkE8_EnclosureLoss(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9_ChrysalisTuning regenerates the tuning ablation.
func BenchmarkE9_ChrysalisTuning(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10_HintHeuristics regenerates the hint-repair economics.
func BenchmarkE10_HintHeuristics(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11_Fairness regenerates the queue-fairness measurement.
func BenchmarkE11_Fairness(b *testing.B) { benchExperiment(b, "E11") }

// benchRPC measures the real (wall-clock) cost of simulated LYNX remote
// operations on one substrate, and reports the virtual-time RTT as a
// custom metric (the paper's number).
func benchRPC(b *testing.B, sub lynx.Substrate, payload int) {
	b.ReportAllocs()
	var virtualMS float64
	ops := 0
	for i := 0; i < b.N; i++ {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
		data := make([]byte, payload)
		const opsPerRun = 10
		var rtt lynx.Duration
		c := sys.Spawn("c", func(t *lynx.Thread, boot []*lynx.End) {
			for j := 0; j < opsPerRun; j++ {
				start := t.Now()
				if _, err := t.Connect(boot[0], "op", lynx.Msg{Data: data}); err != nil {
					b.Error(err)
					return
				}
				rtt = lynx.Duration(t.Now() - start)
			}
			t.Destroy(boot[0])
		})
		s := sys.Spawn("s", func(t *lynx.Thread, boot []*lynx.End) {
			t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(c, s)
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		virtualMS = rtt.Milliseconds()
		ops += opsPerRun
	}
	b.ReportMetric(virtualMS, "virtual-ms/op")
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "sim-rpc/s")
}

// BenchmarkRPC_Charlotte_0B: simple remote op, Charlotte (paper: 57 ms).
func BenchmarkRPC_Charlotte_0B(b *testing.B) { benchRPC(b, lynx.Charlotte, 0) }

// BenchmarkRPC_Charlotte_1KB: 1000 B each way (paper: 65 ms).
func BenchmarkRPC_Charlotte_1KB(b *testing.B) { benchRPC(b, lynx.Charlotte, 1000) }

// BenchmarkRPC_SODA_0B: simple remote op, SODA (paper predicts ≈3x
// faster than Charlotte).
func BenchmarkRPC_SODA_0B(b *testing.B) { benchRPC(b, lynx.SODA, 0) }

// BenchmarkRPC_SODA_1KB: 1000 B each way, near the crossover.
func BenchmarkRPC_SODA_1KB(b *testing.B) { benchRPC(b, lynx.SODA, 1000) }

// BenchmarkRPC_Chrysalis_0B: simple remote op, Chrysalis (paper: 2.4 ms).
func BenchmarkRPC_Chrysalis_0B(b *testing.B) { benchRPC(b, lynx.Chrysalis, 0) }

// BenchmarkRPC_Chrysalis_1KB: 1000 B each way (paper: 4.6 ms).
func BenchmarkRPC_Chrysalis_1KB(b *testing.B) { benchRPC(b, lynx.Chrysalis, 1000) }

// BenchmarkRPC_Ideal_0B: the perfect-kernel baseline.
func BenchmarkRPC_Ideal_0B(b *testing.B) { benchRPC(b, lynx.Ideal, 0) }

// BenchmarkSimEngine measures the raw discrete-event scheduler:
// timer-driven proc wakeups per second.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv(1)
	const procs = 8
	for i := 0; i < procs; i++ {
		env.Spawn("p", func(p *sim.Proc) {
			for {
				p.Delay(sim.Microsecond)
			}
		})
	}
	b.ResetTimer()
	// Each RunUntil step advances by b.N microsecond-ticks across procs.
	if err := env.RunUntil(sim.Time(b.N) * sim.Time(sim.Microsecond) / procs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWireEncode measures the message codec.
func BenchmarkWireEncode(b *testing.B) {
	b.ReportAllocs()
	m := &wireMsgForBench
	for i := 0; i < b.N; i++ {
		buf, err := m.AppendEncoded(nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := decodeWireForBench(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_PairLimits regenerates the §4.2.1 limit-pressure table
// (extension experiment: the paper predicted, we measure).
func BenchmarkE12_PairLimits(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13_DiscoverLoss regenerates the discover-success-vs-loss
// sweep (extension experiment: §4.2's open question, answered).
func BenchmarkE13_DiscoverLoss(b *testing.B) { benchExperiment(b, "E13") }
