package lynx_test

import (
	"bytes"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/obs"
	"repro/lynx"
	"repro/lynx/fault"
)

// updateGolden regenerates the scheduler-determinism golden traces:
//
//	go test ./lynx -run TestSchedulerGoldenTraces -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden traces")

// compareGolden pins got against the named golden file (rewriting it
// under -update-golden).
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if len(got) == 0 {
		t.Fatal("no events emitted")
	}
	golden.Check(t, filepath.Join("testdata", name), got, *updateGolden)
}

// TestSchedulerGoldenTraces pins the exact JSONL event stream of the
// figure-1 workload on every substrate, at SimWorkers 1, 2, and 4. The
// golden files were recorded before the fast-path scheduler rewrite
// (PR 2) and before the parallel engine existed; any scheduling-order
// or virtual-time drift in the discrete-event engine shows up here as a
// byte-level diff, and so would any worker-count dependence (figure 1
// is a single connected component — nothing to split on any substrate —
// so every worker count must collapse to the identical serial run).
// Regenerate deliberately with -update-golden.
func TestSchedulerGoldenTraces(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis, lynx.Ideal} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", sub, workers), func(t *testing.T) {
				if *updateGolden && workers != 1 {
					t.Skip("goldens are recorded at SimWorkers=1")
				}
				var got bytes.Buffer
				runFigure1Cfg(t, lynx.Config{Substrate: sub, Seed: 1, SimWorkers: workers},
					&obs.JSONLExporter{W: &got})
				compareGolden(t, "golden_trace_"+sub.String()+".jsonl", got.Bytes())
			})
		}
	}
}

// runEchoTrio runs the parallel-engine acceptance workload: three
// independent client/server echo pairs — a boot-join graph with three
// connected components, the shape every substrate partitions (Ideal
// trivially; the kernels via their media's finite MinLatency). Each
// client ships a few round trips with virtual-time pauses so shard
// clocks interleave nontrivially. Returns the JSONL trace and the
// finished system for Partitioned/Parallel assertions.
func runEchoTrio(t *testing.T, cfg lynx.Config) ([]byte, *lynx.System) {
	t.Helper()
	sys := lynx.NewSystem(cfg)
	var buf bytes.Buffer
	sys.Obs().Attach(&obs.JSONLExporter{W: &buf})
	for i := 0; i < 3; i++ {
		i := i
		client := sys.Spawn(fmt.Sprintf("client-%d", i), func(th *lynx.Thread, boot []*lynx.End) {
			for n := 0; n < 3; n++ {
				reply, err := th.Connect(boot[0], "echo", lynx.Msg{Data: []byte{byte(i), byte(n)}})
				if err != nil {
					t.Errorf("client-%d: %v", i, err)
					return
				}
				if len(reply.Data) != 2 {
					t.Errorf("client-%d: bad echo %v", i, reply.Data)
				}
				th.Delay(lynx.Duration(i+1) * 100 * lynx.Microsecond)
			}
			th.Destroy(boot[0])
		})
		server := sys.Spawn(fmt.Sprintf("server-%d", i), func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(client, server)
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf.Bytes(), sys
}

// checkPartition asserts the partition/parallel state the new contract
// prescribes: a multi-component topology partitions at EVERY worker
// count, and shards execute concurrently exactly when SimWorkers > 1.
func checkPartition(t *testing.T, sys *lynx.System, workers int) {
	t.Helper()
	if !sys.Partitioned() {
		t.Fatalf("Partitioned() = false at SimWorkers=%d, want true (multi-component topology)", workers)
	}
	if wantPar := workers > 1; sys.Parallel() != wantPar {
		t.Fatalf("Parallel() = %v at SimWorkers=%d, want %v", sys.Parallel(), workers, wantPar)
	}
}

// TestParallelWorkerGoldenTraces: a genuinely partitionable workload
// must produce byte-identical JSONL traces at every SimWorkers value,
// pinned against a golden recorded at SimWorkers=1 (shards driven
// sequentially). This is the tentpole determinism contract on all four
// substrates: the kernel substrates partition their shared media into
// per-group segments bounded by MinLatency (token-ring serialization,
// CSMA sense delay, backplane setup cost), and the parallel engine's
// replay merges the shards' emissions by (time, shard).
func TestParallelWorkerGoldenTraces(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis, lynx.Ideal} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", sub, workers), func(t *testing.T) {
				cfg := lynx.Config{Substrate: sub, Seed: 7, SimWorkers: workers}
				got, sys := runEchoTrio(t, cfg)
				checkPartition(t, sys, workers)
				if *updateGolden && workers != 1 {
					t.Skip("goldens are recorded at SimWorkers=1")
				}
				compareGolden(t, "golden_trace_parallel_"+sub.String()+".jsonl", got)
			})
		}
	}
}

// TestFaultedWorkerGoldenTraces: fault plans no longer force a serial
// collapse — the injector splits into per-shard children (per-group
// frame-fate streams, churn timers on each shard, storms replicated per
// segment), so a faulted multi-component run partitions like an
// unfaulted one and must stay byte-identical at every worker count.
// Pinned as a golden (recorded at SimWorkers=1) on a medium-bearing
// substrate and on Ideal, plus a fault-counter cross-check.
func TestFaultedWorkerGoldenTraces(t *testing.T) {
	plan := &fault.Plan{Events: []fault.Event{fault.Crash{Proc: "server-1", At: 300 * lynx.Microsecond}}}
	for _, sub := range []lynx.Substrate{lynx.SODA, lynx.Ideal} {
		var baseFaults map[string]int64
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", sub, workers), func(t *testing.T) {
				cfg := lynx.Config{Substrate: sub, Seed: 7, SimWorkers: workers, Faults: plan}
				got, sys := runFaultedTrio(t, cfg)
				checkPartition(t, sys, workers)
				fs := sys.FaultStats()
				if fs["crash"] != 1 {
					t.Errorf("crash count = %d, want 1 (stats: %v)", fs["crash"], fs)
				}
				if baseFaults == nil {
					baseFaults = fs
				} else if fmt.Sprint(fs) != fmt.Sprint(baseFaults) {
					t.Errorf("fault stats differ at SimWorkers=%d: got %v, want %v", workers, fs, baseFaults)
				}
				if *updateGolden && workers != 1 {
					t.Skip("goldens are recorded at SimWorkers=1")
				}
				compareGolden(t, "golden_trace_faulted_"+sub.String()+".jsonl", got)
			})
		}
	}
}

// runFaultedTrio is runEchoTrio's crash-tolerant twin: clients swallow
// link errors (the fault plan kills server-1 mid-run) and the run is
// bounded in virtual time so the orphaned client cannot hang the test.
func runFaultedTrio(t *testing.T, cfg lynx.Config) ([]byte, *lynx.System) {
	t.Helper()
	sys := lynx.NewSystem(cfg)
	var buf bytes.Buffer
	sys.Obs().Attach(&obs.JSONLExporter{W: &buf})
	for i := 0; i < 3; i++ {
		i := i
		client := sys.Spawn(fmt.Sprintf("client-%d", i), func(th *lynx.Thread, boot []*lynx.End) {
			for n := 0; n < 3; n++ {
				if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: []byte{byte(i), byte(n)}}); err != nil {
					return // server crashed under us: expected for pair 1
				}
				th.Delay(lynx.Duration(i+1) * 100 * lynx.Microsecond)
			}
			th.Destroy(boot[0])
		})
		server := sys.Spawn(fmt.Sprintf("server-%d", i), func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: req.Data()})
			})
		})
		sys.Join(client, server)
	}
	if err := sys.RunFor(20 * lynx.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	return buf.Bytes(), sys
}
