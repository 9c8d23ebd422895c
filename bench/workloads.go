package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/lynx"
	"repro/lynx/grid"
	"repro/lynx/load"
	"repro/lynx/sweep"
)

// workload is one set of simulated work. run executes one rep of it for
// a seed: the same seed always produces the same simulated work, so
// everything in repOut except host timing repeats bit for bit.
type workload interface {
	run(seed uint64, tr *tracer) (*repOut, error)
}

// repOut is one rep's outcome.
type repOut struct {
	ops       int // completed operations
	attempted int
	failed    int // failed operations, output-check failures included
	// Virtual latency per op in ms: the median, the tail percentile the
	// sample count supports (see tailQuantile) and that count.
	virtP50, virtTail float64
	tailName          string
	virtN             int
	// counts are the deterministic per-layer metrics of the rep.
	counts map[string]float64
	// digest hashes every virtual output of the rep; reps of one seed
	// must agree on it.
	digest uint64
}

// Stream indexes of the seeds a workload derives from its seed, so no
// two inputs share a random stream.
const (
	streamSystem = iota
	streamPayload
	streamEnclose
	streamKind
)

// rpcLoad is a closed loop of RPCs: clients each issue ops Connects
// back to back. With pairs unset all clients share one server (one boot
// component, so the serial engine runs); with pairs set each client has
// its own server, so the run partitions into one shard per pair and up
// to workers shards execute at once.
type rpcLoad struct {
	substrate    lynx.Substrate
	pairs        bool
	clients, ops int
	workers      int
	// echo is the server's reply to a request payload; nil echoes it
	// unchanged. Tests substitute a corrupting server here.
	echo func([]byte) []byte
}

// Payload sizes alternate between E1's small and large message.
var payloadSizes = [2]int{64, 1000}

// payloadPool is how many distinct payloads of each size the seed
// generates; client i's op j sends payload (i + j/2) mod payloadPool of
// size j mod 2, so a reply routed to the wrong client fails the check.
const payloadPool = 16

// enclosures: one request in encloseOneIn carries a fresh link end that
// the server destroys, drawn per (client, op) from the seed.
const encloseOneIn = 8

func makePayloads(seed uint64) [2][payloadPool][]byte {
	r := sim.NewRand(sim.StreamSeed(seed, streamPayload))
	var pool [2][payloadPool][]byte
	for s, size := range payloadSizes {
		for k := range pool[s] {
			b := make([]byte, size)
			for i := range b {
				b[i] = byte(r.Uint64())
			}
			pool[s][k] = b
		}
	}
	return pool
}

func encloses(seed uint64, client, op int) bool {
	return sim.StreamSeed2(sim.StreamSeed(seed, streamEnclose), uint64(client), uint64(op))%encloseOneIn == 0
}

func (w rpcLoad) run(seed uint64, tr *tracer) (*repOut, error) {
	pool := makePayloads(seed)
	echo := w.echo
	if echo == nil {
		echo = func(b []byte) []byte { return b }
	}
	lat := make([][]int64, w.clients)
	failed := make([]int, w.clients)
	root := tr.root()

	build := tr.begin("lynx.build", root, 0)
	sys := lynx.NewSystem(lynx.Config{
		Substrate:  w.substrate,
		Seed:       sim.StreamSeed(seed, streamSystem),
		SimWorkers: w.workers,
	})
	// Clients run inside sys.Run, after runSpan is opened below.
	var runSpan span
	serve := func(t *lynx.Thread, boot []*lynx.End) {
		for _, e := range boot {
			t.Serve(e, func(st *lynx.Thread, req *lynx.Request) {
				for _, l := range req.Links() {
					st.Destroy(l)
				}
				st.Reply(req, lynx.Msg{Data: echo(req.Data())})
			})
		}
	}
	var server *lynx.ProcRef
	if !w.pairs {
		server = sys.Spawn("server", serve)
	}
	for i := 0; i < w.clients; i++ {
		i := i
		lat[i] = make([]int64, w.ops)
		client := sys.Spawn(fmt.Sprintf("client-%d", i), func(t *lynx.Thread, boot []*lynx.End) {
			srv := boot[0]
			for j := 0; j < w.ops; j++ {
				op := i*w.ops + j
				data := pool[j%2][(i+j/2)%payloadPool]
				msg := lynx.Msg{Data: data}
				name := "core.connect"
				if encloses(seed, i, j) {
					s := tr.begin("core.newlink", runSpan.ID, op)
					_, far, err := t.NewLink()
					tr.end(s)
					if err != nil {
						failed[i]++
						continue
					}
					msg.Links = []*lynx.End{far}
					name = "core.connect_enc"
				}
				s := tr.begin(name, runSpan.ID, op)
				t0 := t.Now()
				reply, err := t.Connect(srv, "echo", msg)
				lat[i][j] = int64(t.Now() - t0)
				tr.end(s)
				if err != nil || !bytes.Equal(reply.Data, data) {
					failed[i]++
				}
			}
			t.Destroy(srv)
		})
		if w.pairs {
			server = sys.Spawn(fmt.Sprintf("server-%d", i), serve)
		}
		sys.Join(client, server)
	}
	tr.end(build)
	runSpan = tr.begin("lynx.run", root, 0)
	err := sys.Run()
	tr.end(runSpan)

	out := &repOut{attempted: w.clients * w.ops}
	for _, f := range failed {
		out.failed += f
	}
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if sys.Partitioned() != w.pairs {
		return nil, fmt.Errorf("partitioned = %v, want %v: pairs must run on the parallel engine, a star on the serial one",
			sys.Partitioned(), w.pairs)
	}
	out.ops = out.attempted - out.failed
	h := fnv.New64a()
	var virt []float64
	for i := range lat {
		for _, d := range lat[i] {
			hashInt(h, d)
			virt = append(virt, float64(d)/1e6)
		}
	}
	out.setVirt(virt)
	st := sys.Network().Stats()
	out.counts = layerCounts(sys.Metrics(), netTotals{
		msgs: float64(st.Messages), bytes: float64(st.Bytes), bcasts: float64(st.Broadcasts),
		busyNs: float64(st.BusyTime), spanNs: float64(sys.Now()),
	}, out.ops)
	hashInt(h, int64(sys.Now()))
	out.digest = digestCounts(h, out.counts)
	return out, nil
}

// openLoad is load.Run's open loop on SODA: work units (echo pair,
// pipeline, mesh in the default 7/2/1 mix) arrive at rate per virtual
// second for window, scheduled in virtual time, and are launched
// mid-run into one System.
type openLoad struct {
	rate   float64
	window lynx.Duration
}

func (w openLoad) run(seed uint64, tr *tracer) (*repOut, error) {
	s := tr.begin("load.run", tr.root(), 0)
	res, err := load.Run(load.Options{
		Substrate: lynx.SODA,
		Rate:      w.rate,
		Window:    w.window,
		Seed:      sim.StreamSeed(seed, streamSystem),
	})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	out := &repOut{
		ops:       res.Completed,
		attempted: res.Arrivals,
		failed:    res.Arrivals - res.Completed,
	}
	row := load.Row{
		Substrate: lynx.SODA.String(), Rate: w.rate,
		Arrivals: res.Arrivals, Completed: res.Completed,
		MakespanMS: float64(res.Makespan) / 1e6, Realized: res.Realized,
		P50MS: res.Sojourn.P50, P95MS: res.Sojourn.P95, P99MS: res.Sojourn.P99,
	}
	if err := load.CheckShape([]load.Row{row}); err != nil && out.failed == 0 {
		out.failed = 1
	}
	out.virtN = res.Sojourn.N
	out.virtP50 = res.Sojourn.P50
	q, name := tailQuantile(out.virtN)
	out.tailName = name
	switch {
	case q >= 0.99:
		out.virtTail = res.Sojourn.P99
	case q >= 0.95:
		out.virtTail = res.Sojourn.P95
	default:
		out.virtTail, out.tailName = res.Sojourn.P50, "p50"
	}
	// load.Run does not expose its System, so the medium's counters are
	// not observable here: netsim metrics read -1 on this workload.
	out.counts = layerCounts(res.Metrics, netTotals{unknown: true}, out.ops)
	out.counts["load.arrivals"] = float64(res.Arrivals)
	if res.Arrivals > 0 {
		out.counts["load.completed_ratio"] = float64(res.Completed) / float64(res.Arrivals)
	}
	out.counts["load.realized_per_vs"] = res.Realized
	h := fnv.New64a()
	for _, v := range []float64{res.Sojourn.Mean, res.Sojourn.P50, res.Sojourn.P95, res.Sojourn.P99, res.Sojourn.Max} {
		hashInt(h, int64(math.Float64bits(v)))
	}
	hashInt(h, int64(res.Makespan))
	out.digest = digestCounts(h, out.counts)
	return out, nil
}

// systemsLoad is a closed loop of whole Systems through grid.Run: each
// op builds one System (load.Build of a kind drawn 7/2/1 from
// echo/pipeline/mesh), runs it and drains it. Cells are batch ×
// substrate with the substrate varying fastest, so consecutive cells
// round-robin over Charlotte, SODA and Chrysalis.
type systemsLoad struct {
	batches, perCell int
	parallel         int
}

var mixSubstrates = []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis}

// pickKind draws a work-unit kind with the default 7/2/1 weights.
func pickKind(seed uint64) string {
	switch n := sim.StreamSeed(seed, streamKind) % 10; {
	case n < 7:
		return "echo"
	case n < 9:
		return "pipeline"
	default:
		return "mesh"
	}
}

func (w systemsLoad) run(seed uint64, tr *tracer) (*repOut, error) {
	batches := make([]int, w.batches)
	for i := range batches {
		batches[i] = i
	}
	gs := tr.begin("grid.run", tr.root(), 0)
	tbl := grid.Run(grid.Spec{
		Name:     "systems-mix",
		Axes:     []grid.Axis{grid.AxisOf("batch", batches...), grid.AxisOf("substrate", mixSubstrates...)},
		Replicas: w.perCell,
		Parallel: w.parallel,
		RootSeed: sim.StreamSeed(seed, streamSystem),
		Body: func(c grid.Cell, r sweep.Run) sweep.Outcome {
			op := c.Index*w.perCell + r.Replica
			cs := tr.begin("grid.cell", gs.ID, op)
			defer tr.end(cs)
			b := tr.begin("lynx.build", cs.ID, op)
			sys := lynx.NewSystem(lynx.Config{Substrate: grid.MustAs[lynx.Substrate](c, "substrate"), Seed: r.Seed})
			if err := load.Build(sys, pickKind(r.Seed)); err != nil {
				return sweep.Outcome{Err: err}
			}
			tr.end(b)
			rs := tr.begin("lynx.run", cs.ID, op)
			err := sys.Run()
			tr.end(rs)
			st := sys.Network().Stats()
			return sweep.Outcome{
				Values: map[string]float64{
					"drain_ns": float64(sys.Now()),
					"msgs":     float64(st.Messages),
					"bytes":    float64(st.Bytes),
					"bcasts":   float64(st.Broadcasts),
					"busy_ns":  float64(st.BusyTime),
				},
				Metrics: sys.Metrics(),
				Err:     err,
			}
		},
	})
	tr.end(gs)

	out := &repOut{attempted: len(tbl.Cells) * w.perCell, failed: tbl.Errs()}
	out.ops = out.attempted - out.failed
	pooled := obs.NewMetrics()
	var net netTotals
	var virt []float64
	h := fnv.New64a()
	for _, cr := range tbl.Cells {
		pooled.Merge(cr.Agg.Merged)
		for _, o := range cr.Agg.Outcomes {
			v := o.Values
			hashInt(h, int64(v["drain_ns"]))
			virt = append(virt, v["drain_ns"]/1e6)
			net.msgs += v["msgs"]
			net.bytes += v["bytes"]
			net.bcasts += v["bcasts"]
			net.busyNs += v["busy_ns"]
			net.spanNs += v["drain_ns"]
		}
	}
	out.setVirt(virt)
	out.counts = layerCounts(pooled, net, out.ops)
	out.digest = digestCounts(h, out.counts)
	return out, nil
}

// setVirt fills the virtual-latency fields from per-op samples (ms).
func (o *repOut) setVirt(ms []float64) {
	sort.Float64s(ms)
	q, name := tailQuantile(len(ms))
	o.virtN = len(ms)
	o.virtP50 = percentile(ms, 0.5)
	o.virtTail, o.tailName = percentile(ms, q), name
}

// netTotals are a rep's network-medium counters. unknown marks a
// workload whose medium is not observable.
type netTotals struct {
	msgs, bytes, bcasts float64
	busyNs, spanNs      float64 // medium busy time, and the virtual time it is a share of
	unknown             bool
}

// layerCounts derives the per-layer protocol metrics from a rep's obs
// registry and medium counters. Per-process and per-call instruments
// are summed over their labels.
func layerCounts(m *obs.Metrics, net netTotals, ops int) map[string]float64 {
	snap := m.Snapshot()
	sum := map[string]float64{}
	var queueWait obs.Histogram
	for name, v := range snap {
		sum[unlabeled(name)] += float64(v)
		if base, ok := cutHistCount(name, obs.MQueueWaitNs+"{"); ok {
			queueWait.Merge(m.Histogram(base))
		}
	}
	per := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	s := func(name string) float64 { return sum[name] }
	sends := s(obs.MBindKernelSends)
	wasted := s(obs.MRetries) + s(obs.MForbids) + s(obs.MAllows) + s(obs.MGoaheads) +
		s(obs.MResentRequests) + s(obs.MUnwantedReceives)
	c := map[string]float64{
		"obs.registry_names":     float64(len(m.Names())),
		"core.block_ms_per_op":   per(s(obs.MProcBlockNs+"_sum_ns")) / 1e6,
		"core.queue_wait_ms_p99": float64(queueWait.Quantile(0.99)) / 1e6,

		"charlotte.msgs_per_op":             per(s(obs.MKernelMessages)),
		"charlotte.calls_per_op":            per(s(obs.MKernelCalls)),
		"charlotte.enc_moves_per_op":        per(s(obs.MEnclosureMoves)),
		"bind.charlotte.sends_per_op":       per(sends),
		"bind.charlotte.retries_per_op":     per(s(obs.MRetries)),
		"bind.charlotte.forbids_per_op":     per(s(obs.MForbids)),
		"bind.charlotte.enc_packets_per_op": per(s(obs.MEncPackets)),
		"bind.charlotte.unwanted_per_op":    per(s(obs.MUnwantedReceives)),
		"bind.charlotte.useful_send_ratio":  ratio(math.Max(sends-wasted, 0), sends),

		"soda.requests_per_op":            per(s(obs.MKernelRequests)),
		"soda.accepts_per_op":             per(s(obs.MKernelAccepts)),
		"soda.interrupts_per_op":          per(s(obs.MKernelInterrupts)),
		"soda.discovers_per_op":           per(s(obs.MKernelDiscovers)),
		"soda.retries_per_op":             per(s(obs.MKernelRetries)),
		"bind.soda.hint_hit_ratio":        ratio(s(obs.MHintHits), s(obs.MHintHits)+s(obs.MHintMisses)),
		"bind.soda.moved_forwards_per_op": per(s(obs.MMovedForwards)),
		"bind.soda.discovers_per_op":      per(s(obs.MDiscovers)),
		"bind.soda.freezes_per_op":        per(s(obs.MFreezes)),
		"bind.soda.saved_requests_per_op": per(s(obs.MSavedRequests)),
		"bind.soda.frozen_ms_per_op":      per(s(obs.MFrozenTimeNs)) / 1e6,

		"chrysalis.atomic_ops_per_op":        per(s(obs.MAtomicOps)),
		"chrysalis.enqueues_per_op":          per(s(obs.MQueueEnqueues)),
		"chrysalis.event_posts_per_op":       per(s(obs.MEventPosts)),
		"chrysalis.object_maps_per_op":       per(s(obs.MObjectMaps)),
		"bind.chrysalis.notices_per_op":      per(s(obs.MNotices)),
		"bind.chrysalis.stale_notice_ratio":  ratio(s(obs.MStaleNotices), s(obs.MNotices)),
		"bind.chrysalis.flag_rescans_per_op": per(s(obs.MFlagRescans)),
		"bind.chrysalis.rejections_per_op":   per(s(obs.MRejections)),
		"netsim.msgs_per_op":                 per(net.msgs),
		"netsim.bytes_per_op":                per(net.bytes),
		"netsim.broadcasts_per_op":           per(net.bcasts),
		"netsim.busy_pct":                    100 * ratio(net.busyNs, net.spanNs),
		"load.arrivals":                      0,
		"load.completed_ratio":               0,
		"load.realized_per_vs":               0,
	}
	if net.unknown {
		for _, k := range []string{"netsim.msgs_per_op", "netsim.bytes_per_op", "netsim.broadcasts_per_op", "netsim.busy_pct"} {
			c[k] = -1
		}
	}
	return c
}

// unlabeled drops the {label=value} part of an instrument name, keeping
// any suffix after it (histogram snapshots append _count, _sum_ns, ...).
func unlabeled(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name
	}
	j := strings.IndexByte(name[i:], '}')
	if j < 0 {
		return name
	}
	return name[:i] + name[i+j+1:]
}

// cutHistCount recognizes the _count entry a histogram named
// prefix...} leaves in a snapshot and returns the histogram's name.
func cutHistCount(name, prefix string) (string, bool) {
	if !strings.HasPrefix(name, prefix) {
		return "", false
	}
	return strings.CutSuffix(name, "_count")
}

func hashInt(h hash.Hash64, v int64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}

// digestCounts folds the count metrics, in name order, into h.
func digestCounts(h hash.Hash64, counts map[string]float64) uint64 {
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.Write([]byte(k))
		hashInt(h, int64(math.Float64bits(counts[k])))
	}
	return h.Sum64()
}
