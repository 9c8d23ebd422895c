package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// feed pushes n events with distinct times/seqs through the recorder.
func feed(f *Recorder, n int) {
	for i := 0; i < n; i++ {
		f.Event(obs.Event{
			At:   sim.Time(i) * sim.Time(sim.Microsecond),
			Kind: obs.KindQueueService,
			Proc: i & 7,
			Seq:  uint64(i),
		})
	}
}

// collectSink gathers forwarded events for assertions.
type collectSink struct{ evs []obs.Event }

func (c *collectSink) Event(ev obs.Event) { c.evs = append(c.evs, ev) }

// The ring keeps exactly the last RingSize events, oldest-first, across
// wrap.
func TestRingWrap(t *testing.T) {
	f := New(Config{Mode: Counters}, 0)
	feed(f, RingSize+12)
	if got := f.RingLen(); got != RingSize {
		t.Fatalf("RingLen = %d, want %d", got, RingSize)
	}
	snap := f.Snapshot()
	for i, ev := range snap {
		if want := uint64(12 + i); ev.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if f.Seen() != RingSize+12 {
		t.Errorf("Seen = %d, want %d", f.Seen(), RingSize+12)
	}
}

// Counters mode forwards nothing; Full forwards everything.
func TestModesForwarding(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		want int
	}{{Full, 100}, {Counters, 0}} {
		sink := &collectSink{}
		f := New(Config{Mode: tc.mode, Sink: sink}, 0)
		feed(f, 100)
		if len(sink.evs) != tc.want {
			t.Errorf("%v forwarded %d events, want %d", tc.mode, len(sink.evs), tc.want)
		}
		if f.Exported() != uint64(tc.want) {
			t.Errorf("%v Exported = %d, want %d", tc.mode, f.Exported(), tc.want)
		}
	}
}

// Sampled mode exports the same ordinals for the same seed, different
// ordinals for a different seed, and roughly 1-in-SampleK of the
// stream.
func TestSampledDeterminism(t *testing.T) {
	const events = 256 * SampleK
	run := func(seed uint64) []uint64 {
		sink := &collectSink{}
		f := New(Config{Mode: Sampled, Sink: sink}, seed)
		feed(f, events)
		var seqs []uint64
		for _, ev := range sink.evs {
			seqs = append(seqs, ev.Seq)
		}
		return seqs
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatalf("seed 7 sampled nothing in %d events at K=%d", events, SampleK)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed sampled %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at export %d: %d vs %d", i, a[i], b[i])
		}
	}
	// ~256 expected; a hash this uniform stays well inside 2x.
	if n := len(a); n < 128 || n > 512 {
		t.Errorf("sampled %d of %d at K=%d, want ~256", n, events, SampleK)
	}
	if c := run(8); len(c) == len(a) && func() bool {
		for i := range c {
			if c[i] != a[i] {
				return false
			}
		}
		return true
	}() {
		t.Error("different seeds sampled identical ordinals")
	}
}

// WantDetail predicts exactly the events the sampler will export: an
// emit site that builds Detail only under WantDetail loses no Detail on
// any exported event, and counters mode never wants any.
func TestWantDetailMatchesSampling(t *testing.T) {
	sink := &collectSink{}
	f := New(Config{Mode: Sampled, Sink: sink}, 3)
	for i := 0; i < 256*SampleK; i++ {
		var detail string
		if f.WantDetail() {
			detail = "kept"
		}
		f.Event(obs.Event{Seq: uint64(i), Detail: detail})
	}
	if len(sink.evs) == 0 {
		t.Fatal("nothing sampled")
	}
	for _, ev := range sink.evs {
		if ev.Detail != "kept" {
			t.Fatalf("exported event %d lost its Detail", ev.Seq)
		}
	}
	ctr := New(Config{Mode: Counters}, 0)
	if ctr.WantDetail() {
		t.Error("counters mode wants Detail")
	}
	full := New(Config{Mode: Full}, 0)
	if !full.WantDetail() {
		t.Error("full mode declines Detail")
	}
	var nilRec *Recorder
	if nilRec.WantDetail() {
		t.Error("nil recorder wants Detail")
	}
}

// The hot path allocates nothing in any mode (the sink here keeps the
// event without marshalling, like the ring itself).
func TestEventZeroAlloc(t *testing.T) {
	discard := &collectSink{evs: make([]obs.Event, 0, 1<<16)}
	for _, mode := range []Mode{Full, Sampled, Counters} {
		f := New(Config{Mode: mode, Sink: discard}, 0)
		ev := obs.Event{Kind: obs.KindQueueService, Proc: 1, Seq: 42, Detail: "d"}
		if n := testing.AllocsPerRun(1000, func() { f.Event(ev) }); n != 0 {
			t.Errorf("%v mode: %v allocs per Event, want 0", mode, n)
		}
	}
}

// A dump is one header line plus the ringed events, all valid JSON,
// delivered in a single Write.
func TestDumpJSONL(t *testing.T) {
	f := New(Config{Mode: Counters}, 0)
	feed(f, RingSize+24)
	var buf bytes.Buffer
	writes := 0
	if err := f.dump(writerFunc(func(p []byte) (int, error) {
		writes++
		return buf.Write(p)
	}), "test-dump"); err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Fatalf("dump issued %d writes, want 1", writes)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty dump")
	}
	var hdr dumpHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("bad dump header: %v", err)
	}
	if hdr.Type != "dump" || hdr.Reason != "test-dump" || hdr.Seen != RingSize+24 || hdr.Ring != RingSize {
		t.Fatalf("header = %+v", hdr)
	}
	lines := 0
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad dump line %d: %v", lines, err)
		}
		lines++
	}
	if lines != RingSize {
		t.Fatalf("dump carried %d events, want %d", lines, RingSize)
	}
}

// Anomaly dumps the ring, named by the anomaly, when a writer is
// attached; the nil recorder swallows it.
func TestAnomalyDump(t *testing.T) {
	var buf bytes.Buffer
	f := New(Config{Mode: Counters, DumpTo: &buf}, 0)
	feed(f, 4)
	f.Anomaly("shape-check failure")
	sc := bufio.NewScanner(&buf)
	var hdr dumpHeader
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &hdr) != nil {
		t.Fatal("anomaly did not dump the ring")
	}
	if hdr.Reason != "anomaly: shape-check failure" || hdr.Ring != 4 {
		t.Fatalf("anomaly dump header = %+v", hdr)
	}
	var nilRec *Recorder
	nilRec.Anomaly("ignored") // must not panic
	if nilRec.Dump("ignored") != nil {
		t.Fatal("nil Dump must be a no-op")
	}
}

type writerFunc func(p []byte) (int, error)

func (w writerFunc) Write(p []byte) (int, error) { return w(p) }
