package grid

import (
	"sync"
	"testing"

	"repro/lynx/sweep"
)

func fpSpec() Spec {
	return Spec{
		Name:     "fp",
		Replicas: 4,
		Axes: []Axis{
			{Name: "substrate", Values: []any{"charlotte", "soda"}},
			{Name: "payload", Values: []any{0, 1024, 4096}},
		},
	}
}

func TestFingerprintAxisOrderIndependent(t *testing.T) {
	a := fpSpec()
	b := fpSpec()
	b.Axes[0], b.Axes[1] = b.Axes[1], b.Axes[0]
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("axis declaration order changed the fingerprint:\n a=%s\n b=%s",
			Fingerprint(a), Fingerprint(b))
	}
}

func TestFingerprintValueOrderSensitive(t *testing.T) {
	a := fpSpec()
	b := fpSpec()
	b.Axes[1].Values = []any{4096, 1024, 0}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("value-list order must change the fingerprint: cell enumeration indexes select seed streams")
	}
}

func TestFingerprintIgnoresLabelsAndSeeds(t *testing.T) {
	a := fpSpec()
	b := fpSpec()
	b.Name = "other label"
	b.Parallel = 7
	b.RootSeed = 99
	b.Body = func(Cell, sweep.Run) sweep.Outcome { return sweep.Outcome{} }
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("Name/Parallel/RootSeed/Body must not affect the fingerprint")
	}
	b.Replicas = 8
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("Replicas must affect the fingerprint")
	}
}

// The golden hash pins cross-machine portability: cache keys derived
// from Fingerprint must mean the same workload on every machine and Go
// version, so any change to the canonical rendering is a breaking
// change to every persisted cache key and must be made deliberately.
func TestFingerprintGolden(t *testing.T) {
	const want = "7e1a08b9adb1e43c59063349b5fc354be14a626593ace332984c826898adc4f8"
	if got := Fingerprint(fpSpec()); got != want {
		t.Fatalf("fingerprint drifted:\n got  %s\n want %s", got, want)
	}
}

func TestFingerprintDefaultReplicas(t *testing.T) {
	a := fpSpec()
	a.Replicas = 0
	b := fpSpec()
	b.Replicas = 1
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("Replicas 0 must fingerprint like the default of 1")
	}
}

func TestCanonicalKeySortsAxes(t *testing.T) {
	tbl := Run(Spec{
		Axes: []Axis{
			{Name: "substrate", Values: []any{"soda"}},
			{Name: "payload", Values: []any{64}},
		},
		Body: func(Cell, sweep.Run) sweep.Outcome { return sweep.Outcome{} },
	})
	c := tbl.Cells[0].Cell
	if got, want := c.Key(), "substrate=soda/payload=64"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	if got, want := c.CanonicalKey(), "payload=64/substrate=soda"; got != want {
		t.Fatalf("CanonicalKey() = %q, want %q", got, want)
	}
	if got, want := (Cell{}).CanonicalKey(), "all"; got != want {
		t.Fatalf("empty CanonicalKey() = %q, want %q", got, want)
	}
}

// TestHookCacheInjection runs a grid cold, replays it with a hook-backed
// cache, and pins that the cached table renders byte-identically — the
// contract lynxd's result cache depends on.
func TestHookCacheInjection(t *testing.T) {
	spec := Spec{
		Name:     "hooked",
		Replicas: 3,
		RootSeed: 7,
		Axes: []Axis{
			{Name: "n", Values: []any{1, 2, 3}},
		},
		Body: func(c Cell, r sweep.Run) sweep.Outcome {
			return sweep.Outcome{Values: map[string]float64{
				"x": float64(MustAs[int](c, "n")) * float64(r.Seed%1000),
			}}
		},
	}
	cold := Run(spec)

	var mu sync.Mutex
	cache := map[string]*sweep.Aggregate{}
	hits := 0
	spec.Hook = func(c Cell, run func() *sweep.Aggregate) *sweep.Aggregate {
		key := c.CanonicalKey()
		mu.Lock()
		agg, ok := cache[key]
		mu.Unlock()
		if ok {
			hits++
			return agg
		}
		agg = run()
		mu.Lock()
		cache[key] = agg
		mu.Unlock()
		return agg
	}
	spec.Parallel = 1 // serialize so the hit counter needs no locking discipline
	warm1 := Run(spec)
	warm2 := Run(spec)
	if hits != 3 {
		t.Fatalf("second run should hit all 3 cells, got %d hits", hits)
	}
	if cold.RenderJSONL() != warm1.RenderJSONL() || warm1.RenderJSONL() != warm2.RenderJSONL() {
		t.Fatal("hook-cached table renders differ from the cold run")
	}
}

func TestGridProgress(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	spec := Spec{
		Replicas: 2,
		Axes:     []Axis{{Name: "n", Values: []any{1, 2}}},
		Parallel: 1,
		Body: func(Cell, sweep.Run) sweep.Outcome {
			return sweep.Outcome{Values: map[string]float64{"x": 1}}
		},
		Progress: func(done, total int) {
			if total != 4 {
				t.Errorf("total = %d, want 4", total)
			}
			mu.Lock()
			calls = append(calls, done)
			mu.Unlock()
		},
	}
	Run(spec)
	if len(calls) != 4 || calls[len(calls)-1] != 4 {
		t.Fatalf("progress calls = %v, want 1..4", calls)
	}

	// A hook that satisfies cells without running them still reports
	// their replicas.
	calls = nil
	spec.Hook = func(c Cell, run func() *sweep.Aggregate) *sweep.Aggregate {
		return &sweep.Aggregate{}
	}
	Run(spec)
	if len(calls) != 2 || calls[len(calls)-1] != 4 {
		t.Fatalf("hooked progress calls = %v, want [2 4]", calls)
	}
}
