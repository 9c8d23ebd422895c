package sweep_test

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// TestFoldReleasesRegistries checks that a folded replica keeps its
// values, not its registry: once grid.Run has returned, every replica's
// registry is collected while the Table is still live, and the cell's
// per-replica statistics still equal the eager snapshot reference.
func TestFoldReleasesRegistries(t *testing.T) {
	const reps = 6
	var collected atomic.Int64
	snaps, body := snapshotAside(reps, func(r sweep.Run) sweep.Outcome {
		out := echoBody(r)
		runtime.SetFinalizer(out.Metrics, func(*obs.Metrics) { collected.Add(1) })
		return out
	})
	tbl := grid.Run(grid.Spec{Replicas: reps, Parallel: 2, RootSeed: 8,
		Body: func(_ grid.Cell, r sweep.Run) sweep.Outcome { return body(r) }})
	for i := 0; i < 50 && collected.Load() < reps; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != reps {
		t.Fatalf("only %d of %d replica registries were collected while the table is live", got, reps)
	}
	if got, want := tbl.Cells[0].Agg.Metrics(), eagerMetrics(snaps); !reflect.DeepEqual(got, want) {
		t.Fatalf("Metrics() after the registries were collected = %v\nwant eager %v", got, want)
	}
	runtime.KeepAlive(tbl)
}
