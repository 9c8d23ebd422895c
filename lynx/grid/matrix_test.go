package grid

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/lynx/sweep"
)

var updateMatrixGolden = flag.Bool("update-golden", false,
	"rewrite the matrix renderer's golden file with the current output")

// matrixTable builds a fully synthetic 3-axis table (no Systems run) so
// the golden bytes depend only on the renderer.
func matrixTable(parallel int) *Table {
	return Run(Spec{
		Name: "pivot",
		Axes: []Axis{
			{Name: "mode", Values: []any{"closed", "open"}},
			{Name: "substrate", Values: []any{"soda", "charlotte"}},
			{Name: "rate", Values: []any{60, 150, 400}},
		},
		Replicas: 2,
		Parallel: parallel,
		RootSeed: 3,
		Body: func(c Cell, r sweep.Run) sweep.Outcome {
			return sweep.Outcome{Values: map[string]float64{
				"sojourn_ms": float64((c.Index+1)*10 + r.Replica),
				"realized":   float64(1000 - c.Index),
			}}
		},
	})
}

// The pivoted matrix renderer against its golden file: rows × columns
// with a section per remaining-axis value, aligned columns, and "-" for
// absent stats. Regenerate with
// `go test ./lynx/grid -run TestRenderMatrixGolden -update-golden`.
func TestRenderMatrixGolden(t *testing.T) {
	tbl := matrixTable(1)
	got := tbl.RenderMatrix("substrate", "rate", "sojourn_ms", "realized", "missing_stat")
	golden.Check(t, filepath.Join("testdata", "matrix_golden.txt"), []byte(got), *updateMatrixGolden)
}

// The matrix is one more rendering bound by the grid determinism
// contract: byte-identical at any parallelism.
func TestRenderMatrixDeterministicAcrossParallelism(t *testing.T) {
	s := matrixTable(1).RenderMatrix("substrate", "rate", "sojourn_ms")
	w := matrixTable(8).RenderMatrix("substrate", "rate", "sojourn_ms")
	if s != w {
		t.Fatalf("matrix differs across parallelism:\n--- serial\n%s\n--- parallel\n%s", s, w)
	}
}

// Two-axis tables render a single unsectioned matrix; pivot helpers
// behave on edge inputs.
func TestRenderMatrixTwoAxes(t *testing.T) {
	tbl := Run(Spec{
		Name: "flat",
		Axes: []Axis{
			{Name: "substrate", Values: []any{"soda"}},
			{Name: "rate", Values: []any{60, 150}},
		},
		Replicas: 1,
		Parallel: 1,
		Body: func(c Cell, r sweep.Run) sweep.Outcome {
			return sweep.Outcome{Values: map[string]float64{"v": float64(c.Index)}}
		},
	})
	out := tbl.RenderMatrix("substrate", "rate", "v")
	if strings.Contains(out, "== ") && !strings.Contains(out, "== v\n") {
		t.Fatalf("two-axis matrix should have only stat headers:\n%s", out)
	}
	if !strings.Contains(out, `substrate\rate`) {
		t.Fatalf("matrix missing corner header:\n%s", out)
	}
	stats := tbl.MatrixStats()
	if len(stats) == 0 || stats[0] != "v" {
		t.Fatalf("MatrixStats = %v", stats)
	}
	for _, bad := range []func(){
		func() { tbl.RenderMatrix("nope", "rate") },
		func() { tbl.RenderMatrix("rate", "rate") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on bad axes")
				}
			}()
			bad()
		}()
	}
}
