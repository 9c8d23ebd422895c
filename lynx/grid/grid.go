// Package grid runs keyed configuration-grid sweeps: a Spec declares
// named axes (substrate, payload bytes, node count — any value list),
// the runner enumerates their cross product, fans cells and replicas
// out with cell-indexed stream-split seeds, folds each cell's replicas
// with sweep.Fold, and the results land in a keyed Table with text and
// JSONL renderers.
//
// The determinism contract: cell c's replica k always
// runs with sweep.CellSeed(RootSeed, c, k) — a two-level stateless
// SplitMix64 split — and both cells and replicas are assembled in
// enumeration order, so the Table (and every rendering of it) is
// byte-identical for Parallel=1 and Parallel=N. Parallelism changes
// wall-clock time and nothing else.
//
// Typical use:
//
//	t := grid.Run(grid.Spec{
//	    Name: "payload sweep",
//	    Axes: []grid.Axis{
//	        {Name: "substrate", Values: []any{lynx.Charlotte, lynx.SODA}},
//	        {Name: "payload", Values: []any{0, 1024, 4096}},
//	    },
//	    Replicas: 8,
//	    Body: func(c grid.Cell, r sweep.Run) sweep.Outcome {
//	        sub := grid.MustAs[lynx.Substrate](c, "substrate")
//	        n := grid.MustAs[int](c, "payload")
//	        ... build a lynx.System with Seed: r.Seed, run it ...
//	    },
//	})
//	st := t.CellAt(lynx.SODA, 1024).Agg.Values["rtt_ms"]
package grid

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"repro/lynx/sweep"
)

// Axis is one named dimension of a configuration grid. Values may be
// any type; cell keys use their fmt.Sprint rendering (so types with a
// String method, like lynx.Substrate, key naturally).
type Axis struct {
	Name   string
	Values []any
}

// Spec declares a grid: the axes whose cross product defines the
// cells, the replication per cell, and the replica body. The zero
// values of Replicas/Parallel/RootSeed default to 1 replica,
// GOMAXPROCS workers and root seed 1.
type Spec struct {
	// Name labels the grid in renderings.
	Name string
	// Axes are the grid dimensions; the cross product is enumerated
	// row-major with the LAST axis varying fastest. No axes means one
	// cell (the empty configuration).
	Axes []Axis
	// Replicas is R, the independent runs per cell.
	Replicas int
	// Parallel is the worker goroutine count fanning cells out.
	Parallel int
	// RootSeed seeds the whole grid; cell c's replica k runs with
	// sweep.CellSeed(RootSeed, c, k).
	RootSeed uint64
	// Body runs one replica of one cell. It must derive all randomness
	// from r.Seed and be safe to call concurrently (each call should
	// build its own lynx.System; see the lynx concurrency contract).
	Body func(c Cell, r sweep.Run) sweep.Outcome
}

// Cell identifies one point of the cross product: its enumeration
// index and one value per axis.
type Cell struct {
	// Index is the cell's row-major enumeration index, which also
	// selects its seed stream.
	Index int
	axes  []Axis
	coord []any
}

// Key renders the cell as "name=value/name=value" in axis order — the
// Table lookup key. The empty configuration (no axes) keys as "all".
func (c Cell) Key() string {
	if len(c.axes) == 0 {
		return "all"
	}
	parts := make([]string, len(c.axes))
	for i, a := range c.axes {
		parts[i] = fmt.Sprintf("%s=%v", a.Name, c.coord[i])
	}
	return strings.Join(parts, "/")
}

// CellResult pairs a cell with its replica aggregate: per-metric Stats
// and the pooled obs registry, as sweep.Fold computes them.
type CellResult struct {
	Cell Cell
	Agg  *sweep.Aggregate
}

// Table is the grid's keyed result: cells in enumeration order plus a
// key index.
type Table struct {
	Name     string
	Axes     []Axis
	Replicas int
	RootSeed uint64
	Cells    []*CellResult
	byKey    map[string]*CellResult
}

// Run enumerates the Spec's cross product and executes every cell,
// fanning cells across Parallel workers; replica k of cell c runs with
// seed sweep.CellSeed(RootSeed, c, k), and sweep.Fold folds a cell's
// replicas in replica order. The returned Table is byte-identical for
// any Parallel value.
func Run(s Spec) *Table {
	if s.Body == nil {
		panic("grid: Spec.Body is nil")
	}
	replicas := s.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	parallel := s.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	root := s.RootSeed
	if root == 0 {
		root = 1
	}
	cells := enumerate(s.Axes)
	t := &Table{
		Name:     s.Name,
		Axes:     s.Axes,
		Replicas: replicas,
		RootSeed: root,
		Cells:    make([]*CellResult, len(cells)),
		byKey:    make(map[string]*CellResult, len(cells)),
	}
	// Parallelism placement: with several cells the pool spans cells
	// (each cell's replicas run serially inside one worker); a
	// single-cell grid hands the whole worker budget to its replicas
	// instead. Either way every (cell, replica) seed is
	// scheduling-independent.
	cellParallel := 1
	if len(cells) == 1 {
		cellParallel = parallel
	}
	sweep.ForEach(len(cells), parallel, func(i int) {
		c := cells[i]
		outcomes := make([]sweep.Outcome, replicas)
		sweep.ForEach(replicas, cellParallel, func(k int) {
			outcomes[k] = s.Body(c, sweep.Run{Replica: k, Seed: sweep.CellSeed(root, c.Index, k)})
		})
		t.Cells[i] = &CellResult{Cell: c, Agg: sweep.Fold(outcomes)}
	})
	for _, cr := range t.Cells {
		t.byKey[cr.Cell.Key()] = cr
	}
	return t
}

// enumerate builds the row-major cross product of the axes (last axis
// fastest), assigning enumeration indexes in order.
func enumerate(axes []Axis) []Cell {
	total := 1
	for _, a := range axes {
		total *= len(a.Values)
	}
	cells := make([]Cell, 0, total)
	coord := make([]int, len(axes))
	for i := 0; i < total; i++ {
		vals := make([]any, len(axes))
		for d, a := range axes {
			vals[d] = a.Values[coord[d]]
		}
		cells = append(cells, Cell{Index: i, axes: axes, coord: vals})
		for d := len(axes) - 1; d >= 0; d-- {
			coord[d]++
			if coord[d] < len(axes[d].Values) {
				break
			}
			coord[d] = 0
		}
	}
	return cells
}

// Cell looks a cell up by its Key; nil if unknown.
func (t *Table) Cell(key string) *CellResult {
	return t.byKey[key]
}

// CellAt looks a cell up by coordinate values in axis order (compared
// by fmt.Sprint rendering, so lynx.Charlotte and "charlotte" both
// match a substrate axis); nil if no such cell.
func (t *Table) CellAt(coords ...any) *CellResult {
	if len(coords) != len(t.Axes) {
		return nil
	}
	parts := make([]string, len(coords))
	for i, v := range coords {
		parts[i] = fmt.Sprintf("%s=%v", t.Axes[i].Name, v)
	}
	key := strings.Join(parts, "/")
	if len(parts) == 0 {
		key = "all"
	}
	return t.byKey[key]
}

// Errs counts failed replicas across all cells.
func (t *Table) Errs() int {
	n := 0
	for _, cr := range t.Cells {
		n += len(cr.Agg.Errs)
	}
	return n
}

// jsonCell is the JSONL record schema: one object per cell.
type jsonCell struct {
	Cell     string                `json:"cell"`
	Coords   map[string]string     `json:"coords,omitempty"`
	Replicas int                   `json:"replicas"`
	Errors   int                   `json:"errors"`
	Values   map[string]sweep.Stat `json:"values,omitempty"`
	Metrics  map[string]sweep.Stat `json:"metrics,omitempty"`
}

// RenderJSONL writes one JSON object per cell, in enumeration order.
// encoding/json sorts map keys, so the stream is byte-deterministic
// for a deterministic Table.
func (t *Table) RenderJSONL() string {
	var b strings.Builder
	for _, cr := range t.Cells {
		coords := make(map[string]string, len(t.Axes))
		for i, a := range t.Axes {
			coords[a.Name] = fmt.Sprint(cr.Cell.coord[i])
		}
		rec := jsonCell{
			Cell:     cr.Cell.Key(),
			Coords:   coords,
			Replicas: t.Replicas,
			Errors:   len(cr.Agg.Errs),
			Values:   cr.Agg.Values,
			Metrics:  cr.Agg.Metrics(),
		}
		line, err := json.Marshal(rec)
		if err != nil {
			panic(fmt.Sprintf("grid: marshal cell %s: %v", rec.Cell, err))
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}
