package grid

import (
	"reflect"
	"strings"
	"testing"

	"repro/lynx"
	"repro/lynx/sweep"
)

// echoBody is a real whole-system cell replica: one echo RPC pair on
// the cell's substrate with the cell's payload, reporting the round
// trip and the run's metric registry.
func echoBody(c Cell, r sweep.Run) Outcome {
	sub := MustAs[lynx.Substrate](c, "substrate")
	payload := MustAs[int](c, "payload")
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: r.Seed})
	data := make([]byte, payload)
	var rtt lynx.Duration
	cl := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
		start := th.Now()
		if _, err := th.Connect(boot[0], "echo", lynx.Msg{Data: data}); err != nil {
			return
		}
		rtt = lynx.Duration(th.Now() - start)
		th.Destroy(boot[0])
	})
	sv := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
		th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{Data: req.Data()})
		})
	})
	sys.Join(cl, sv)
	err := sys.Run()
	return Outcome{
		Values:  map[string]float64{"rtt_ns": float64(rtt)},
		Metrics: sys.Metrics(),
		Err:     err,
	}
}

// Outcome aliases sweep.Outcome for test brevity.
type Outcome = sweep.Outcome

func spec(parallel int) Spec {
	return Spec{
		Name: "echo",
		Axes: []Axis{
			{Name: "substrate", Values: []any{lynx.Chrysalis, lynx.Ideal}},
			{Name: "payload", Values: []any{0, 256, 1024}},
		},
		Replicas: 2,
		Parallel: parallel,
		RootSeed: 7,
		Body:     echoBody,
	}
}

// The determinism contract: every cell's stats are identical, and the
// JSONL rendering byte-identical, for Parallel=1 and Parallel=8. Run
// under -race by `make race`.
func TestGridDeterministicAcrossParallelism(t *testing.T) {
	serial := Run(spec(1))
	wide := Run(spec(8))
	for i := range serial.Cells {
		s, w := serial.Cells[i].Agg, wide.Cells[i].Agg
		if !reflect.DeepEqual(s.Values, w.Values) || !reflect.DeepEqual(s.Metrics(), w.Metrics()) {
			t.Fatalf("cell %s: stats differ across parallelism", serial.Cells[i].Cell.Key())
		}
	}
	if s, w := serial.RenderJSONL(), wide.RenderJSONL(); s != w {
		t.Fatalf("JSONL render differs:\n--- serial\n%s\n--- parallel\n%s", s, w)
	}
	// Per-replica outcomes, not just aggregates, must agree cell-wise.
	for i := range serial.Cells {
		so, wo := serial.Cells[i].Agg.Outcomes, wide.Cells[i].Agg.Outcomes
		for k := range so {
			if so[k].Values["rtt_ns"] != wo[k].Values["rtt_ns"] {
				t.Fatalf("cell %d replica %d rtt differs across parallelism", i, k)
			}
		}
	}
	if serial.Errs() != 0 {
		t.Fatalf("replica errors: %d", serial.Errs())
	}
}

// Cells enumerate row-major with the last axis fastest, and keys,
// lookups, and accessors agree.
func TestGridEnumerationAndLookup(t *testing.T) {
	tbl := Run(spec(2))
	wantKeys := []string{
		"substrate=chrysalis/payload=0",
		"substrate=chrysalis/payload=256",
		"substrate=chrysalis/payload=1024",
		"substrate=ideal/payload=0",
		"substrate=ideal/payload=256",
		"substrate=ideal/payload=1024",
	}
	if len(tbl.Cells) != len(wantKeys) {
		t.Fatalf("cells = %d, want %d", len(tbl.Cells), len(wantKeys))
	}
	for i, k := range wantKeys {
		c := tbl.Cells[i].Cell
		if c.Key() != k || c.Index != i {
			t.Fatalf("cell %d key/index = %q/%d, want %q/%d", i, c.Key(), c.Index, k, i)
		}
		if tbl.Cell(k) != tbl.Cells[i] {
			t.Fatalf("lookup %q did not return cell %d", k, i)
		}
	}
	if got := tbl.CellAt(lynx.Ideal, 256); got == nil || got.Cell.Key() != "substrate=ideal/payload=256" {
		t.Fatalf("CellAt(Ideal, 256) = %v", got)
	}
	if tbl.CellAt("ideal", 256) == nil {
		t.Fatal("CellAt by rendered value should match")
	}
	if tbl.CellAt(lynx.Ideal) != nil || tbl.Cell("nope") != nil {
		t.Fatal("bad lookups should return nil")
	}
	c := tbl.Cells[1].Cell
	if MustAs[int](c, "payload") != 256 || MustAs[lynx.Substrate](c, "substrate") != lynx.Chrysalis {
		t.Fatalf("accessors: payload=%d substrate=%v", MustAs[int](c, "payload"), MustAs[lynx.Substrate](c, "substrate"))
	}
	for name, read := range map[string]func(){
		"wrong type":   func() { MustAs[string](c, "payload") },
		"unknown axis": func() { MustAs[int](c, "nodes") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			read()
		}()
	}
}

// Cell seeds are the documented two-level split: independent of
// replica count and of the other cells.
func TestGridCellSeeds(t *testing.T) {
	var mu sweepSeeds
	Run(Spec{
		Axes:     []Axis{{Name: "x", Values: []any{10, 20}}},
		Replicas: 3,
		Parallel: 1,
		RootSeed: 5,
		Body: func(c Cell, r sweep.Run) Outcome {
			mu.add(c.Index, r.Replica, r.Seed)
			return Outcome{}
		},
	})
	for cell, reps := range mu.seen {
		for rep, s := range reps {
			if want := sweep.CellSeed(5, cell, rep); s != want {
				t.Fatalf("cell %d replica %d seed = %#x, want %#x", cell, rep, s, want)
			}
		}
	}
}

type sweepSeeds struct{ seen map[int]map[int]uint64 }

func (s *sweepSeeds) add(cell, rep int, seed uint64) {
	if s.seen == nil {
		s.seen = map[int]map[int]uint64{}
	}
	if s.seen[cell] == nil {
		s.seen[cell] = map[int]uint64{}
	}
	s.seen[cell][rep] = seed
}

// A grid with no axes is a single "all" cell; its sweep gets the whole
// worker budget and renders sanely.
func TestGridNoAxes(t *testing.T) {
	tbl := Run(Spec{
		Replicas: 4,
		Parallel: 4,
		Body: func(c Cell, r sweep.Run) Outcome {
			return Outcome{Values: map[string]float64{"v": float64(r.Replica)}}
		},
	})
	if len(tbl.Cells) != 1 || tbl.Cells[0].Cell.Key() != "all" {
		t.Fatalf("no-axes grid: %d cells, key %q", len(tbl.Cells), tbl.Cells[0].Cell.Key())
	}
	if tbl.CellAt() == nil {
		t.Fatal("CellAt() should find the single cell")
	}
	if jl := tbl.RenderJSONL(); !strings.HasPrefix(jl, `{"cell":"all",`) {
		t.Fatalf("render missing the all cell:\n%s", jl)
	}
}

// JSONL carries the expected shape.
func TestGridRenderFormats(t *testing.T) {
	tbl := Run(spec(2))
	jl := tbl.RenderJSONL()
	lines := strings.Split(strings.TrimSuffix(jl, "\n"), "\n")
	if len(lines) != len(tbl.Cells) {
		t.Fatalf("JSONL lines = %d, want %d", len(lines), len(tbl.Cells))
	}
	if !strings.Contains(lines[0], `"cell":"substrate=chrysalis/payload=0"`) ||
		!strings.Contains(lines[0], `"coords":{"payload":"0","substrate":"chrysalis"}`) {
		t.Fatalf("JSONL first line shape wrong: %s", lines[0])
	}
}
