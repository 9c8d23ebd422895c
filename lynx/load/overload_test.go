package load

import (
	"testing"

	"repro/lynx"
	"repro/lynx/grid"
)

// The factored-out sweep must stay a pure function of its options: same
// table bytes at any Parallel, rows that satisfy the physics check, and
// a stable canonical key (the header lynxload prints over its table).
func TestSweepSpecDeterministicAcrossParallel(t *testing.T) {
	opts := SweepOptions{
		Substrates: []lynx.Substrate{lynx.Charlotte},
		Rates:      []float64{30, 60},
		Window:     100 * lynx.Millisecond,
		Seed:       1,
	}
	if got, want := opts.Key(), "subs=charlotte rates=30,60 mix=echo=7,pipeline=2,mesh=1 seed=1 window=100ms"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	render := func(parallel int) (string, []Row) {
		o := opts
		o.Parallel = parallel
		spec, err := SweepSpec(o)
		if err != nil {
			t.Fatal(err)
		}
		tbl := grid.Run(spec)
		rows, err := Rows(tbl)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.RenderJSONL(), rows
	}
	j1, rows := render(1)
	j4, _ := render(4)
	if j1 != j4 {
		t.Fatalf("sweep table depends on Parallel:\n%s\nvs\n%s", j1, j4)
	}
	if len(rows) != 2 || rows[0].Rate != 30 || rows[1].Rate != 60 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Arrivals == 0 || r.Completed != r.Arrivals {
			t.Fatalf("row did not drain: %+v", r)
		}
	}
}

func TestSweepSpecValidates(t *testing.T) {
	if _, err := SweepSpec(SweepOptions{Rates: []float64{1}}); err == nil {
		t.Fatal("want error for empty substrate list")
	}
	if _, err := SweepSpec(SweepOptions{Substrates: []lynx.Substrate{lynx.SODA}}); err == nil {
		t.Fatal("want error for empty rate list")
	}
	if _, err := SweepSpec(SweepOptions{Substrates: []lynx.Substrate{lynx.SODA}, Rates: []float64{-1}}); err == nil {
		t.Fatal("want error for negative rate")
	}
}
