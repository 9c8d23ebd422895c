package main

import (
	"encoding/json"
	"flag"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/golden"
	"repro/lynx"
	"repro/lynx/load"
)

func testConfig(t *testing.T) loadConfig {
	t.Helper()
	mix, err := load.ParseMix(load.DefaultMix)
	if err != nil {
		t.Fatal(err)
	}
	return loadConfig{
		subs:   []lynx.Substrate{lynx.Charlotte},
		mix:    mix,
		seed:   3,
		rates:  []float64{25, 200},
		window: lynx.Duration(200 * time.Millisecond),
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("5, 20,80.5")
	if err != nil || len(got) != 3 || got[2] != 80.5 {
		t.Fatalf("parseRates = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-5", "5,0", "5,-1", "x", "5,,20"} {
		if _, err := parseRates(bad); err == nil {
			t.Fatalf("parseRates(%q) should fail", bad)
		}
	}
}

func TestParseSubstrates(t *testing.T) {
	subs, err := lynx.ParseSubstrates("soda, charlotte")
	if err != nil || len(subs) != 2 || subs[0] != lynx.SODA {
		t.Fatalf("ParseSubstrates = %v, %v", subs, err)
	}
	for _, bad := range []string{"", "mars", "soda,mars"} {
		if _, err := lynx.ParseSubstrates(bad); err == nil {
			t.Fatalf("ParseSubstrates(%q) should fail", bad)
		}
	}
}

// runSingle is one single-System open-loop run; zero and negative
// rates are rejected by the engine, not silently clamped.
func TestRunSingleEdgeRates(t *testing.T) {
	c := testConfig(t)
	for _, bad := range []float64{0, -10} {
		if _, err := runSingle(c, bad); err == nil {
			t.Fatalf("rate %g should be rejected", bad)
		}
	}
	res, err := runSingle(c, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Arrivals || res.Arrivals == 0 {
		t.Fatalf("arrivals=%d completed=%d", res.Arrivals, res.Completed)
	}
}

// The overload sweep flattens grid cells into rows in enumeration
// order and passes the shape check.
func TestRunOverloadRows(t *testing.T) {
	c := testConfig(t)
	rows, tbl, err := runOverload(c.sweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(c.subs)*len(c.rates) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Rate != c.rates[i%len(c.rates)] || r.Substrate != "charlotte" {
			t.Fatalf("row %d out of enumeration order: %+v", i, r)
		}
		if r.Completed != r.Arrivals {
			t.Fatalf("row %d did not drain: %+v", i, r)
		}
	}
	if tbl.RenderMatrix("substrate", "rate", "realized") == "" {
		t.Fatal("matrix render empty")
	}
}

func TestCheckShape(t *testing.T) {
	if err := load.CheckShape([]load.Row{{Arrivals: 5, Completed: 4}}); err == nil {
		t.Fatal("undrained row should fail the shape check")
	}
	if err := load.CheckShape([]load.Row{{Rate: 10, Arrivals: 50, Completed: 50, Realized: 100}}); err == nil {
		t.Fatal("realized far above offered should fail the shape check")
	}
	if err := load.CheckShape([]load.Row{{Rate: 10, Arrivals: 50, Completed: 50, Realized: 9}}); err != nil {
		t.Fatal(err)
	}
	// A Poisson burst: 11 arrivals at 40/s in a 180 ms makespan, which
	// a 7.2-arrival mean reaches one time in nine.
	burst := load.Row{Substrate: "ideal", Rate: 40, Arrivals: 11, Completed: 11, MakespanMS: 180.05, Realized: 61.09}
	if err := load.CheckShape([]load.Row{burst}); err != nil {
		t.Fatalf("short burst: %v", err)
	}
	// 1.2x the offered rate over 5,000 completions is 13 standard
	// deviations out.
	if err := load.CheckShape([]load.Row{{Rate: 40, Arrivals: 5000, Completed: 5000, Realized: 48}}); err == nil {
		t.Fatal("5,000 completions at 1.2x offered should fail the shape check")
	}
}

// updateGolden regenerates the table goldens:
//
//	go test ./cmd/lynxload -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden tables")

// checkTableGolden runs the sweep the command line args select and
// compares its rows, as indented JSON, with the named golden file.
// Virtual-time tables are pure functions of the seed, so any drift is
// a behaviour change, not noise.
func checkTableGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	c, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := runOverload(c.sweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", name), append(got, '\n'), *updateGolden)
}

// The default overload table: three substrates at 5, 20, 80 and 320
// arrivals per virtual second over a 1 s window.
func TestOverloadTableGolden(t *testing.T) {
	checkTableGolden(t, "overload.json")
}

// The faults table: three substrates under every registered fault
// scenario at 40 arrivals per virtual second over a 250 ms window.
func TestFaultsTableGolden(t *testing.T) {
	checkTableGolden(t, "faults.json", "-faults", "default", "-rates", "40", "-window", "250ms")
}

// The -gens 4 sweep gives every run a 4-component boot graph, so each
// cell partitions into per-generator shards, each on its own segment of
// the medium. Its -json table must be byte-identical at 1 and 4
// in-System workers, and is pinned as a golden.
func TestGens4TableGolden(t *testing.T) {
	var tables []string
	for _, workers := range []string{"1", "4"} {
		c, err := parseArgs([]string{"-rates", "30,60", "-substrates", "charlotte,soda",
			"-window", "200ms", "-seed", "1", "-gens", "4", "-simworkers", workers, "-json"})
		if err != nil {
			t.Fatal(err)
		}
		_, tbl, err := runOverload(c.sweepOptions())
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl.RenderJSONL())
	}
	if tables[0] != tables[1] {
		t.Fatalf("-gens 4 table differs between simworkers 1 and 4:\n%s\n---\n%s", tables[0], tables[1])
	}
	golden.Check(t, filepath.Join("testdata", "gens4.json"), []byte(tables[0]), *updateGolden)
}

// Bad values are usage errors that name the flag.
func TestParseArgsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-rates", "5,0"},
		{"-rates", "-1"},
		{"-rates", "NaN"},
		{"-rates", "Inf"},
		{"-rate", "-1"},
		{"-rate", "NaN"},
		{"-rate", "+Inf"},
		{"-window", "0s"},
		{"-faults", "no-such-scenario"},
		{"-substrates", "mars"},
		{"-mix", "bogus"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) should fail", args)
		}
	}
}
