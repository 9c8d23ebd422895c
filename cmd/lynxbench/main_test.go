package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/expt"
	"repro/internal/golden"
)

// updateGolden regenerates the experiment golden:
//
//	go test ./cmd/lynxbench -run TestJSONGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden file")

// e5CountColumn is E5's column of source-line counts. They change with
// any edit to the counted packages, so the golden pins the column and
// E5's pass/fail, not the counts.
const e5CountColumn = "binding LoC (ours)"

// `lynxbench -json` over all thirteen experiments is the behaviour
// contract for the paper's tables: every cell, note and pass flag, and
// every experiment must match the paper's shape (exit 0).
func TestJSONGolden(t *testing.T) {
	var out bytes.Buffer
	if code, msg := cli.Trap(func() { run([]string{"-json"}, &out) }); code != 0 {
		t.Fatalf("exit %d: %s", code, msg)
	}
	var results []*expt.Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	maskE5Counts(t, results)
	var masked bytes.Buffer
	emitJSON(&masked, results)
	golden.Check(t, filepath.Join("testdata", "lynxbench.json"), masked.Bytes(), *updateGolden)
}

// maskE5Counts replaces E5's line counts with "N".
func maskE5Counts(t *testing.T, results []*expt.Result) {
	t.Helper()
	for _, r := range results {
		if r.ID != "E5" {
			continue
		}
		for c, name := range r.Columns {
			if name != e5CountColumn {
				continue
			}
			for _, row := range r.Rows {
				row[c] = "N"
			}
			return
		}
		t.Fatalf("E5 has no %q column: %q", e5CountColumn, r.Columns)
	}
	t.Fatal("no E5 result")
}
