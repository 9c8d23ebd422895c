package main

import (
	"bytes"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/golden"
)

// updateGolden regenerates the figure goldens:
//
//	go test ./cmd/lynxtrace -run TestFigureGoldens -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden traces")

// runCLI runs the command in-process and returns its stdout, its
// stderr and its exit code.
func runCLI(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code, msg := cli.Trap(func() { run(args, &out, &errOut) })
	return out.String(), errOut.String() + msg, code
}

// Figures 1 and 2 on every substrate, as text and as JSONL: stdout is
// the behaviour contract, byte for byte.
func TestFigureGoldens(t *testing.T) {
	for _, fig := range []string{"1", "2"} {
		for _, sub := range []string{"charlotte", "soda", "chrysalis", "ideal"} {
			for _, format := range []string{"text", "jsonl"} {
				name := fmt.Sprintf("fig%s_%s.%s", fig, sub, format)
				t.Run(name, func(t *testing.T) {
					out, errOut, code := runCLI("-fig", fig, "-substrate", sub, "-format", format)
					if code != 0 {
						t.Fatalf("exit %d: %s", code, errOut)
					}
					golden.Check(t, filepath.Join("testdata", name), []byte(out), *updateGolden)
				})
			}
		}
	}
}

// A negative enclosure count is a usage error (exit 2) that names the
// flag, not a figure 2 run "moving -1 link end(s)".
func TestNegativeEnclosuresIsUsageError(t *testing.T) {
	out, errOut, code := runCLI("-fig", "2", "-enclosures", "-1")
	if code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d (stderr %q)", code, cli.ExitUsage, errOut)
	}
	if out != "" || !strings.Contains(errOut, "-enclosures") {
		t.Fatalf("stdout %q, stderr %q: want no trace and an error naming -enclosures", out, errOut)
	}
	if _, errOut, code := runCLI("-fig", "2", "-enclosures", "0", "-format", "jsonl"); code != 0 {
		t.Fatalf("zero enclosures: exit %d, want 0 (stderr %q)", code, errOut)
	}
}
