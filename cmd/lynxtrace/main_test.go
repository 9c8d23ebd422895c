package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/golden"
	"repro/internal/obs"
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

// -format chrome renders each figure as one Chrome trace document
// carrying exactly the JSONL golden's events: the same count, kinds,
// processes and threads, with ts = at/1000 in the same order.
func TestChromeMatchesJSONLGolden(t *testing.T) {
	for _, fig := range []string{"1", "2"} {
		for _, sub := range []string{"charlotte", "soda", "chrysalis", "ideal"} {
			t.Run(fmt.Sprintf("fig%s_%s", fig, sub), func(t *testing.T) {
				out, errOut, code := runCLI("-fig", fig, "-substrate", sub, "-format", "chrome")
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut)
				}
				var doc struct {
					TraceEvents []struct {
						Name string  `json:"name"`
						Ts   float64 `json:"ts"`
						Pid  int     `json:"pid"`
						Tid  int     `json:"tid"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal([]byte(out), &doc); err != nil {
					t.Fatalf("chrome output is not one JSON document: %v", err)
				}
				golden, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("fig%s_%s.jsonl", fig, sub)))
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimRight(string(golden), "\n"), "\n")
				if len(doc.TraceEvents) != len(lines) {
					t.Fatalf("chrome has %d events, JSONL golden %d", len(doc.TraceEvents), len(lines))
				}
				for i, line := range lines {
					var ev obs.Event
					if err := json.Unmarshal([]byte(line), &ev); err != nil {
						t.Fatalf("golden line %d: %v", i+1, err)
					}
					ce := doc.TraceEvents[i]
					if ce.Name != ev.Kind.String() || ce.Ts != float64(ev.At)/1e3 || ce.Pid != ev.Proc || ce.Tid != 0 {
						t.Fatalf("event %d: chrome %+v, golden %s", i, ce, line)
					}
				}
			})
		}
	}
}
