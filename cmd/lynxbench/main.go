// Command lynxbench regenerates the paper's evaluation: every table and
// figure, as the experiments E1-E11 catalogued in DESIGN.md, plus the
// E12-E13 extensions.
//
// Experiments fan out across worker goroutines, and each can be
// replicated R times with independent seeds to turn the paper's
// single-seed point estimates into mean ±95% CI tables. Output is
// byte-identical for any -parallel value at fixed -reps/-seed.
//
// Usage:
//
//	lynxbench                      # run all experiments (GOMAXPROCS workers)
//	lynxbench -parallel 4 -reps 8  # 8 replicas per experiment, 4 workers
//	lynxbench -e E3 -reps 32       # replicate one experiment
//	lynxbench -e E7 -json          # machine-readable result + metric snapshot
//	lynxbench -list                # list experiment ids and titles
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/expt"
)

func main() { run(os.Args[1:], os.Stdout) }

// run is the command, writing tables or JSON to stdout.
func run(args []string, stdout io.Writer) {
	fs := flag.NewFlagSet("lynxbench", flag.ExitOnError)
	one := fs.String("e", "", "run a single experiment by id (E1..E13)")
	list := fs.Bool("list", false, "list experiments")
	asJSON := fs.Bool("json", false, "emit results as JSON (id, pass, table, obs metric snapshot)")
	parallel := fs.Int("parallel", 0, "worker goroutines (default GOMAXPROCS)")
	reps := fs.Int("reps", 1, "replicas per experiment (tables gain mean ±95% CI cells)")
	seed := fs.Uint64("seed", 1, "root seed for replicas beyond the canonical first")
	fs.Parse(args)

	opts := expt.Options{Parallel: *parallel, Reps: *reps, RootSeed: *seed}

	if *list {
		for _, e := range expt.Catalog() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	if *one != "" {
		if _, ok := expt.Lookup(*one); !ok {
			cli.Usagef("lynxbench", "unknown experiment %q", *one)
		}
		r := expt.ByIDWith(*one, opts)
		if *asJSON {
			emitJSON(stdout, r)
		} else {
			fmt.Fprint(stdout, r.Render())
		}
		if !r.Pass {
			cli.Exit(cli.ExitFailure)
		}
		return
	}
	results := expt.AllWith(opts)
	if *asJSON {
		emitJSON(stdout, results)
	}
	fail := 0
	for _, r := range results {
		if !*asJSON {
			fmt.Fprint(stdout, r.Render())
			fmt.Fprintln(stdout)
		}
		if !r.Pass {
			fail++
		}
	}
	if fail > 0 {
		cli.Failf("lynxbench", "%d experiment(s) did not match the paper's shape", fail)
	}
	if !*asJSON {
		fmt.Fprintln(stdout, "all experiments match the paper's shape")
	}
}

// emitJSON writes v (one Result or a slice of them) to w.
func emitJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	cli.Check("lynxbench", enc.Encode(v))
}
