// Command cmp compares two reports written by the benchmark's -out flag,
// A (the reference) and B, against the bounds in BENCHMARK.json:
//
//	go run ./cmp A.json B.json
//
// For each workload and end-to-end metric it prints both medians, the
// change from A to B, the bound, and a verdict: worse or better when B
// moved past the bound in that direction, same when it did not, and
// unresolved when either side's quartile spread is wider than the bound.
// It then checks that every metric that must repeat exactly for a seed
// (virtual latencies, protocol counts) is identical in A and B. It exits
// 1 if any metric is worse or any exact metric differs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	EndToEnd []bound `json:"end_to_end"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Host  bool    `json:"host"`
}

type result struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	E2E      map[string]metric `json:"end_to_end"`
	Layers   map[string]metric `json:"per_layer"`
}

type report struct {
	Machine   map[string]any `json:"machine"`
	Workloads []*result      `json:"workloads"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// findBenchmark looks for BENCHMARK.json in the working directory and
// its parents.
func findBenchmark() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above; pass -benchmark")
		}
		dir = parent
	}
}

// iqrShare is a metric's quartile spread as a share of its median.
func iqrShare(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}

// verdict compares B's median with A's under one bound. delta is the
// change from A to B as a share of A, positive when B is better.
func verdict(a, b metric, bd bound) (delta float64, v string) {
	if a.Value != 0 {
		delta = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if bd.Better == "lower" {
		delta = -delta
	}
	switch {
	case iqrShare(a) > bd.Bound || iqrShare(b) > bd.Bound:
		return delta, "unresolved"
	case delta < -bd.Bound:
		return delta, "worse"
	case delta > bd.Bound:
		return delta, "better"
	}
	return delta, "same"
}

// exactDiffs lists the metrics that must repeat for a seed but differ
// between a and b, and counts those compared.
func exactDiffs(a, b *result) (diffs []string, n int) {
	for _, group := range [][2]map[string]metric{{a.E2E, b.E2E}, {a.Layers, b.Layers}} {
		for k, ma := range group[0] {
			mb, ok := group[1][k]
			if ma.Host || !ok || mb.Host {
				continue
			}
			n++
			if ma.Value != mb.Value {
				diffs = append(diffs, fmt.Sprintf("%s %v -> %v", k, ma.Value, mb.Value))
			}
		}
	}
	sort.Strings(diffs)
	return diffs, n
}

func main() {
	benchPath := flag.String("benchmark", "", "BENCHMARK.json with the bounds (default: found in . or a parent)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cmp [-benchmark BENCHMARK.json] A.json B.json")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(1)
	}
	if *benchPath == "" {
		p, err := findBenchmark()
		if err != nil {
			fail(err)
		}
		*benchPath = p
	}
	var bm benchmark
	if err := readJSON(*benchPath, &bm); err != nil {
		fail(err)
	}
	var a, b report
	if err := readJSON(flag.Arg(0), &a); err != nil {
		fail(err)
	}
	if err := readJSON(flag.Arg(1), &b); err != nil {
		fail(err)
	}
	fmt.Printf("A %s: %v\nB %s: %v\n", flag.Arg(0), a.Machine, flag.Arg(1), b.Machine)
	bad := false
	for _, ra := range a.Workloads {
		var rb *result
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			fmt.Printf("%s: missing from B\n", ra.Workload)
			bad = true
			continue
		}
		if ra.Seed != rb.Seed {
			fmt.Printf("%s: seed %d in A, %d in B; exact metrics not compared\n", ra.Workload, ra.Seed, rb.Seed)
		}
		for _, bd := range bm.EndToEnd {
			ma, okA := ra.E2E[bd.Name]
			mb, okB := rb.E2E[bd.Name]
			if !okA || !okB {
				fmt.Printf("%-20s %-14s missing\n", ra.Workload, bd.Name)
				bad = true
				continue
			}
			delta, v := verdict(ma, mb, bd)
			bad = bad || v == "worse"
			fmt.Printf("%-20s %-14s A %-12.6g B %-12.6g %+7.2f%% bound %4.1f%% %-10s (iqr A %.1f%% B %.1f%%) %s\n",
				ra.Workload, bd.Name, ma.Value, mb.Value, 100*delta, 100*bd.Bound, v,
				100*iqrShare(ma), 100*iqrShare(mb), bd.Unit)
		}
		if ra.Seed == rb.Seed {
			diffs, n := exactDiffs(ra, rb)
			fmt.Printf("%-20s exact metrics identical: %d of %d\n", ra.Workload, n-len(diffs), n)
			for _, d := range diffs {
				fmt.Printf("  differs: %s\n", d)
			}
			bad = bad || len(diffs) > 0
		}
	}
	if bad {
		os.Exit(1)
	}
}
