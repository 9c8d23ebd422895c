package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/lynx"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func units(ms map[string]metric) []benchMetric {
	var out []benchMetric
	for k, m := range ms {
		out = append(out, benchMetric{k, m.Unit})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sorted(ms []benchMetric) []benchMetric {
	out := append([]benchMetric(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestBenchmarkJSONMatchesProgram measures a small workload, traced, and
// checks that the last line's metrics, untraced and traced, are exactly
// the end-to-end and per-layer metrics BENCHMARK.json declares.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %q, want %q", bf.Paths, want)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}

	small := spec{
		name: "small",
		full: rpcLoad{substrate: lynx.Charlotte, clients: 2, ops: 500},
		warm: rpcLoad{substrate: lynx.Charlotte, clients: 2, ops: 10},
	}
	res, err := measure(small, 3, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Reps < minReps {
		t.Errorf("correct %v, failed %d, %d reps", res.Correct, res.Failed, res.Reps)
	}
	// The bounded times are the unscaled ones at nominal host speed.
	slowdown := res.Layers["calib.loop_ms"].Value / float64(calibNominal.Milliseconds())
	for _, c := range []struct {
		name   string
		scaled float64
	}{
		{"ops_per_s", res.Layers["unscaled.ops_per_s"].Value * slowdown},
		{"setup_s", res.Layers["unscaled.setup_s"].Value / slowdown},
	} {
		if got := res.E2E[c.name].Value; math.Abs(got-c.scaled) > 1e-9*c.scaled || got <= 0 {
			t.Errorf("%s = %v, want %v (unscaled, host %vx slower than nominal)", c.name, got, c.scaled, slowdown)
		}
	}
	if got := units(res.contractMetrics()); !reflect.DeepEqual(got, sorted(bf.PerLayer)) {
		t.Errorf("traced metrics\n%v\nBENCHMARK.json per_layer\n%v", got, sorted(bf.PerLayer))
	}
	res.Traced = false
	if got := units(res.contractMetrics()); !reflect.DeepEqual(got, sorted(bf.EndToEnd)) {
		t.Errorf("untraced metrics\n%v\nBENCHMARK.json end_to_end\n%v", got, sorted(bf.EndToEnd))
	}
}
