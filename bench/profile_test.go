package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for hand-built profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, body []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(body)))
	return append(b, body...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(num, body)
}

// stack is a test sample: its count and its frames, innermost first, as
// function name and file. Frames in one inner slice share a location
// (inlined calls).
type stack struct {
	count  int64
	frames [][][2]string
}

// buildProfile encodes stacks as a gzip-compressed profile.proto. Odd
// samples list their locations unpacked, to cover both encodings.
func buildProfile(t *testing.T, period int64, stacks []stack) []byte {
	t.Helper()
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	fnID := map[[2]string]uint64{}
	nextLoc := uint64(0)
	for si, st := range stacks {
		var locs []uint64
		for _, loc := range st.frames {
			nextLoc++
			var l pb
			l = l.varint(locationID, nextLoc)
			for _, f := range loc {
				id, ok := fnID[f]
				if !ok {
					id = uint64(len(fnID) + 1)
					fnID[f] = id
					var fn pb
					fn = fn.varint(functionID, id).varint(functionName, str(f[0])).varint(functionFilename, str(f[1]))
					prof = prof.bytes(profFunction, fn)
				}
				l = l.bytes(locationLine, pb(nil).varint(lineFunctionID, id))
			}
			prof = prof.bytes(profLocation, l)
			locs = append(locs, nextLoc)
		}
		var s pb
		if si%2 == 0 {
			s = s.packed(sampleLocationID, locs...)
		} else {
			for _, l := range locs {
				s = s.varint(sampleLocationID, l)
			}
		}
		s = s.packed(sampleValue, uint64(st.count), uint64(st.count*period))
		prof = prof.bytes(profSample, s)
	}
	for _, s := range strs {
		prof = prof.bytes(profStringTable, []byte(s))
	}
	prof = prof.varint(profPeriod, uint64(period))
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func frames(fs ...string) [][][2]string {
	out := make([][][2]string, 0, len(fs)/2)
	for i := 0; i < len(fs); i += 2 {
		out = append(out, [][2]string{{fs[i], fs[i+1]}})
	}
	return out
}

func TestProfileLayerClassification(t *testing.T) {
	const period = 2000000
	cases := []struct {
		name  string
		st    stack
		layer string
	}{
		{"sim engine", stack{3, frames(
			"repro/internal/sim.(*Env).next", "/src/internal/sim/sim.go",
			"repro/internal/sim.(*Env).Run", "/src/internal/sim/sim.go")}, "sim"},
		{"parallel engine file", stack{2, frames(
			"repro/internal/sim.(*parCoord).runWindow", "/src/internal/sim/parallel.go",
			"repro/internal/sim.(*Env).Run", "/src/internal/sim/sim.go")}, "sim.parallel"},
		{"runtime leaf billed to caller", stack{5, frames(
			"runtime.mallocgc", "/go/src/runtime/malloc.go",
			"repro/internal/core.(*Thread).Connect", "/src/internal/core/ops.go",
			"main.rpcLoad.run.func2", "/src/bench/workloads.go")}, "core"},
		{"kernel", stack{1, frames("repro/internal/charlotte.(*Kernel).deliver", "/src/internal/charlotte/charlotte.go")}, "charlotte"},
		{"binding", stack{1, frames("repro/internal/bind/soda.(*Transport).put", "/src/internal/bind/soda/sodabind.go")}, "bind.soda"},
		{"medium", stack{1, frames("repro/internal/netsim.(*CSMABus).SendTime", "/src/internal/netsim/netsim.go")}, "netsim"},
		{"flight recorder is obs", stack{1, frames("repro/internal/obs/flight.(*Recorder).Event", "/src/internal/obs/flight/flight.go")}, "obs"},
		{"sweep is grid", stack{1, frames("repro/lynx/sweep.Summarize", "/src/lynx/sweep/sweep.go")}, "grid"},
		{"generic grid", stack{1, frames("repro/lynx/grid.MustAs[go.shape.int]", "/src/lynx/grid/typed.go")}, "grid"},
		{"load", stack{1, frames("repro/lynx/load.Run.func1", "/src/lynx/load/load.go")}, "load"},
		{"other repo package is lynx", stack{1, frames("repro/lynx/fault.(*Injector).Split", "/src/lynx/fault/fault.go")}, "lynx"},
		{"benchmark main", stack{1, frames("main.layerCounts", "/src/bench/workloads.go")}, "bench"},
		{"gc worker", stack{4, frames(
			"runtime.scanobject", "/go/src/runtime/mgcmark.go",
			"runtime.gcBgMarkWorker.func2", "/go/src/runtime/mgc.go",
			"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go")}, "runtime.gc"},
		{"sweeper", stack{1, frames("runtime.bgsweep", "/go/src/runtime/mgcsweep.go")}, "runtime.gc"},
		{"scheduler", stack{2, frames(
			"runtime.findRunnable", "/go/src/runtime/proc.go",
			"runtime.schedule", "/go/src/runtime/proc.go",
			"runtime.mcall", "/go/src/runtime/asm_amd64.s")}, "runtime.sched"},
		{"other runtime", stack{1, frames("runtime.sysmon", "/go/src/runtime/proc.go")}, "runtime.other"},
		{"inlined frames share a location", stack{2, [][][2]string{{
			{"repro/internal/obs.(*Counter).Add", "/src/internal/obs/metrics.go"},
			{"repro/internal/chrysalis.(*Process).Enqueue", "/src/internal/chrysalis/chrysalis.go"},
		}}}, "obs"},
	}
	var stacks []stack
	want := map[string]int64{}
	var total int64
	for _, c := range cases {
		stacks = append(stacks, c.st)
		want[c.layer] += c.st.count
		total += c.st.count
	}
	p, err := decodeProfile(buildProfile(t, period, stacks))
	if err != nil {
		t.Fatal(err)
	}
	if p.periodNs != period {
		t.Errorf("period = %d, want %d", p.periodNs, period)
	}
	for i, c := range cases {
		if got := layerOf(p.samples[i].stack); got != c.layer {
			t.Errorf("%s: billed to %s, want %s", c.name, got, c.layer)
		}
	}
	got := hostShares(p)
	pcts := layerPcts(got)
	sum := 0.0
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("layer %s: %d samples, want %d", l, got[l], want[l])
		}
		sum += pcts[l]
	}
	if len(pcts) != len(layers) {
		t.Errorf("layerPcts reports %d layers, want %d", len(pcts), len(layers))
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("host_pct sums to %v, want 100", sum)
	}
	if pcts["sim.parallel"] != 100*2/float64(total) {
		t.Errorf("sim.parallel = %v%%, want %v%%", pcts["sim.parallel"], 100*2/float64(total))
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	good := buildProfile(t, 1, []stack{{1, frames("main.f", "f.go")}})
	zr, err := gzip.NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := decodeProfile(buf.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
