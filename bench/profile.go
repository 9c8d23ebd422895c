package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the modules host time is billed to, in report order.
var layers = []string{
	"sim", "sim.parallel", "netsim",
	"charlotte", "soda", "chrysalis",
	"bind.charlotte", "bind.soda", "bind.chrysalis",
	"core", "lynx", "load", "grid", "obs", "bench",
	"runtime.gc", "runtime.sched", "runtime.other",
}

// repoLayers maps a repository package (path below the module root) to
// its layer. Repository packages not listed here are billed to lynx,
// the layer that assembles Systems (lynx/fault, internal/calib, ...).
var repoLayers = map[string]string{
	"internal/sim":            "sim",
	"internal/netsim":         "netsim",
	"internal/charlotte":      "charlotte",
	"internal/soda":           "soda",
	"internal/chrysalis":      "chrysalis",
	"internal/bind/charlotte": "bind.charlotte",
	"internal/bind/soda":      "bind.soda",
	"internal/bind/chrysalis": "bind.chrysalis",
	"internal/core":           "core",
	"internal/obs":            "obs",
	"internal/obs/flight":     "obs",
	"lynx/load":               "load",
	"lynx/grid":               "grid",
	"lynx/sweep":              "grid",
	"bench":                   "bench",
}

// frame is one stack frame of a profile sample.
type frame struct{ fn, file string }

// sample is one decoded profile sample: how many times the stack was
// seen, and the stack, innermost frame first.
type sample struct {
	count int64
	stack []frame
}

// cpuProfile is the part of a profile.proto the classifier needs.
type cpuProfile struct {
	samples  []sample
	periodNs int64 // CPU nanoseconds one sample stands for
}

// layerOf bills a stack to a layer: the innermost frame in a
// repository package decides; a stack with none is background runtime
// work, split into garbage collection, scheduling and the rest.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if l := repoLayer(f); l != "" {
			return l
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime.gcBgMarkWorker") ||
			strings.HasPrefix(f.fn, "runtime.bgsweep") ||
			strings.HasPrefix(f.fn, "runtime.bgscavenge") {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		switch f.fn {
		case "runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.findrunnable":
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// repoLayer returns the layer of a frame in a repository package, or ""
// for any other frame. The benchmark's own main package is "bench".
func repoLayer(f frame) string {
	pkg := packageOf(f.fn)
	if pkg == "main" {
		return "bench"
	}
	rel, ok := strings.CutPrefix(pkg, "repro/")
	if !ok {
		return ""
	}
	l, ok := repoLayers[rel]
	if !ok {
		return "lynx"
	}
	if l == "sim" && strings.HasSuffix(f.file, "internal/sim/parallel.go") {
		return "sim.parallel"
	}
	return l
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/sim.(*Env).Run" or "repro/lynx/grid.MustAs[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// hostShares sums sample counts per layer.
func hostShares(p *cpuProfile) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		out[layerOf(s.stack)] += s.count
	}
	return out
}

// layerPcts turns per-layer sample counts into each layer's share of
// all samples, in percent, for every layer.
func layerPcts(samples map[string]int64) map[string]float64 {
	var total int64
	for _, n := range samples {
		total += n
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 100 * float64(samples[l]) / float64(max(total, 1))
	}
	return out
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSample       = 2
	profLocation     = 4
	profFunction     = 5
	profStringTable  = 6
	profPeriod       = 12
	sampleLocationID = 1
	sampleValue      = 2
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

// decodeProfile reads a gzip-compressed profile.proto as written by
// runtime/pprof: just the samples' first value (the sample count),
// their stacks of function and file names, and the sampling period.
func decodeProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	type function struct{ name, file int64 }
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]function{}
		strs      []string
		period    int64
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			first := true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locs, v, b)
				case sampleValue:
					if first {
						var vals []uint64
						if err := appendVarints(&vals, v, b); err != nil || len(vals) == 0 {
							return err
						}
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var f function
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFilename:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		case profStringTable:
			strs = append(strs, string(b))
		case profPeriod:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{periodNs: period}
	for _, rs := range samples {
		s := sample{count: rs.count}
		for _, loc := range rs.locs {
			for _, fid := range locations[loc] {
				f := functions[fid]
				s.stack = append(s.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, calling fn with
// each field's number and its integer value (wire types 0, 1 and 5) or
// its bytes (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
