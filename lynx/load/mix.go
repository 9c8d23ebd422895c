package load

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kinds are the short-System workload shapes, in mix-string order.
var Kinds = []string{"echo", "pipeline", "mesh"}

// DefaultMix is the standard traffic mix: mostly cheap echoes with a
// tail of heavier pipeline and mesh runs.
const DefaultMix = "echo=7,pipeline=2,mesh=1"

// Mix is a parsed traffic mix: kinds with relative integer weights for
// seeded weighted picks. Weights need not sum to any particular total —
// echo=7,pipeline=2,mesh=1 and echo=70,pipeline=20,mesh=10 describe the
// same traffic.
type Mix struct {
	names   []string
	weights []int
	total   int
}

// ParseMix parses a "kind=weight,kind=weight" mix string. Unknown
// kinds, malformed entries, negative weights and weights whose sum
// overflows an int are errors; zero-weight entries are dropped; a mix
// with no positive weight is an error.
func ParseMix(s string) (*Mix, error) {
	m := &Mix{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad mix entry %q (want kind=weight)", part)
		}
		known := false
		for _, k := range Kinds {
			if kv[0] == k {
				known = true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown workload kind %q (have %s)", kv[0], strings.Join(Kinds, "/"))
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", kv[1])
		}
		if w == 0 {
			continue
		}
		if w > math.MaxInt-m.total {
			return nil, fmt.Errorf("mix %q: weights sum past the int range", s)
		}
		m.names = append(m.names, kv[0])
		m.weights = append(m.weights, w)
		m.total += w
	}
	if m.total == 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", s)
	}
	return m, nil
}

// Pick draws a kind from the mix using the given seeded stream, so the
// kind of draw k is a pure function of the stream's seed.
func (m *Mix) Pick(r *sim.Rand) string {
	n := r.Intn(m.total)
	for i, w := range m.weights {
		if n < w {
			return m.names[i]
		}
		n -= w
	}
	return m.names[len(m.names)-1]
}

// String renders the mix canonically as "kind=weight,..." in entry
// order — the form workload keys embed.
func (m *Mix) String() string {
	parts := make([]string, len(m.names))
	for i, n := range m.names {
		parts[i] = fmt.Sprintf("%s=%d", n, m.weights[i])
	}
	return strings.Join(parts, ",")
}
