package sim

// Rand is a small deterministic random source (splitmix64 core) so that
// simulation runs are reproducible across platforms and Go versions
// (math/rand's stream is version-dependent for some helpers).
type Rand struct {
	state uint64
}

// NewRand creates a source seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// DurationN returns a uniform Duration in [0, d).
func (r *Rand) DurationN(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(r.Uint64() % uint64(d))
}

// Fork derives an independent child source; streams do not overlap for
// practical purposes.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64() ^ 0xa3c59ac2f0136d21)
}

// StreamSeed derives the stream-th child seed from a root seed using a
// stateless splitmix64 split: finalize root to decorrelate nearby
// roots, perturb by the stream index times the splitmix64 increment,
// and finalize again. Unlike Fork it consumes no generator state, so
// replica k of a sweep gets the same seed no matter which worker runs
// it or in what order — the property the parallel run harness's
// determinism contract rests on.
func StreamSeed(root, stream uint64) uint64 {
	return mix64(mix64(root) + (stream+1)*0x9e3779b97f4a7c15)
}

// StreamSeed2 derives the (a, b)-th child seed of a two-level stream
// split: StreamSeed(StreamSeed(root, a), b). It is the seeding scheme
// of keyed configuration grids — cell a's replica b draws the same seed
// no matter how cells and replicas are scheduled across workers — and
// is exposed as a named helper so call sites document the nesting
// order instead of hand-composing splits inconsistently.
func StreamSeed2(root, a, b uint64) uint64 {
	return StreamSeed(StreamSeed(root, a), b)
}

// mix64 is the splitmix64 output finalizer (same constants as
// Rand.Uint64's scrambler).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
