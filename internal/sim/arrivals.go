package sim

import "math"

// ExpFloat64 returns a unit-mean exponential draw via the inverse-CDF
// transform of one uniform draw. One Uint64 of generator state is
// consumed per call, and the -ln(u) transform involves no
// platform-varying intrinsics (math.Log is the portable Go
// implementation on the supported targets), so arrival schedules
// derived from it are reproducible across machines.
func (r *Rand) ExpFloat64() float64 {
	u := r.Float64()
	if u <= 0 {
		u = 1e-12 // Float64 is in [0,1); guard the measure-zero edge anyway
	}
	return -math.Log(u)
}

// ArrivalStream is a deterministic open-loop arrival process in virtual
// time: successive calls to Next return the instants of a Poisson
// process with the given rate, drawn from a private seeded stream.
//
// It is the first-class generator primitive for workload engines that
// inject traffic into a running simulation. A generator simproc asks
// the stream for the next instant and sleeps until it — it never holds
// a timer of its own between arrivals and never consumes the
// environment's shared Rand, so an arrival process neither perturbs
// other seeded draws nor fights the fast-path scheduler's timer
// freelist with long-lived pending timers.
type ArrivalStream struct {
	rng *Rand
	// mean is the mean interarrival gap in virtual nanoseconds.
	mean float64
	at   Time
}

// NewArrivalStream creates a Poisson arrival stream with ratePerSec
// events per virtual second, drawing from its own stream seeded with
// seed. It panics if ratePerSec is not positive (an arrival process
// with no rate is a configuration error, not a workload).
func NewArrivalStream(seed uint64, ratePerSec float64) *ArrivalStream {
	if ratePerSec <= 0 {
		panic("sim: ArrivalStream rate must be positive")
	}
	return &ArrivalStream{
		rng:  NewRand(seed),
		mean: float64(Second) / ratePerSec,
	}
}

// Next advances the stream by one exponential gap and returns the new
// arrival instant. The first arrival falls one gap after time zero (a
// Poisson process has no event at its origin). Gaps are floored at one
// nanosecond so instants strictly advance — two arrivals never collide
// on the same virtual tick, which keeps downstream event ordering a
// function of the schedule alone.
func (s *ArrivalStream) Next() Time {
	gap := Time(s.mean * s.rng.ExpFloat64())
	if gap < 1 {
		gap = 1
	}
	s.at += gap
	return s.at
}
