//go:build !unix && !race

package flight_test

// cpuSeconds falls back to zero where rusage is unavailable; the
// overhead gate then measures wall clock.
func cpuSeconds() float64 { return 0 }
