//go:build unix && !race

package flight_test

import "syscall"

// cpuSeconds returns the process's cumulative user+system CPU time.
// The overhead gate measures with it instead of wall clock: on shared
// hardware wall time includes whatever the OS scheduler stole from the
// run, which flaps a 5% threshold, while CPU time bills only the work
// the process did.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
