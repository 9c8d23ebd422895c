package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// calibNominal is the calibration loop's time at the nominal machine
// speed the host metrics are scaled to: about its median on the 2-CPU
// Xeon container the readings in readings/ come from.
const calibNominal = 100 * time.Millisecond

// calibrate times a fixed amount of stdlib-only work shaped like the
// simulator's host work, goroutine hand-offs and bursts of small
// pointer-linked allocations, on every core at once, and returns its
// wall seconds. Runs interleave it with their reps; its median over a
// run measures how fast the shared host is running the kind of code the
// workloads run, which drifts by up to two times over minutes while a
// plain arithmetic loop drifts by a fifth (see README.md). It starts
// from a collected heap, so the rep before it does not change its work,
// and hands its memory back to the OS at the end, so the next rep's
// peak resident set is the rep's own.
func calibrate() float64 {
	runtime.GC()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handoffs(50000)
			allocBursts(2, 100000)
		}()
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	debug.FreeOSMemory()
	return el
}

// handoffs passes a value n times to and fro between two goroutines
// over unbuffered channels.
func handoffs(n int) {
	to, from := make(chan int), make(chan int)
	go func() {
		for v := range to {
			from <- v + 1
		}
		close(from)
	}()
	for i := 0; i < n; i++ {
		to <- i
		<-from
	}
	close(to)
	<-from
}

type calibNode struct {
	next *calibNode
	v    [6]int
}

// allocBursts builds rounds linked lists of n nodes each, every third
// node also kept in a map, and drops each round for the next. It
// returns the last round's map size, so the work cannot be optimized
// away.
func allocBursts(rounds, n int) int {
	var m map[int]*calibNode
	for r := 0; r < rounds; r++ {
		m = map[int]*calibNode{}
		var head *calibNode
		for i := 0; i < n; i++ {
			head = &calibNode{next: head}
			head.v[0] = i
			if i%3 == 0 {
				m[i] = head
			}
		}
	}
	return len(m)
}
