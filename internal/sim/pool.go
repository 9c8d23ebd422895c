//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// This file holds the engine's one kind of runtime coroutine, the switch
// point, and its one list of idle goroutines, which simprocs and strands
// (LYNX threads) alike run on.

// A switchPoint is a runtime coroutine used as a symmetric switch. Every
// switch point has exactly one goroutine parked on it. transfer parks
// the calling goroutine there and resumes the one that was parked, so a
// switch point passes from goroutine to goroutine, and whoever resumes
// a parked goroutine must know the point it is parked on: a parked proc
// records it in Proc.sp, a parked strand in Strand.sp, a proc lent to
// its strands in Proc.lent, the driver in Env.drv, and an idle
// goroutine is listed by it.
//
// iter.Pull's next and yield are the two sides of one switch: a
// goroutine parked by next is resumed by yield, and one parked by yield
// (or the point's own goroutine before it first runs) is resumed by
// next. transfer resumes the parked goroutine with next or yield
// according to the side it parked on, which onNext records; calling the
// other would panic in iter.Pull.
type switchPoint struct {
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	onNext bool
	// start is the proc, or strand the strand, that an idle goroutine
	// resumed here starts, set by the resumer (see runGoroutine).
	start  *Proc
	strand *Strand
}

// transfer parks the calling goroutine on s and resumes the goroutine
// parked there; it returns when another goroutine transfers on the
// switch point the caller is then parked on, which is s again.
func (s *switchPoint) transfer() {
	if s.onNext {
		s.onNext = false
		s.yield(struct{}{})
		return
	}
	s.onNext = true
	s.next()
}

// procIdle is the shared list of idle goroutines, each named by the
// switch point it is parked on. Goroutines move between simprocs and
// strands, between envs, and between the workers of a parallel
// partition, through it.
//
// Nothing trims the list: it is the high-water mark of simprocs and
// strands live at once in the process (114 after the benchmark's
// open-soda workload). A goroutine can exit only through its own switch
// point, waking the goroutine parked there, and that is safe only when
// the goroutine parked there is the one stopping it. An idle goroutine
// parked on a switch point another goroutine owns cannot be stopped.
var procIdle struct {
	sync.Mutex
	s []*switchPoint
}

// idleG returns a switch point with an idle goroutine parked on it:
// one this env retired during the current run, else one from the shared
// list, else a new one.
func (e *Env) idleG() *switchPoint {
	if n := len(e.idle); n > 0 {
		s := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return s
	}
	procIdle.Lock()
	if n := len(procIdle.s); n > 0 {
		s := procIdle.s[n-1]
		procIdle.s[n-1] = nil
		procIdle.s = procIdle.s[:n-1]
		procIdle.Unlock()
		return s
	}
	procIdle.Unlock()
	s := &switchPoint{}
	// The goroutine never returns from runGoroutine, so stop is not
	// needed.
	s.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		s.yield = yield
		runGoroutine(s)
	})
	return s
}

// releaseIdle hands the goroutines that finished bodies during the run
// to the shared list. A goroutine reaches the shared list only after it
// has parked, because another shard's worker could otherwise resume it
// in the middle of its switch. So during the run the env keeps them,
// and only its own procs and strands start on them (by the time one of
// those runs, the goroutine that went idle has finished its switch);
// releaseIdle runs on the driver after the run, when every one has
// parked.
func (e *Env) releaseIdle() {
	if len(e.idle) == 0 {
		return
	}
	procIdle.Lock()
	procIdle.s = append(procIdle.s, e.idle...)
	procIdle.Unlock()
	clear(e.idle)
	e.idle = e.idle[:0]
}

// runGoroutine is the body of every goroutine on a switch point, first
// resumed on its own point s. It starts the proc or strand the resumer
// named, then each unstarted successor in turn, with no switch. Then it
// joins the env's idle list parked on the successor's switch point,
// until a resumer names the next body it starts. The successor is
// resolved first, so the goroutine is never handed to itself.
func runGoroutine(s *switchPoint) {
	for {
		var e *Env
		if st := s.strand; st != nil {
			e, s.strand = st.p.env, nil
			s = runStrands(st)
		} else {
			p := s.start
			e, s.start = p.env, nil
			n := e.runBody(p)
			for n != nil && n.sp == nil {
				n = e.runBody(n)
			}
			s = e.pointOf(n)
		}
		e.idle = append(e.idle, s)
		s.transfer()
	}
}
