// Parallel DES over independent proc groups: one Env partitioned into
// shard envs (one per group) that run concurrently to the horizon.
//
// # Model
//
// EnterParallel splits a fresh root Env into N shard envs. Each shard is
// a full Env — its own 4-ary timer heap, ready ring, rng stream, and
// arena-allocated timer state — running the ordinary scheduler. The
// groups are declared non-interacting: no event on one shard can affect
// another. A run therefore needs no windows, barriers, or cross-shard
// messages: Run/RunUntil on the root hands every shard to
// a worker pool, each shard runs to the horizon (or to completion), and
// the root folds the results.
//
// # Determinism
//
// Unobserved runs need no coordination at all: shard execution is
// internally deterministic, and shard-crossing state is commutative
// (atomic counters).
//
// Observed runs (ParallelOptions.ObservedFn reports true) must produce
// the same output bytes at any worker count. Each shard logs its event
// emissions as deferred closures tagged with their virtual time,
// in execution order. After the run the logs are merged by (time, shard
// index) and replayed: within a shard emissions keep execution order, so
// each group's projection of the output equals that group's lines in a
// serial run of the same program. Only the relative order of lines from
// different groups at the same instant is a choice, and the shard index
// fixes it.
//
// Everything that touches shared state mid-run is either deferred into
// those logs (obs events via Env.Sequenced), made commutative
// (obs counters/histograms are atomic), made shard-local (mid-run Spawn
// on a shard env lands on that home shard, with pids drawn from the
// shard's strided allocator), or forbidden and enforced by panics
// (Spawn and timers on the partitioned root env).
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ParallelOptions configures Env.EnterParallel.
type ParallelOptions struct {
	// Groups is the number of shard envs to create.
	Groups int
	// Workers caps how many shards execute concurrently. Values < 1
	// mean 1. Workers=1 still runs the partitioned engine, but shards
	// execute sequentially in index order.
	Workers int
	// ObservedFn, when set, is consulted at the start of each run: a
	// true result engages deterministic logging. Consulting it per run
	// lets observers attach after partitioning (e.g. obs sinks added
	// between System construction and Run).
	ObservedFn func() bool
}

// EnterParallel partitions a fresh root env into opt.Groups shard envs.
// The root env must not have procs, timers, or a run in progress. After
// partitioning, procs and timers belong on the shards; Run/RunUntil on
// the root drives all shards. Shard rng streams are split
// deterministically from the root's stream.
func (e *Env) EnterParallel(opt ParallelOptions) []*Env {
	if opt.Groups < 1 {
		panic("sim: EnterParallel needs at least one group")
	}
	if e.par != nil || e.sh != nil {
		panic("sim: EnterParallel on an already partitioned env")
	}
	if e.running {
		panic("sim: EnterParallel during a run")
	}
	if e.live > 0 || e.ready.n > 0 || e.timers.len() > 0 {
		panic("sim: EnterParallel on an env that already has procs or timers")
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	co := &parCoord{root: e, workers: workers, observedFn: opt.ObservedFn}
	envs := make([]*Env, opt.Groups)
	for i := range envs {
		pad := new(shardEnv)
		pad.Env = *NewEnv(e.rng.Uint64())
		sh := &pad.Env
		sh.sh = &shardState{co: co, idx: i}
		co.shards = append(co.shards, sh)
		envs[i] = sh
	}
	e.par = co
	return envs
}

// shardEnv gives a shard env cache lines of its own. Shard envs are
// allocated back to back and run on different workers; two sharing a
// line would contend on every scheduling decision.
type shardEnv struct {
	Env
	_ [64]byte
}

// ParallelRunning reports whether e is a partitioned root env currently
// executing a parallel run. Operations that would race across shards
// (e.g. mid-run link creation) use this to fail loudly.
func (e *Env) ParallelRunning() bool { return e.par != nil && e.par.running }

// Sequencing reports whether emissions from e must go through Sequenced
// to appear in deterministic order (true only for shard envs of an
// observed partition, during a run).
func (e *Env) Sequencing() bool {
	sh := e.sh
	return sh != nil && sh.logging && sh.co.running
}

// Sequenced runs fn now when e executes serially, or defers it into the
// shard's log to run in (time, shard) merge order after the parallel
// run. Obs recorders route their emissions through it so output bytes
// are identical at any worker count.
func (e *Env) Sequenced(fn func()) {
	if e.Sequencing() {
		e.sh.log = append(e.sh.log, emitRec{at: e.now, fn: fn})
		return
	}
	fn()
}

// parCoord coordinates one partitioned run: the worker pool, the
// merged replay, and result folding.
type parCoord struct {
	root       *Env
	shards     []*Env
	workers    int
	observedFn func() bool
	running    bool
	// started flips sticky-true at the partition's first run; from then
	// on every spawn (mid-run or between runs) draws from its shard's
	// strided pid allocator instead of the root counter.
	started bool
}

// shardState is the per-shard bookkeeping hung off a shard Env.
type shardState struct {
	co  *parCoord
	idx int

	// pidNext/pidStride implement the shard's strided pid allocator,
	// frozen at the partition's first run: pids for mid-run spawns
	// depend only on this shard's own spawn order.
	pidNext   int
	pidStride int

	// logging is true when this run's emissions are deferred for the
	// merged replay (refreshed at the start of each run).
	logging bool
	// log is this run's deferred emissions, in execution order.
	log []emitRec
}

type emitRec struct {
	at Time
	fn func()
}

// runRoot drives one partitioned run to limit (or completion when
// limit < 0): every shard runs to the horizon, then the emission logs
// are replayed and the shard results folded into the root.
func (co *parCoord) runRoot(limit Time) error {
	root := co.root
	if co.running || root.running {
		return errors.New("sim: Run re-entered")
	}
	if root.stopped {
		return root.stopErr
	}
	root.running = true
	defer func() { root.running = false }()

	if !co.started {
		// Freeze the strided pid bases: every pid handed out so far came
		// from the root counter; from here on shard i allocates
		// nextPID+1+i, +stride, +2·stride, … — unique across shards and
		// independent of worker interleaving.
		co.started = true
		k := len(co.shards)
		for i, sh := range co.shards {
			sh.sh.pidNext = root.nextPID + 1 + i
			sh.sh.pidStride = k
		}
	}

	logging := co.observedFn != nil && co.observedFn()
	for _, sh := range co.shards {
		sh.sh.logging = logging
	}

	co.running = true
	co.runShards(limit)
	co.running = false
	if logging {
		co.replay()
	}

	hitHorizon, live := false, 0
	for _, sh := range co.shards {
		// Fold shard clocks into the root clock: the latest instant any
		// group reached.
		if sh.now > root.now {
			root.now = sh.now
		}
		hitHorizon = hitHorizon || sh.end == endLimit
		live += sh.live
	}
	if err, stopped := co.stopState(); stopped {
		root.stopped = true
		root.stopErr = err
		return err
	}
	if live > 0 && !hitHorizon {
		return fmt.Errorf("%w at %v\n%s", ErrDeadlock, root.now, co.diagnose())
	}
	return nil
}

// runShards runs every shard to limit, up to workers shards
// concurrently. Shards are mutually independent, so execution order
// cannot affect results; with one worker the goroutine hop is skipped
// entirely.
func (co *parCoord) runShards(limit Time) {
	run := func(sh *Env) {
		sh.running = true
		sh.runCore(limit)
		sh.running = false
	}
	if co.workers == 1 || len(co.shards) == 1 {
		for _, sh := range co.shards {
			run(sh)
		}
		return
	}
	sem := make(chan struct{}, co.workers)
	var wg sync.WaitGroup
	for _, sh := range co.shards {
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			run(sh)
			<-sem
		}()
	}
	wg.Wait()
}

// stopState reports the first stopped shard's error (by shard index, a
// deterministic choice), or the root's own Stop.
func (co *parCoord) stopState() (error, bool) {
	if co.root.stopped {
		return co.root.stopErr, true
	}
	for _, sh := range co.shards {
		if sh.stopped {
			return sh.stopErr, true
		}
	}
	return nil, false
}

// diagnose merges deadlock diagnostics across shards into the same
// sorted rendering a serial env produces.
func (co *parCoord) diagnose() string {
	var lines []string
	for _, sh := range co.shards {
		lines = append(lines, sh.diagnoseLines()...)
	}
	sort.Strings(lines)
	if len(lines) == 0 {
		return "  (no registered wait queues; procs blocked on raw parks)"
	}
	return strings.Join(lines, "\n")
}

// replay runs the deferred emissions merged by (time, shard index) and
// clears the logs. Each shard's log is already in time order, so a
// stable sort by time of the shard-ordered concatenation is that merge.
func (co *parCoord) replay() {
	var all []emitRec
	for _, sh := range co.shards {
		all = append(all, sh.sh.log...)
		sh.sh.log = nil
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	for _, em := range all {
		em.fn()
	}
}
