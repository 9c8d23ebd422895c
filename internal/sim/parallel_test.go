package sim

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lineLog records workload lines through Env.Sequenced, so a partitioned
// run delivers them in the engine's merge order. ats holds each line's
// virtual time. A nil *lineLog records nothing.
type lineLog struct {
	lines []string
	ats   []Time
}

// add records "<now> <src> g<group> <msg>" as of env's clock.
func (l *lineLog) add(env *Env, src string, g int, format string, args ...any) {
	if l == nil {
		return
	}
	now := env.Now()
	line := fmt.Sprintf("%v %s g%d %s", now, src, g, fmt.Sprintf(format, args...))
	env.Sequenced(func() {
		l.lines = append(l.lines, line)
		l.ats = append(l.ats, now)
	})
}

// buildMixedWorkload constructs the same program over envs[g] per group:
// the serial baseline passes one env for every group, a parallel run
// passes the shard envs. It exercises boot-FIFO interleaving, timer
// cascades (callbacks waking waiters), nested callbacks, same-instant
// timer ties across groups, Yield churn, and a cancelled sleep timer.
// Each proc logs its start and every return from Delay, Wait and Yield,
// so the log pins each group's scheduling order.
func buildMixedWorkload(envs []*Env, log *lineLog) {
	for g := range envs {
		g := g
		env := envs[g]
		wq := NewWaitQueue(env, fmt.Sprintf("q%d", g))
		env.Spawn(fmt.Sprintf("cons%d", g), func(p *Proc) {
			log.add(env, "cons", g, "start")
			for i := 0; i < 3; i++ {
				v := wq.Wait(p)
				log.add(env, "cons", g, "got %v", v)
				p.Delay(2 * Microsecond)
				log.add(env, "cons", g, "delayed")
			}
		})
		env.Spawn(fmt.Sprintf("prod%d", g), func(p *Proc) {
			log.add(env, "prod", g, "start")
			for i := 0; i < 3; i++ {
				p.Delay(10 * Microsecond) // same instants in every group
				log.add(env, "prod", g, "tick %d", i)
				wq.WakeValue(i)
			}
		})
		env.After(25*Microsecond, func() {
			log.add(env, "cb", g, "outer")
			env.After(5*Microsecond, func() {
				log.add(env, "cb", g, "inner")
			})
		})
		victim := env.Spawn(fmt.Sprintf("victim%d", g), func(p *Proc) {
			log.add(env, "victim", g, "start")
			p.Delay(Second) // killed long before this completes
		})
		victim.KillAt(Time(40 * Microsecond))
		env.Spawn(fmt.Sprintf("yield%d", g), func(p *Proc) {
			log.add(env, "yield", g, "start")
			p.Yield()
			log.add(env, "yield", g, "yielded")
			p.Yield()
			log.add(env, "yield", g, "done")
		})
	}
}

func runMixedSerial(groups int, limit Time) (*lineLog, Time, error) {
	env := NewEnv(42)
	log := &lineLog{}
	envs := make([]*Env, groups)
	for i := range envs {
		envs[i] = env
	}
	buildMixedWorkload(envs, log)
	err := env.RunUntil(limit)
	return log, env.Now(), err
}

func runMixedParallel(groups, workers int, limit Time) (*lineLog, Time, error) {
	root := NewEnv(42)
	log := &lineLog{}
	shards := root.EnterParallel(ParallelOptions{Groups: groups, Workers: workers, ObservedFn: func() bool { return true }})
	buildMixedWorkload(shards, log)
	err := root.RunUntil(limit)
	return log, root.Now(), err
}

// mixedGroupRE extracts the group index of a mixed-workload log line.
var mixedGroupRE = regexp.MustCompile(` g(\d+) `)

func lineGroup(t *testing.T, line string) int {
	t.Helper()
	m := mixedGroupRE.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("log line %q names no group", line)
	}
	g, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkMergeOrder pins the parallel replay order against the serial run
// of the same program: each group's lines equal the serial run's lines
// for that group, and the whole trace is ordered by (time, group). It
// returns how many lines tie an earlier line of another group at the
// same instant, so callers can require the tie-break to be exercised.
func checkMergeOrder(t *testing.T, label string, groups int, serial, got *lineLog) (ties int) {
	t.Helper()
	project := func(tr *lineLog) [][]string {
		per := make([][]string, groups)
		for _, l := range tr.lines {
			g := lineGroup(t, l)
			per[g] = append(per[g], l)
		}
		return per
	}
	want, have := project(serial), project(got)
	for g := range want {
		diffLines(t, fmt.Sprintf("%s group %d", label, g), want[g], have[g])
	}
	for i := 1; i < len(got.lines); i++ {
		prevG, g := lineGroup(t, got.lines[i-1]), lineGroup(t, got.lines[i])
		prevAt, at := got.ats[i-1], got.ats[i]
		if at < prevAt || (at == prevAt && g < prevG) {
			t.Fatalf("%s: line %d out of (time, group) order:\n  %s\n  %s", label, i, got.lines[i-1], got.lines[i])
		}
		if at == prevAt && g > prevG {
			ties++
		}
	}
	return ties
}

func diffLines(t *testing.T, label string, want, got []string) {
	t.Helper()
	if strings.Join(want, "\n") == strings.Join(got, "\n") {
		return
	}
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		w, g := "<none>", "<none>"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("%s: first divergence at line %d:\n  serial:   %s\n  parallel: %s", label, i, w, g)
		}
	}
	t.Fatalf("%s: traces differ in length: %d vs %d", label, len(want), len(got))
}

// checkParallelMatchesSerial runs the mixed workload serially and
// partitioned at each worker count (to limit, or to completion when
// limit < 0) and pins the determinism contract: the parallel trace is
// the serial run's per-group lines merged by (time, group), it is
// byte-identical at every worker count, and same-instant ties across
// groups occur (so the shard-index tie-break is exercised).
func checkParallelMatchesSerial(t *testing.T, groups int, limit Time, workerCounts []int) {
	t.Helper()
	serial, wantNow, err := runMixedSerial(groups, limit)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if len(serial.lines) == 0 {
		t.Fatal("serial run produced no trace")
	}
	var first []string
	for _, workers := range workerCounts {
		label := fmt.Sprintf("workers=%d", workers)
		got, gotNow, err := runMixedParallel(groups, workers, limit)
		if err != nil {
			t.Fatalf("parallel run (%s): %v", label, err)
		}
		if ties := checkMergeOrder(t, label, groups, serial, got); ties == 0 {
			t.Fatalf("%s: no same-instant cross-group ties; the tie-break is untested", label)
		}
		if first == nil {
			first = got.lines
		} else {
			diffLines(t, label, first, got.lines)
		}
		if gotNow != wantNow {
			t.Fatalf("%s: final clock %v, want %v", label, gotNow, wantNow)
		}
	}
}

// TestParallelMatchesSerial pins the core determinism contract for a
// partitioned run of non-interacting groups, at any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	checkParallelMatchesSerial(t, 4, -1, []int{1, 2, 4, 8})
	// The producers tick at the same instants in every group: the
	// first tick's lines appear in group order.
	got, _, _ := runMixedParallel(4, 4, -1)
	var ticks []string
	for _, l := range got.lines {
		if strings.HasSuffix(l, " tick 0") {
			ticks = append(ticks, l)
		}
	}
	want := []string{"0.010ms prod g0 tick 0", "0.010ms prod g1 tick 0", "0.010ms prod g2 tick 0", "0.010ms prod g3 tick 0"}
	if strings.Join(ticks, "\n") != strings.Join(want, "\n") {
		t.Fatalf("same-instant ticks %q, want shard-index order %q", ticks, want)
	}
}

// TestParallelMatchesSerialAtHorizon is the same contract under a
// RunUntil horizon that cuts the run mid-flight.
func TestParallelMatchesSerialAtHorizon(t *testing.T) {
	const limit = Time(26 * Microsecond) // between the outer and inner callbacks
	checkParallelMatchesSerial(t, 3, limit, []int{1, 2, 3, 4, 8})
}

// TestParallelRunUntilResumes pins the over-horizon stash: a shard run
// pops the first timer beyond the horizon to find where to stop, and
// the partition's next run must still fire it.
func TestParallelRunUntilResumes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		root := NewEnv(3)
		shards := root.EnterParallel(ParallelOptions{Groups: 2, Workers: workers})
		woke := make([]Time, len(shards))
		for g, env := range shards {
			g, env := g, env
			env.Spawn(fmt.Sprintf("sleeper%d", g), func(p *Proc) {
				p.Delay(Duration(10*(g+1)) * Microsecond)
				woke[g] = env.Now()
			})
		}
		if err := root.RunUntil(Time(5 * Microsecond)); err != nil {
			t.Fatalf("workers=%d first RunUntil: %v", workers, err)
		}
		if woke[0] != 0 || woke[1] != 0 {
			t.Fatalf("workers=%d: sleepers woke before the horizon: %v", workers, woke)
		}
		if err := root.RunUntil(Time(15 * Microsecond)); err != nil {
			t.Fatalf("workers=%d second RunUntil: %v", workers, err)
		}
		if err := root.Run(); err != nil {
			t.Fatalf("workers=%d final Run: %v", workers, err)
		}
		want := []Time{Time(10 * Microsecond), Time(20 * Microsecond)}
		if fmt.Sprint(woke) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: sleepers woke at %v, want %v", workers, woke, want)
		}
	}
}

// TestParallelDeadlockMatchesSerial pins that a partitioned deadlock
// reports the identical error string (time and merged diagnostics) the
// serial run produces.
func TestParallelDeadlockMatchesSerial(t *testing.T) {
	build := func(envs []*Env) {
		for g := range envs {
			g := g
			env := envs[g]
			wq := NewWaitQueue(env, fmt.Sprintf("stuckq%d", g))
			env.Spawn(fmt.Sprintf("stuck%d", g), func(p *Proc) {
				p.Delay(Duration(g+1) * Microsecond)
				wq.Wait(p) // never woken
			})
		}
	}
	serial := NewEnv(7)
	envs := []*Env{serial, serial, serial}
	build(envs)
	serialErr := serial.Run()
	if serialErr == nil {
		t.Fatal("serial run should deadlock")
	}
	for _, workers := range []int{1, 2} {
		root := NewEnv(7)
		shards := root.EnterParallel(ParallelOptions{Groups: 3, Workers: workers})
		build(shards)
		err := root.Run()
		if err == nil {
			t.Fatal("parallel run should deadlock")
		}
		if err.Error() != serialErr.Error() {
			t.Fatalf("workers=%d deadlock error:\n  serial:   %q\n  parallel: %q", workers, serialErr, err)
		}
	}
}

// TestParallelUnobserved checks the logging-free path (no ObservedFn): the
// run completes, clocks agree with serial, and no replay machinery is
// engaged.
func TestParallelUnobserved(t *testing.T) {
	const groups = 4
	_, wantNow, err := runMixedSerial(groups, -1)
	if err != nil {
		t.Fatal(err)
	}
	root := NewEnv(42)
	shards := root.EnterParallel(ParallelOptions{Groups: groups, Workers: 4})
	buildMixedWorkload(shards, nil)
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
	if root.Now() != wantNow {
		t.Fatalf("unobserved final clock %v, want %v", root.Now(), wantNow)
	}
	for _, sh := range shards {
		if len(sh.sh.log) != 0 {
			t.Fatal("unobserved run kept merge logs")
		}
	}
}

// TestParallelSpawnRestrictions pins the pid-determinism guards: no
// spawning or timers on the partitioned root (the panic names the
// shard count and points at home-shard placement), while mid-run
// spawning on a shard env is legal and lands on that home shard.
func TestParallelSpawnRestrictions(t *testing.T) {
	root := NewEnv(1)
	shards := root.EnterParallel(ParallelOptions{Groups: 2, Workers: 2})

	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "partitioned root env (2 shards)") ||
				!strings.Contains(fmt.Sprint(r), "home shard") {
				t.Fatalf("Spawn on partitioned root: recover = %v", r)
			}
		}()
		root.Spawn("bad", func(p *Proc) {})
	}()
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "partitioned root env (2 shards)") ||
				!strings.Contains(fmt.Sprint(r), "home shard") {
				t.Fatalf("After on partitioned root: recover = %v", r)
			}
		}()
		root.After(Microsecond, func() {})
	}()

	// A mid-run spawn on a shard env is a home-shard launch: it runs on
	// the shard that issued it.
	ran := false
	shards[0].Spawn("late-spawner", func(p *Proc) {
		p.Delay(Microsecond)
		shards[0].Spawn("late-child", func(p *Proc) { ran = true })
	})
	if err := root.Run(); err != nil {
		t.Fatalf("run with mid-run shard Spawn: %v", err)
	}
	if !ran {
		t.Fatalf("mid-run spawned proc never ran")
	}
}

// TestParallelMidRunPIDsDeterministic pins the strided mid-run pid
// allocator: pids depend only on each shard's own spawn order, so the
// assignment is identical at any worker count.
func TestParallelMidRunPIDsDeterministic(t *testing.T) {
	run := func(workers int) []int {
		root := NewEnv(7)
		shards := root.EnterParallel(ParallelOptions{Groups: 3, Workers: workers})
		ids := make([]int, 2*len(shards))
		for g, env := range shards {
			g, env := g, env
			env.Spawn(fmt.Sprintf("parent%d", g), func(p *Proc) {
				p.Delay(Duration(g+1) * Microsecond)
				c1 := env.Spawn("c1", func(p *Proc) {})
				p.Delay(Microsecond)
				c2 := env.Spawn("c2", func(p *Proc) {})
				ids[2*g], ids[2*g+1] = c1.ID(), c2.ID()
			})
		}
		if err := root.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ids
	}
	want := run(1)
	seen := map[int]bool{}
	for _, id := range want {
		if id == 0 || seen[id] {
			t.Fatalf("mid-run pids not unique: %v", want)
		}
		seen[id] = true
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("workers=%d mid-run pids %v, want %v", workers, got, want)
		}
	}
}

// TestParallelShardPIDsMatchSerial pins that pids are assigned in
// program order across shards, identical to the serial run.
func TestParallelShardPIDsMatchSerial(t *testing.T) {
	root := NewEnv(1)
	shards := root.EnterParallel(ParallelOptions{Groups: 3, Workers: 3})
	var ids []int
	for g, env := range shards {
		p1 := env.Spawn(fmt.Sprintf("a%d", g), func(p *Proc) {})
		p2 := env.Spawn(fmt.Sprintf("b%d", g), func(p *Proc) {})
		ids = append(ids, p1.ID(), p2.ID())
	}
	for i, id := range ids {
		if id != i+1 {
			t.Fatalf("pid order %v, want 1..%d in program order", ids, len(ids))
		}
	}
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEnterParallelGuards pins the preconditions.
func TestEnterParallelGuards(t *testing.T) {
	expectPanic := func(label, want string, fn func()) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("%s: recover = %v, want substring %q", label, r, want)
			}
		}()
		fn()
	}
	e := NewEnv(1)
	e.Spawn("p", func(p *Proc) {})
	expectPanic("non-empty env", "already has procs", func() {
		e.EnterParallel(ParallelOptions{Groups: 2})
	})
	e2 := NewEnv(1)
	e2.EnterParallel(ParallelOptions{Groups: 2})
	expectPanic("double partition", "already partitioned", func() {
		e2.EnterParallel(ParallelOptions{Groups: 2})
	})
	expectPanic("zero groups", "at least one group", func() {
		NewEnv(1).EnterParallel(ParallelOptions{Groups: 0})
	})
}

// TestShardRunRejected: shards are driven by the root env only.
func TestShardRunRejected(t *testing.T) {
	root := NewEnv(1)
	shards := root.EnterParallel(ParallelOptions{Groups: 2})
	if err := shards[0].Run(); err == nil || !strings.Contains(err.Error(), "shard env") {
		t.Fatalf("Run on shard: err = %v", err)
	}
}
