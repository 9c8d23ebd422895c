// Package lynx is the public face of the LYNX reproduction: a
// distributed programming system in which processes interact through
// RPC-style request/reply traffic on movable duplex virtual circuits
// called links, exactly as in M. L. Scott's 1986 ICPP paper "The
// Interface Between Distributed Operating System and High-Level
// Programming Language".
//
// A System assembles a complete simulated machine: a virtual-time
// network, one of four operating-system substrates, and any number of
// LYNX processes. The substrates are the paper's three kernels plus an
// idealized baseline:
//
//	Charlotte — high-level kernel: links in the kernel, one outstanding
//	            activity per direction, one enclosure per message
//	            (VAX 11/750s on a 10 Mbit/s token ring)
//	SODA      — low-level kernel: advertised names, put/get/signal/
//	            exchange + accept, software interrupts
//	            (many nodes on a 1 Mbit/s CSMA bus)
//	Chrysalis — shared-memory primitives: memory objects, event blocks,
//	            dual queues (BBN Butterfly)
//	Ideal     — a perfect in-memory kernel (reference/baseline)
//
// Typical use:
//
//	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Chrysalis})
//	client := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
//	    reply, err := t.Connect(boot[0], "hello", lynx.Msg{Data: []byte("hi")})
//	    ...
//	})
//	server := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
//	    t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
//	        st.Reply(req, lynx.Msg{Data: req.Data()})
//	    })
//	})
//	sys.Join(client, server)
//	err := sys.Run()
//
// The language-level API (Connect, Receive, Reply, Serve, NewLink,
// Destroy, Fork, link movement by enclosing ends in Msg.Links) lives on
// Thread; see the aliased types' documentation in internal/core.
//
// # Concurrency
//
// A System is single-threaded: one System (and everything reachable
// from it — Threads, Ends, its metrics) must be driven by one
// goroutine-tree at a time, and Run is not safe to call concurrently on
// the same System. Distinct Systems, however, share no mutable state —
// no package-level variables, no global clocks or random sources (every
// System carries its own seeded generator and virtual clock) — so any
// number of Systems may run concurrently on separate goroutines. This
// "one System per goroutine-tree, many Systems in parallel" contract is
// what the lynx/sweep harness exploits to fan replicated simulations
// across cores while keeping each run bit-for-bit deterministic in its
// seed.
//
// # Parallel execution inside one System
//
// When the boot-join graph splits into two or more connected
// components, the System partitions the run: each component becomes one
// shard of a parallel discrete-event engine over independent groups
// (sim.EnterParallel), with its own event loop, its own segment of the
// network medium, and its own slice of the kernel's state. Boot
// components never share a link, so their processes never exchange a
// frame: they are automata with no shared action, which compose by
// interleaving alone. The topology is therefore the whole license, and
// each kernel splits its own medium into per-group segments
// (occupancy, counters, forked rng streams); the Ideal fabric has no
// medium to split.
//
// Partitioning happens whenever the topology is eligible, at every
// SimWorkers value; Config.SimWorkers only caps how many shards execute
// concurrently (<= 1 runs the shards sequentially on one OS thread).
// Decoupling the partition decision from the worker count is what makes
// the determinism contract absolute: per-group id allocators, rng
// streams, and fault schedules are fixed by the topology alone, so a
// run at any SimWorkers value produces byte-identical traces, metrics,
// and results to SimWorkers=1 with the same seed — observers replay in
// the engine's (time, shard) merge order, which per group is the serial
// order. A single-component (or single-process)
// topology has nothing to split and runs the ordinary serial loop.
//
// Fault plans compile onto a partitioned run as per-shard schedules:
// each group's medium segment gets its own injector child (frame fates
// from a per-group stream, storms replicated per segment) and churn
// timers fire on each shard against that shard's processes, so faulted
// runs parallelize like unfaulted ones. Dynamic process creation
// (Launch/LaunchGroup) places the new group on the launcher's home
// shard — kernel processes, transports, and boot links all allocate
// from that group's strided id space — so mid-run launches need no
// cross-shard coordination and keep the byte-identity guarantee.
package lynx

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	chbind "repro/internal/bind/charlotte"
	chrbind "repro/internal/bind/chrysalis"
	"repro/internal/bind/ideal"
	sodabind "repro/internal/bind/soda"
	"repro/internal/calib"
	"repro/internal/charlotte"
	"repro/internal/chrysalis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sim"
	"repro/internal/soda"
	"repro/lynx/fault"
)

// Re-exported language-level types: the Thread API is the LYNX
// programming model.
type (
	// Thread is a LYNX thread of control (coroutine); all language
	// operations hang off it.
	Thread = core.Thread
	// End is one end of a link owned by the current process.
	End = core.End
	// Msg is a message: parameter bytes plus link ends to move.
	Msg = core.Msg
	// Request is an incoming remote operation awaiting a Reply.
	Request = core.Request
	// Process is a LYNX process.
	Process = core.Process
	// Duration and Time are virtual-time measures.
	Duration = sim.Duration
	// Time is a virtual-time instant.
	Time = sim.Time
)

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// The LYNX exception set (see internal/core for semantics).
var (
	ErrLinkDestroyed = core.ErrLinkDestroyed
	ErrAborted       = core.ErrAborted
	ErrUnwantedReply = core.ErrUnwantedReply
	ErrBadReply      = core.ErrBadReply
)

// Substrate selects the operating-system kernel underneath the run-time
// package.
type Substrate int

// Available substrates.
const (
	Charlotte Substrate = iota
	SODA
	Chrysalis
	Ideal
)

func (s Substrate) String() string {
	switch s {
	case Charlotte:
		return "charlotte"
	case SODA:
		return "soda"
	case Chrysalis:
		return "chrysalis"
	case Ideal:
		return "ideal"
	default:
		return fmt.Sprintf("Substrate(%d)", int(s))
	}
}

// ParseSubstrate is the inverse of Substrate.String: it resolves the
// lowercase substrate name the CLIs use.
func ParseSubstrate(name string) (Substrate, error) {
	switch name {
	case "charlotte":
		return Charlotte, nil
	case "soda":
		return SODA, nil
	case "chrysalis":
		return Chrysalis, nil
	case "ideal":
		return Ideal, nil
	default:
		return 0, fmt.Errorf("unknown substrate %q (want charlotte, soda, chrysalis or ideal)", name)
	}
}

// ParseSubstrates resolves a comma-separated substrate list (spaces
// around names are ignored); the list must be non-empty.
func ParseSubstrates(csv string) ([]Substrate, error) {
	var out []Substrate
	for _, name := range strings.Split(csv, ",") {
		s, err := ParseSubstrate(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty substrate list")
	}
	return out, nil
}

// nodes is the machine size: processes are placed round-robin over 20
// nodes, the Crystal multicomputer's size.
const nodes = 20

// Config parameterizes a System. The zero value is a working Charlotte
// machine with default sizing. Substrate-specific knobs live in the
// per-substrate option blocks; options for substrates other than the
// selected one are ignored.
type Config struct {
	// Substrate picks the kernel. Default Charlotte.
	Substrate Substrate
	// Seed drives all randomness; same seed ⇒ identical run.
	Seed uint64
	// SimWorkers caps how many event-loop shards execute concurrently
	// inside this System. The run is partitioned into shards whenever
	// the boot-join graph has >= 2 connected components, independent
	// of this value; SimWorkers <= 1 (the default) then runs the shards
	// sequentially on one OS thread while > 1 runs up to that many
	// concurrently.
	// SimWorkers never changes results: same seed ⇒ byte-identical
	// traces and metrics at every worker count, so it is excluded from
	// sweep keys.
	SimWorkers int

	// Trace requests the flight recorder (internal/obs/flight): a
	// bounded ring of the last protocol events with full, sampled, or
	// counters-only export to Trace.Sink and ring dumps to
	// Trace.DumpTo. Nil (or mode Off) creates no recorder and leaves
	// the untraced fast path untouched. Like SimWorkers, recording never
	// changes simulation results — it only shapes what is recorded — so
	// it is excluded from sweep keys.
	Trace *flight.Config

	// Faults is an optional declarative fault plan (crash/restart
	// schedules, frame drop/duplication/reorder, partitions, slow
	// nodes, link storms — see lynx/fault). The plan compiles onto the
	// network's fault hook and virtual-time timers when Run starts —
	// per shard, on a partitioned run — and a faulted run is still a
	// pure function of (Config, Seed). Nil or empty injects nothing,
	// leaving the run byte-identical to an unfaulted one. An invalid
	// plan panics at NewSystem (it is a configuration error; validate
	// plans with fault.Parse).
	Faults *fault.Plan

	// SODA and Chrysalis hold the substrate-specific knobs.
	SODA      SODAOptions
	Chrysalis ChrysalisOptions
}

// System is one simulated machine running LYNX processes.
type System struct {
	cfg     Config
	sodaCfg sodabind.Config // lowered from cfg.SODA at NewSystem
	env     *sim.Env

	// kern is the substrate NewSystem built (a Charlotte, SODA or
	// Chrysalis kernel, or the Ideal fabric), net its medium (nil on
	// Ideal) and costs the run-time package's calibrated overhead on it.
	kern  kernel
	net   netsim.Network
	costs calib.LynxRuntimeCosts

	inj *fault.Injector
	fr  *flight.Recorder

	// specs are the boot processes (Spawn), in spawn order; launched
	// are the processes created mid-run (Launch, restarts) that have not
	// exited yet, in creation order. byProc maps every running process
	// to its spec. An exiting process leaves launched and byProc, so a
	// finished process is garbage unless the program holds its ProcRef.
	specs    []*ProcRef
	launched []*ProcRef
	byProc   map[*core.Process]*ProcRef
	ran      bool
	// restartable holds the process names the fault plan restarts;
	// relaunch keeps, for each such name and group, the first mid-run
	// spec's main — all a restart needs of a dead incarnation.
	restartable map[string]bool
	relaunch    []relaunchRec

	// mu guards the spec tables and the node-placement cursors once the
	// run has started: under a partitioned run, Launch appends from
	// concurrently executing shards.
	mu sync.Mutex

	// joins records boot-time Join edges as spec-index pairs; materialize
	// runs union-find over them to find independent components.
	joins [][2]int
	// shards are the per-group envs and segs the per-group medium
	// segments (nil on Ideal, which has no medium): the serial env and
	// the whole medium as the one group until a partition, then one of
	// each per group.
	shards []*sim.Env
	segs   []netsim.Network
	// groupNode are the per-group node-placement cursors. Group 0's
	// places the boot specs; at a partition every group's cursor starts
	// from it, so mid-run placement is a group-local
	// (worker-count-invariant) sequence.
	groupNode []int
	// churn tallies each churn event across all groups (misses are
	// derived at FaultStats time).
	churn []churnTally
}

// kernel is what a System needs of its substrate once NewSystem has
// built it: the recorder sinks attach to, and the partition step that
// splits the substrate's state and medium into per-group parts. After
// NewSystem, only newProcRef and join reach a substrate's own API.
type kernel interface {
	Obs() *obs.Recorder
	Partition(envs []*sim.Env) []netsim.Network
}

// churnTally counts, for one crash or restart event of the fault plan,
// the groups whose timer for it has fired and the processes it hit.
// Shards of a partitioned run update it concurrently.
type churnTally struct {
	fired, hits atomic.Int64
}

// relaunchRec is what restartNamed needs of a mid-run spec.
type relaunchRec struct {
	name  string
	group int
	main  func(*Thread, []*End)
}

// ProcRef names a spawned process before and after Run.
type ProcRef struct {
	sys   *System
	name  string
	idx   int // boot specs: position in sys.specs (component lookup)
	group int // partition group (home shard); 0 when unpartitioned
	main  func(*Thread, []*End)
	tr    core.Transport
	boots []core.TransEnd
	proc  *core.Process
	// home is the kernel process (on Ideal, the transport) that
	// AssignGroup moves to another group; pid is its kernel id, which
	// a move never changes (-1 on Ideal).
	home interface{ AssignGroup(g int) }
	pid  int
}

// NewSystem creates a simulated machine.
func NewSystem(cfg Config) *System {
	cfg = cfg.normalized()
	env := sim.NewEnv(cfg.Seed)
	s := &System{cfg: cfg, sodaCfg: cfg.SODA.bindConfig(), env: env,
		shards: []*sim.Env{env}, groupNode: []int{0},
		byProc: make(map[*core.Process]*ProcRef)}
	switch cfg.Substrate {
	case Charlotte:
		s.net = netsim.NewTokenRing(nodes)
		s.kern = charlotte.NewKernel(env, s.net, calib.DefaultCharlotte())
		s.costs = calib.DefaultCharlotteRuntime()
	case SODA:
		bus := netsim.NewCSMABus(env.Rand().Fork())
		k := soda.NewKernel(env, bus, calib.DefaultSODA())
		// No pair limit: every link awaiting traffic pins one status
		// signal, so any finite limit livelocks once links per pair
		// exceed it (§4.2.1's "unspecified constant"; measured in E12).
		k.PairLimit = 0
		s.net, s.kern, s.costs = bus, k, calib.DefaultSODARuntime()
	case Chrysalis:
		bp := netsim.NewBackplane()
		k := chrysalis.NewKernel(env, bp, calib.DefaultChrysalis())
		if cfg.Chrysalis.Tuned {
			k.TuneFactor = calib.ChrysalisTunedFactor
		}
		s.net, s.kern, s.costs = bp, k, calib.DefaultChrysalisRuntime()
	case Ideal:
		s.kern = ideal.NewFabric(env, 100*sim.Microsecond, 100*sim.Nanosecond)
		s.costs = calib.LynxRuntimeCosts{PerOperation: 10 * sim.Microsecond}
	default:
		panic(fmt.Sprintf("lynx: unknown substrate %v", cfg.Substrate))
	}
	s.segs = []netsim.Network{s.net}
	if cfg.Trace != nil && cfg.Trace.Mode != flight.Off {
		// The flight recorder attaches as an ordinary obs sink, which
		// makes the recorder Active(): instrumented code builds events
		// and (under a parallel partition) replays them in (time, shard)
		// merge order — the property the sampled mode's determinism
		// rests on. The request's Sink sits behind the recorder, so
		// sampling applies to it.
		s.fr = flight.New(*cfg.Trace, cfg.Seed)
		s.Obs().Attach(s.fr)
	}
	if !cfg.Faults.Empty() {
		// The plan is validated (and the injector built) here, but it
		// compiles onto hooks and timers at materialize — after the
		// partition decision — so a partitioned run can install
		// per-group children instead of one shared schedule.
		s.inj = fault.NewInjector(env, cfg.Faults, cfg.Seed, nodes)
		for _, ev := range cfg.Faults.Events {
			if r, ok := ev.(fault.Restart); ok {
				if s.restartable == nil {
					s.restartable = map[string]bool{}
				}
				s.restartable[r.Proc] = true
			}
		}
	}
	return s
}

// installFaults compiles the fault plan onto each group of the run:
// fault hooks on its medium segment, storm timer chains, churn timers.
// Called from materialize, after planParallel has decided the shape of
// the run.
func (s *System) installFaults() {
	if s.inj == nil {
		return
	}
	n := 0
	for _, ev := range s.cfg.Faults.Events {
		switch ev.(type) {
		case fault.Crash, fault.Restart:
			n++
		}
	}
	s.churn = make([]churnTally, n)
	// A partitioned run gives each group's segment its own injector
	// child: frame fates draw from a per-group stream, and each segment
	// runs a full replica of every storm's arrival schedule (a storm
	// models medium load, which each segment now carries independently).
	kids := []*fault.Injector{s.inj}
	if len(s.shards) > 1 {
		kids = s.inj.Split(s.shards)
	}
	for g, env := range s.shards {
		if seg := s.segs[g]; seg != nil {
			seg.SetFaultHook(kids[g])
			kids[g].StartStorms(seg)
		}
		s.scheduleChurn(env, kids[g], g)
	}
}

// scheduleChurn registers the plan's process-level events as
// virtual-time timers on env, acting through inj on the processes homed
// on group g (on an unpartitioned run, group 0 holds every process). A
// partitioned run schedules each event on every shard, so a crash
// pattern spanning groups kills each group's matches at that group's
// virtual time with no cross-shard access. Names are resolved at fire
// time over the then-current process population (which grows under
// Launch), in spawn order, so the event schedule composes with dynamic
// workloads. Each event's tally is shared by all groups; an event that
// fired and hit nothing in any group is a miss (see FaultStats).
func (s *System) scheduleChurn(env *sim.Env, inj *fault.Injector, g int) {
	j := 0
	for _, ev := range s.cfg.Faults.Events {
		switch e := ev.(type) {
		case fault.Crash:
			tally := &s.churn[j]
			j++
			env.At(sim.Time(e.At), func() {
				tally.hits.Add(int64(s.crashMatching(e.Proc, g, inj)))
				tally.fired.Add(1)
			})
		case fault.Restart:
			tally := &s.churn[j]
			j++
			env.At(sim.Time(e.At), func() {
				if s.restartNamed(e.Proc, g) {
					inj.Note("restart")
					tally.hits.Add(1)
				}
				tally.fired.Add(1)
			})
		}
	}
}

// snapshotSpecs copies the boot specs and the running launched ones, in
// spec order, under the lock; shards launching mid-run append
// concurrently.
func (s *System) snapshotSpecs() []*ProcRef {
	s.mu.Lock()
	out := make([]*ProcRef, 0, len(s.specs)+len(s.launched))
	out = append(append(out, s.specs...), s.launched...)
	s.mu.Unlock()
	return out
}

// crashMatching kills every live process whose name matches pattern
// (exact, or a trailing-* prefix like "u1.*") and returns how many it
// killed. Only processes homed on group g are touched (the group
// filter reads only the immutable group field of foreign specs, never
// their procs).
func (s *System) crashMatching(pattern string, g int, inj *fault.Injector) int {
	n := 0
	for _, pr := range s.snapshotSpecs() {
		if pr.group != g {
			continue
		}
		if pr.proc == nil || pr.proc.Dead() || !nameMatches(pattern, pr.name) {
			continue
		}
		pr.proc.Crash()
		inj.Note("crash")
		n++
	}
	return n
}

func nameMatches(pattern, name string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return pattern == name
}

// restartNamed starts a fresh incarnation of the named process: a new
// process with the same name and main function, placed round-robin
// like any launch, with an empty boot slice — a restarted process
// re-acquires capabilities through the substrate (Discover, Launch);
// it inherits nothing from the dead incarnation. Returns false when no
// spec homed on group g carries the name; the new incarnation is born
// on that group's shard.
func (s *System) restartNamed(name string, g int) bool {
	s.mu.Lock()
	main := s.mainNamed(name, g)
	s.mu.Unlock()
	if main == nil {
		return false
	}
	s.start(s.newProcRef(name, main, g), s.shards[g])
	return true
}

// mainNamed returns the main function of the first spec, in spec order,
// named name and homed on group g, or nil; the caller holds mu. Boot
// specs precede every mid-run one, and relaunch holds the first mid-run
// spec of each restartable name and group.
func (s *System) mainNamed(name string, g int) func(*Thread, []*End) {
	for _, pr := range s.specs {
		if pr.name == name && pr.group == g {
			return pr.main
		}
	}
	for _, r := range s.relaunch {
		if r.name == name && r.group == g {
			return r.main
		}
	}
	return nil
}

// track registers a materialized process as running; it retires itself
// from the spec tables when it exits.
func (s *System) track(pr *ProcRef) {
	s.mu.Lock()
	s.byProc[pr.proc] = pr
	s.mu.Unlock()
	pr.proc.OnExit(func() { s.retire(pr) })
}

// retire drops an exited process from byProc and launched.
func (s *System) retire(pr *ProcRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byProc, pr.proc)
	for i, l := range s.launched {
		if l == pr {
			n := i + copy(s.launched[i:], s.launched[i+1:])
			s.launched[n] = nil
			s.launched = s.launched[:n]
			return
		}
	}
}

// FaultStats returns the fault injector's per-effect occurrence
// counters (drop, dup, reorder, partition, slow, storm, crash,
// restart, miss), or nil when the system runs without a fault plan.
// On a partitioned run it aggregates the per-group injector children.
// A miss is a crash or restart event that fired and hit no process in
// any group; an event not yet due is not counted. Read it from serial
// context (before the run or after it ends).
func (s *System) FaultStats() map[string]int64 {
	if s.inj == nil {
		return nil
	}
	out := s.inj.Counts()
	for i := range s.churn {
		if s.churn[i].fired.Load() > 0 && s.churn[i].hits.Load() == 0 {
			out["miss"]++
		}
	}
	return out
}

// Env exposes the simulation environment (clock, timers, custom events).
func (s *System) Env() *sim.Env { return s.env }

// Network exposes the network model's counters (nil for Ideal).
func (s *System) Network() netsim.Network { return s.net }

// Spawn declares a LYNX process. main receives the process's main
// thread and its boot links (one per Join involving this process, in
// call order). Must be called before Run.
func (s *System) Spawn(name string, main func(t *Thread, boot []*End)) *ProcRef {
	if s.ran {
		panic("lynx: Spawn after Run")
	}
	return s.newProcRef(name, main, 0)
}

// newProcRef allocates a spec and its substrate transport (shared by
// Spawn, Launch, and restart), homed on partition group g: kernel
// process and transport allocate from the group's strided id space,
// node placement advances the group's own cursor, and the transport
// schedules on the group's env.
func (s *System) newProcRef(name string, main func(*Thread, []*End), g int) *ProcRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	pr := &ProcRef{sys: s, name: name, idx: len(s.specs), group: g, main: main}
	node := netsim.NodeID(s.groupNode[g] % nodes)
	s.groupNode[g]++
	switch s.cfg.Substrate {
	case Charlotte:
		kp := s.kern.(*charlotte.Kernel).NewProcessIn(g, node)
		pr.tr, pr.home, pr.pid = chbind.New(kp), kp, kp.ID()
	case SODA:
		k := s.kern.(*soda.Kernel)
		kp := k.NewProcessIn(g, node)
		pr.tr, pr.home, pr.pid = sodabind.New(k, kp, s.sodaCfg), kp, int(kp.ID())
	case Chrysalis:
		k := s.kern.(*chrysalis.Kernel)
		kp := k.NewProcessIn(g, node)
		pr.tr, pr.home, pr.pid = chrbind.New(k, kp), kp, kp.ID()
	case Ideal:
		tr := s.kern.(*ideal.Fabric).NewTransportIn(g, pr.name)
		pr.tr, pr.home, pr.pid = tr, tr, -1
	}
	if !s.ran {
		s.specs = append(s.specs, pr)
		return pr
	}
	s.launched = append(s.launched, pr)
	if s.restartable[name] && s.mainNamed(name, g) == nil {
		s.relaunch = append(s.relaunch, relaunchRec{name: name, group: g, main: main})
	}
	return pr
}

// Join wires a boot-time link between two processes (the loader handing
// newborn processes their initial links). Each call appends one end to
// each process's boot slice. Must precede Run.
func (s *System) Join(a, b *ProcRef) {
	if s.ran {
		panic("lynx: Join after Run (use Launch for dynamic processes)")
	}
	s.join(a, b)
}

// join wires the link; shared by Join and Launch. Boot-time joins are
// recorded for the component analysis that drives parallel execution.
func (s *System) join(a, b *ProcRef) {
	if !s.ran {
		s.joins = append(s.joins, [2]int{a.idx, b.idx})
	}
	var ta, tb core.TransEnd
	switch s.cfg.Substrate {
	case Charlotte:
		ca, cb := a.tr.(*chbind.Transport), b.tr.(*chbind.Transport)
		ea, eb := s.kern.(*charlotte.Kernel).BootLink(ca.KernelProcess(), cb.KernelProcess())
		ta, tb = ca.AdoptBootEnd(ea), cb.AdoptBootEnd(eb)
	case SODA:
		ta, tb = sodabind.BootLink(a.tr.(*sodabind.Transport), b.tr.(*sodabind.Transport))
	case Chrysalis:
		ta, tb = chrbind.BootLink(a.tr.(*chrbind.Transport), b.tr.(*chrbind.Transport))
	case Ideal:
		ia, ib := a.tr.(*ideal.Transport), b.tr.(*ideal.Transport)
		ea, eb, err := ia.MakeLink()
		if err != nil {
			panic(err)
		}
		ideal.MoveOwnership(s.kern.(*ideal.Fabric), ia, ib, eb.(ideal.EndID))
		ta, tb = ea, eb
	}
	a.boots = append(a.boots, ta)
	b.boots = append(b.boots, tb)
}

// planParallel splits the run when its topology allows: when the boot
// joins form two or more connected components. Components share no
// link, so their processes never exchange a frame and run as
// independent groups, each on its own shard env with its own part of
// the kernel's state and medium. SimWorkers does NOT gate the split (a
// partitioned run at Workers=1 executes its shards sequentially),
// because the partition fixes id allocators, rng streams and fault
// schedules, and those must be identical at every worker count for the
// byte-identity contract to hold. A single-component run stays one
// group, on the serial env.
func (s *System) planParallel() {
	if len(s.specs) < 2 {
		return
	}
	// Union-find over the boot-join edges.
	parent := make([]int, len(s.specs))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, j := range s.joins {
		if ra, rb := find(j[0]), find(j[1]); ra != rb {
			parent[rb] = ra
		}
	}
	// Number components in first-appearance (spawn) order so the
	// spec → shard mapping is deterministic.
	groupOf := make(map[int]int)
	comp := make([]int, len(s.specs))
	for i := range s.specs {
		r := find(i)
		g, ok := groupOf[r]
		if !ok {
			g = len(groupOf)
			groupOf[r] = g
		}
		comp[i] = g
	}
	k := len(groupOf)
	if k < 2 {
		return
	}
	workers := s.cfg.SimWorkers
	if workers < 1 {
		workers = 1
	}
	rec := s.Obs()
	shards := s.env.EnterParallel(sim.ParallelOptions{
		Groups:  k,
		Workers: workers,
		// Observers (obs sinks, exporters) attach between NewSystem and
		// Run; consult the recorder at run time so their emissions still
		// replay in the deterministic (time, shard) merge order.
		ObservedFn: func() bool { return rec.Active() },
	})
	s.shards = shards
	// Mid-run launches place round-robin per group, each cursor starting
	// from the boot cursor frozen here.
	boot := s.groupNode[0]
	s.groupNode = make([]int, k)
	for g := range s.groupNode {
		s.groupNode[g] = boot
	}
	s.segs = s.kern.Partition(shards)
	// Both ends of every boot link live in one component, so a link's
	// traffic always runs on one shard. Each boot spec's kernel process
	// (or ideal transport) moves to its component's group before any
	// simproc exists, so nothing is in flight; the binding, which
	// schedules on its kernel process's group, moves with it.
	for i, pr := range s.specs {
		pr.group = comp[i]
		pr.home.AssignGroup(comp[i])
	}
}

// Partitioned reports whether materialize split this run into
// shard-per-component (at any SimWorkers value).
func (s *System) Partitioned() bool { return len(s.shards) > 1 }

// materialize creates the core processes (idempotent).
func (s *System) materialize() {
	if s.ran {
		return
	}
	s.ran = true
	s.planParallel()
	s.installFaults()
	for _, pr := range s.specs {
		s.start(pr, s.shards[pr.group])
	}
}

// start creates pr's core process on env, whose main adopts pr's boot
// ends before running pr.main, and tracks it. Every process starts
// here: boot specs at materialize, launched groups, and restarts.
func (s *System) start(pr *ProcRef, env *sim.Env) {
	pr.proc = core.NewProcess(env, pr.name, pr.tr, s.costs, func(t *Thread) {
		boot := make([]*End, len(pr.boots))
		for i, te := range pr.boots {
			boot[i] = t.AdoptBootEnd(te)
		}
		pr.main(t, boot)
	})
	s.track(pr)
}

// Launch creates a NEW process while the system is running — the paper's
// "processes designed in isolation, and compiled and loaded at disparate
// times" (§2). It must be called from a running thread of an existing
// process (the launcher plays loader). The child is connected to the
// launcher by a fresh boot link; the launcher's end is returned, and the
// child receives its end as boot[0].
func (s *System) Launch(t *Thread, name string, main func(t *Thread, boot []*End)) (*End, *ProcRef) {
	end, refs := s.LaunchGroup(t, []ProcSpec{{Name: name, Main: main}}, nil)
	return end, refs[0]
}

// ProcSpec describes one process of a dynamically-launched group: its
// name and main function, exactly as passed to Spawn.
type ProcSpec struct {
	Name string
	Main func(t *Thread, boot []*End)
}

// LaunchGroup creates a set of NEW processes mid-run as one wired unit —
// the dynamic-composition counterpart of Spawn+Join. Each wires entry
// {a, b} wires a fresh boot link between specs[a] and specs[b] (indices
// into specs, a ≠ b), in order. The launcher is joined to specs[0], the
// group's head, and the launcher's end of that link is returned.
//
// Boot-slice layout: the head receives the launcher link as boot[0]
// followed by its wire ends in wires order; every other process receives
// only its wire ends, in wires order. Like Launch, LaunchGroup must be
// called from a running thread of an existing process; the group's
// processes start once the launcher next yields the processor.
//
// This is the minimal surface an in-simulation workload generator needs:
// one call assembles a multi-process work unit (an echo pair, a
// pipeline, a mesh) with its internal topology, handing the generator a
// single link on which the unit reports completion.
func (s *System) LaunchGroup(t *Thread, specs []ProcSpec, wires [][2]int) (*End, []*ProcRef) {
	if !s.ran {
		panic("lynx: LaunchGroup before Run (use Spawn + Join)")
	}
	if len(specs) == 0 {
		panic("lynx: LaunchGroup with no specs")
	}
	s.mu.Lock()
	parent := s.byProc[t.Process()]
	s.mu.Unlock()
	if parent == nil {
		panic("lynx: LaunchGroup from a thread of an unknown process")
	}
	// Home-shard placement: on a partitioned run the whole group is born
	// on the launcher's shard — kernel processes, transports, and boot
	// links all allocate from that group's strided id space — so the
	// launch touches no other shard's state and the engine stays
	// parallel. Unpartitioned runs (g = 0) keep the classic global
	// sequences.
	g := parent.group
	refs := make([]*ProcRef, len(specs))
	for i, spec := range specs {
		refs[i] = s.newProcRef(spec.Name, spec.Main, g)
	}
	s.join(parent, refs[0]) // kernel-level boot wiring works mid-run
	// The launcher's end goes to the caller, not into the launcher's
	// boot slice (read when its main started), which would otherwise
	// grow by one per launch.
	last := len(parent.boots) - 1
	parentTE := parent.boots[last]
	parent.boots[last] = nil
	parent.boots = parent.boots[:last]
	for _, w := range wires {
		if w[0] < 0 || w[0] >= len(specs) || w[1] < 0 || w[1] >= len(specs) || w[0] == w[1] {
			panic(fmt.Sprintf("lynx: LaunchGroup wire %v out of range for %d specs", w, len(specs)))
		}
		s.join(refs[w[0]], refs[w[1]])
	}
	for _, child := range refs {
		s.start(child, s.shards[g])
	}
	return t.AdoptBootEnd(parentTE), refs
}

// Run executes the system until every process finishes (or an error
// such as deadlock occurs).
func (s *System) Run() error {
	s.materialize()
	err := s.env.Run()
	if err != nil {
		s.fr.Anomaly("run error: " + err.Error())
	}
	return err
}

// RunFor executes the system up to the given virtual-time horizon.
func (s *System) RunFor(d Duration) error {
	s.materialize()
	err := s.env.RunUntil(sim.Time(d))
	if err != nil {
		s.fr.Anomaly("run error: " + err.Error())
	}
	return err
}

// Now reports virtual time.
func (s *System) Now() Time { return s.env.Now() }

// Name returns the process's name.
func (p *ProcRef) Name() string { return p.name }

// Proc returns the underlying core process (after Run has started).
func (p *ProcRef) Proc() *core.Process { return p.proc }

// DebugState renders the process's run-time state (wedge diagnosis).
func (p *ProcRef) DebugState() string {
	if p.proc == nil {
		return p.name + ": not started"
	}
	return p.proc.DebugState()
}

// Crash kills the process abruptly mid-run (fault injection).
func (p *ProcRef) Crash() {
	if p.proc != nil {
		p.proc.Crash()
	}
}

// Obs returns the active substrate's observability recorder: attach
// exporters (obs.TextExporter, obs.JSONLExporter, obs.ChromeStream)
// for the full typed event stream, or read Metrics() for the counter
// registry. A sampled or counters-only stream comes from Config.Trace
// instead: its Sink sits behind the flight recorder.
func (s *System) Obs() *obs.Recorder {
	if s.kern == nil {
		return nil
	}
	return s.kern.Obs()
}

// Flight returns the system's flight recorder, built from
// Config.Trace, or nil when Config.Trace is nil or Off. Its export sink
// and dump writer are the ones Config.Trace names; read it for counts
// and snapshots, or call Dump and Anomaly on it.
func (s *System) Flight() *flight.Recorder { return s.fr }

// Metrics returns the active substrate's metric registry. It is
// nil-safe end to end: when no recorder exists (a zero-value System) it
// returns the nil registry, whose lookup methods report zero rather
// than panicking.
func (s *System) Metrics() *obs.Metrics {
	if r := s.Obs(); r != nil {
		return r.Metrics()
	}
	return nil
}

// KernelPID returns the process's kernel-level id on the active
// substrate (-1 for Ideal, which has no kernel processes). Per-process
// obs metrics are keyed by this id.
func (p *ProcRef) KernelPID() int { return p.pid }
