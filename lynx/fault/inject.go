package fault

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Seed-stream tags for the injector's private draws. The injector never
// touches the environment's shared Rand: frame-fate draws and storm
// arrival schedules come from stateless StreamSeed splits of the run
// seed, so adding a fault plan perturbs no other seeded stream and the
// faulted run stays a pure function of (spec, seed).
const (
	faultTag    = 0x464c54 // "FLT": root tag for all fault streams
	frameStream = 0        // frame-fate draws (drop/dup/reorder)
	stormStream = 1        // per-storm arrival schedules
	// Per-group frame streams for a partitioned run start here: child i
	// of Split draws from stream groupStream0+i, disjoint from the serial
	// frameStream by construction.
	groupStream0 = 16
)

// Injector compiles a Plan onto a running simulation. It implements
// netsim.FaultHook for the frame-level rules; process-level events
// (crash/restart) and storm scheduling are driven by virtual-time
// timers the owning system registers at construction.
type Injector struct {
	env    *sim.Env
	plan   *Plan
	seed   uint64
	nodes  int
	rng    *sim.Rand
	counts map[string]int64

	// children are the per-group injectors of a partitioned run (see
	// Split); non-nil only on the parent, whose Counts aggregate them.
	children []*Injector
}

// NewInjector builds an injector for plan over a system with the given
// node count, drawing from stateless child streams of seed. The plan
// must be valid (see Plan.Validate); NewInjector panics otherwise —
// an invalid plan is a configuration error, not a runtime condition.
func NewInjector(env *sim.Env, plan *Plan, seed uint64, nodes int) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		env:    env,
		plan:   plan,
		seed:   seed,
		nodes:  nodes,
		rng:    sim.NewRand(sim.StreamSeed2(seed, faultTag, frameStream)),
		counts: map[string]int64{},
	}
}

// Split compiles the plan into one child injector per partition group
// of a parallel run. Child i runs on envs[i], keeps its own counters
// (each group's medium segment and churn timers touch only that
// group's child, so no counter is shared across shards), and draws
// frame fates from its own stateless stream — a function of (seed,
// group index) alone, so the fault schedule each group observes is
// identical at every worker count. The parent retains the children
// and aggregates their counters in Counts; after Split the parent
// itself must not be installed as a hook.
func (in *Injector) Split(envs []*sim.Env) []*Injector {
	if in.children != nil {
		panic("fault: Split called twice")
	}
	kids := make([]*Injector, len(envs))
	for i, env := range envs {
		kids[i] = &Injector{
			env:    env,
			plan:   in.plan,
			seed:   in.seed,
			nodes:  in.nodes,
			rng:    sim.NewRand(sim.StreamSeed2(in.seed, faultTag, uint64(groupStream0+i))),
			counts: map[string]int64{},
		}
	}
	in.children = kids
	return kids
}

// Note records one occurrence of a named fault effect (the owning
// system uses it for crash/restart/miss events it fires itself).
func (in *Injector) Note(event string) { in.counts[event]++ }

// Counts returns a copy of the per-effect occurrence counters
// (drop, dup, reorder, partition, slow, storm, crash, restart, miss).
// On the parent of a Split partition it sums the children's counters
// into its own; call it only from serial context (before the run or
// after it ends).
func (in *Injector) Counts() map[string]int64 {
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	for _, kid := range in.children {
		for k, v := range kid.counts {
			out[k] += v
		}
	}
	return out
}

// Frame decides the fate of one point-to-point frame. Rules are
// evaluated in plan order; every active, matching probabilistic rule
// consumes exactly one draw (two for a reorder that fires) regardless
// of earlier rules' outcomes, so the draw sequence is a function of the
// frame sequence alone. Broadcast receptions are governed by
// BroadcastLoss, not Frame.
func (in *Injector) Frame(now sim.Time, src, dst netsim.NodeID, nbytes int, wire sim.Duration, broadcast bool) (out netsim.FaultOutcome) {
	if broadcast {
		return out
	}
	elapsed := sim.Duration(now)
	s, d := int(src), int(dst)
	for _, ev := range in.plan.Events {
		switch e := ev.(type) {
		case Drop:
			if e.Match.Bcast || !activeAt(elapsed, e.From, e.Until) || !e.Match.matches(s, d) {
				continue
			}
			if in.rng.Bool(e.Rate) {
				out.Drop = true
				in.counts["drop"]++
			}
		case Duplicate:
			if !activeAt(elapsed, e.From, e.Until) || !e.Match.matches(s, d) {
				continue
			}
			if in.rng.Bool(e.Rate) {
				out.Dup = true
				in.counts["dup"]++
			}
		case Reorder:
			if !activeAt(elapsed, e.From, e.Until) || !e.Match.matches(s, d) {
				continue
			}
			if in.rng.Bool(e.Rate) {
				out.Extra += in.rng.DurationN(e.Window)
				in.counts["reorder"]++
			}
		case Partition:
			if e.cuts(now, s, d) {
				out.Drop = true
				if stall := e.Heal - elapsed; stall > out.Stall {
					out.Stall = stall
				}
				in.counts["partition"]++
			}
		case SlowNode:
			if !activeAt(elapsed, e.From, e.Until) {
				continue
			}
			if s == e.Node || d == e.Node {
				out.Extra += sim.Duration(float64(wire) * (e.Factor - 1))
				in.counts["slow"]++
			}
		}
	}
	return out
}

// BroadcastLoss returns the loss rate the medium should apply to
// broadcast receptions right now: the last active bcast drop rule's
// rate (override semantics — it replaces the medium's default, it does
// not compound with it), or -1 when no rule overrides.
func (in *Injector) BroadcastLoss() float64 {
	elapsed := sim.Duration(in.env.Now())
	rate := -1.0
	for _, ev := range in.plan.Events {
		if e, ok := ev.(Drop); ok && e.Match.Bcast && activeAt(elapsed, e.From, e.Until) {
			rate = e.Rate
		}
	}
	return rate
}

// StartStorms registers the virtual-time timer chains that inject each
// LinkStorm's junk frames into the medium. Each storm frame occupies
// the medium exactly as a real one would (via SendTime, whose
// contention model charges and reserves bandwidth); the result is
// discarded — nothing is delivered. Storm sources rotate round-robin
// over the node set, so no rng draw is spent on placement. Storms are
// validated time-bounded, so the timer chain always terminates.
func (in *Injector) StartStorms(net netsim.Network) {
	if net == nil || in.nodes < 2 {
		return
	}
	for i, ev := range in.plan.Events {
		e, ok := ev.(LinkStorm)
		if !ok {
			continue
		}
		arr := sim.NewArrivalStream(sim.StreamSeed2(in.seed, stormStream, uint64(i)), e.Rate)
		frame := 0
		var schedule func()
		schedule = func() {
			t := sim.Time(e.From) + sim.Time(arr.Next())
			if t >= sim.Time(e.Until) {
				return
			}
			in.env.At(t, func() {
				src := netsim.NodeID(frame % in.nodes)
				dst := netsim.NodeID((frame + 1) % in.nodes)
				frame++
				net.SendTime(in.env.Now(), src, dst, stormFrameBytes)
				in.counts["storm"]++
				schedule()
			})
		}
		schedule()
	}
}

// activeAt reports whether a windowed rule is active at elapsed virtual
// time t (until 0 = forever).
func activeAt(t, from, until sim.Duration) bool {
	return t >= from && (until == 0 || t < until)
}
