// Package fault defines declarative, seed-deterministic fault plans.
//
// A Plan is an ordered schedule of typed fault events — process crashes
// and restarts, probabilistic frame drop/duplication/reorder, timed
// partitions, slow nodes, and link storms — that a lynx.System compiles
// onto hooks in the network simulator and the process table. A faulted
// run remains a pure function of (spec, seed): the injector draws from
// its own stateless seed stream (never the environment's shared Rand),
// every probabilistic rule consumes exactly one draw per matching frame,
// and process-level events fire from ordinary virtual-time timers. The
// same seed therefore yields a byte-identical trace at any parallelism.
//
// Plans have a canonical string grammar (see Parse) so a plan can ride
// on a grid axis: the canonical string is the axis value, which flows
// into grid canonicalization, fingerprints, and the lynxd cell cache
// key unchanged.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Any is the wildcard node id in a Match.
const Any = -1

// Match selects the frames a probabilistic rule applies to: a directed
// (From, To) node pair with Any as wildcard, or — when Bcast is set —
// broadcast receptions (which have no directed pair on a shared
// medium).
type Match struct {
	From, To int
	Bcast    bool
}

// MatchAll matches every point-to-point frame.
func MatchAll() Match { return Match{From: Any, To: Any} }

func (m Match) String() string {
	if m.Bcast {
		return "bcast"
	}
	return nodeStr(m.From) + "->" + nodeStr(m.To)
}

func nodeStr(n int) string {
	if n == Any {
		return "*"
	}
	return fmt.Sprintf("%d", n)
}

func (m Match) matches(src, dst int) bool {
	if m.Bcast {
		return false
	}
	return (m.From == Any || m.From == src) && (m.To == Any || m.To == dst)
}

// Event is one typed entry in a Plan. Concrete types: Crash, Restart,
// Drop, Duplicate, Reorder, Partition, SlowNode, LinkStorm.
type Event interface {
	// String renders the event in the canonical grammar.
	String() string
	// validate reports why the event is ill-formed, or nil.
	validate() error
}

// Crash kills the named process at virtual time At. Proc is an exact
// process name, or a trailing-* prefix pattern ("u1.*") that kills
// every live process whose name matches. A crash that resolves to no
// live process at fire time is counted as a miss, not an error — under
// open-loop load the population at any instant is seed-dependent.
type Crash struct {
	Proc string
	At   sim.Duration
}

func (e Crash) String() string { return fmt.Sprintf("crash(%s,%s)", e.Proc, dur(e.At)) }

func (e Crash) validate() error {
	if e.Proc == "" {
		return fmt.Errorf("crash: empty process name")
	}
	if e.At < 0 {
		return fmt.Errorf("crash(%s): negative time", e.Proc)
	}
	return nil
}

// Restart starts a fresh incarnation of the named process at virtual
// time At: a new process with the same name and main function, empty
// boot links (a restarted process re-acquires capabilities through the
// substrate, it does not inherit the dead incarnation's ends). Proc
// must name a process spec exactly (no wildcard — each restart is one
// incarnation).
type Restart struct {
	Proc string
	At   sim.Duration
}

func (e Restart) String() string { return fmt.Sprintf("restart(%s,%s)", e.Proc, dur(e.At)) }

func (e Restart) validate() error {
	if e.Proc == "" {
		return fmt.Errorf("restart: empty process name")
	}
	if strings.HasSuffix(e.Proc, "*") {
		return fmt.Errorf("restart(%s): wildcard restart is ambiguous; name one process", e.Proc)
	}
	if e.At < 0 {
		return fmt.Errorf("restart(%s): negative time", e.Proc)
	}
	return nil
}

// Drop loses matching frames with probability Rate. Point-to-point
// drops are repaired by the kernel's retransmission machinery (the
// frame is lost, the operation is delayed); a Bcast match instead
// overrides the medium's default broadcast loss rate (replacing, not
// compounding with, the SODA bus's built-in 1%). From/Until bound the
// active window; Until 0 means forever, which requires Rate < 1 so
// retransmission terminates.
type Drop struct {
	Match       Match
	Rate        float64
	From, Until sim.Duration
}

func (e Drop) String() string { return ruleStr("drop", e.Match, e.Rate, e.From, e.Until) }

func (e Drop) validate() error { return ruleCheck("drop", e.Rate, e.From, e.Until, !e.Match.Bcast) }

// Duplicate ghost-copies matching frames with probability Rate: the
// copy occupies the medium at delivery time and is then discarded by
// the receiver (kernels never double-deliver), so duplication shows up
// as deterministic bandwidth waste and extra contention.
type Duplicate struct {
	Match       Match
	Rate        float64
	From, Until sim.Duration
}

func (e Duplicate) String() string { return ruleStr("dup", e.Match, e.Rate, e.From, e.Until) }

func (e Duplicate) validate() error {
	if e.Match.Bcast {
		return fmt.Errorf("dup: bcast duplication is not modeled (broadcasts already reach every node)")
	}
	if e.Rate < 0 || e.Rate > 1 {
		return fmt.Errorf("dup: rate %g outside [0,1]", e.Rate)
	}
	return windowCheck("dup", e.From, e.Until)
}

// Reorder delays matching frames, with probability Rate, by an extra
// uniform draw in [0, Window) — enough to overtake frames sent later.
type Reorder struct {
	Match       Match
	Rate        float64
	Window      sim.Duration
	From, Until sim.Duration
}

func (e Reorder) String() string {
	s := fmt.Sprintf("reorder(%s,%s,%s", e.Match, rate(e.Rate), dur(e.Window))
	return s + windowStr(e.From, e.Until) + ")"
}

func (e Reorder) validate() error {
	if e.Match.Bcast {
		return fmt.Errorf("reorder: bcast reorder is not modeled")
	}
	if e.Rate < 0 || e.Rate > 1 {
		return fmt.Errorf("reorder: rate %g outside [0,1]", e.Rate)
	}
	if e.Window <= 0 {
		return fmt.Errorf("reorder: window must be positive")
	}
	return windowCheck("reorder", e.From, e.Until)
}

// Partition splits the nodes into Groups during [At, Heal): frames
// crossing a group boundary are dropped (kernels keep retransmitting,
// so traffic resumes after the heal), and on a reliable backplane the
// transfer instead stalls until the heal instant. Broadcasts are not
// partitioned (a shared medium has no boundary to cut); nodes not
// listed in any group are unaffected. Heal must be after At — an
// unhealed partition would retransmit forever.
type Partition struct {
	Groups   [][]int
	At, Heal sim.Duration
}

func (e Partition) String() string {
	gs := make([]string, len(e.Groups))
	for i, g := range e.Groups {
		gs[i] = groupStr(g)
	}
	return fmt.Sprintf("part(%s,%s,%s)", strings.Join(gs, "|"), dur(e.At), dur(e.Heal))
}

func (e Partition) validate() error {
	if len(e.Groups) < 2 {
		return fmt.Errorf("part: need at least two groups")
	}
	seen := map[int]bool{}
	for _, g := range e.Groups {
		if len(g) == 0 {
			return fmt.Errorf("part: empty group")
		}
		for _, n := range g {
			if n < 0 {
				return fmt.Errorf("part: negative node id %d", n)
			}
			if seen[n] {
				return fmt.Errorf("part: node %d in two groups", n)
			}
			seen[n] = true
		}
	}
	if e.Heal <= e.At {
		return fmt.Errorf("part: heal (%s) must be after at (%s)", dur(e.Heal), dur(e.At))
	}
	return nil
}

// active reports whether the partition cuts src from dst at time now.
func (e Partition) cuts(now sim.Time, src, dst int) bool {
	if sim.Duration(now) < e.At || sim.Duration(now) >= e.Heal {
		return false
	}
	gs, gd := e.groupOf(src), e.groupOf(dst)
	return gs >= 0 && gd >= 0 && gs != gd
}

func (e Partition) groupOf(n int) int {
	for i, g := range e.Groups {
		for _, m := range g {
			if m == n {
				return i
			}
		}
	}
	return -1
}

// SlowNode multiplies the wire time of frames to or from Node by
// Factor (>= 1) — a degraded NIC or an overloaded host, modeled as
// extra latency without extra medium occupancy.
type SlowNode struct {
	Node        int
	Factor      float64
	From, Until sim.Duration
}

func (e SlowNode) String() string {
	return fmt.Sprintf("slow(%d,%s%s)", e.Node, rate(e.Factor), windowStr(e.From, e.Until))
}

func (e SlowNode) validate() error {
	if e.Node < 0 {
		return fmt.Errorf("slow: negative node id")
	}
	if e.Factor < 1 {
		return fmt.Errorf("slow: factor %g < 1 (a fast node is not a fault)", e.Factor)
	}
	return windowCheck("slow", e.From, e.Until)
}

// LinkStorm injects 64-byte junk frames into the shared medium at Rate
// frames per virtual second (Poisson gaps from a private stream),
// occupying bandwidth that real traffic must contend with. A storm must
// be time-bounded — an unbounded storm's self-rescheduling timer would
// keep the simulation's clock advancing forever after the last process
// exits — so Until > From is required (Parse defaults a one-second
// bound). On a contention-free backplane a storm has no effect.
type LinkStorm struct {
	Rate        float64
	From, Until sim.Duration
}

// stormFrameBytes is the size of one injected junk frame.
const stormFrameBytes = 64

func (e LinkStorm) String() string {
	return fmt.Sprintf("storm(%s,%s,%s)", rate(e.Rate), dur(e.From), dur(e.Until))
}

func (e LinkStorm) validate() error {
	if e.Rate <= 0 {
		return fmt.Errorf("storm: rate must be positive")
	}
	if e.From < 0 || e.Until <= e.From {
		return fmt.Errorf("storm: requires a bounded window (until > from)")
	}
	return nil
}

// Plan is an ordered, seed-deterministic schedule of fault events. The
// zero Plan (and nil) injects nothing. Event order is significant only
// for rule evaluation order (each frame consults rules in plan order);
// timed events fire at their own instants regardless of position.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// String renders the plan in the canonical grammar: events joined by
// ";", or "none" for an empty plan. Parse(p.String()) round-trips.
func (p *Plan) String() string {
	if p.Empty() {
		return "none"
	}
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Validate reports the first ill-formed event, or nil.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, e := range p.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("fault: %w", err)
		}
	}
	return nil
}

// Churns reports whether the plan kills or restarts processes — the
// scenarios under which a load window may complete fewer units than
// arrived (shape checks relax accordingly).
func (p *Plan) Churns() bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		switch e.(type) {
		case Crash, Restart:
			return true
		}
	}
	return false
}

// BroadcastLoss builds the one-rule plan that overrides the medium's
// broadcast loss rate (the SODA bus's unfaulted default is 1%).
// Point-to-point frames are untouched, and the override consumes the
// same one rng draw per reception as the default.
func BroadcastLoss(rate float64) *Plan {
	return &Plan{Events: []Event{Drop{Match: Match{Bcast: true}, Rate: rate}}}
}

// --- shared rendering helpers ---

// dur renders a virtual duration via time.Duration formatting (the
// parseable inverse of time.ParseDuration).
func dur(d sim.Duration) string { return time.Duration(d).String() }

// rate renders a probability or factor minimally (%g).
func rate(r float64) string { return fmt.Sprintf("%g", r) }

// windowStr renders an optional ",from,until" suffix, omitted when the
// rule is unbounded.
func windowStr(from, until sim.Duration) string {
	if from == 0 && until == 0 {
		return ""
	}
	return "," + dur(from) + "," + dur(until)
}

func ruleStr(name string, m Match, r float64, from, until sim.Duration) string {
	return fmt.Sprintf("%s(%s,%s%s)", name, m, rate(r), windowStr(from, until))
}

func ruleCheck(name string, r float64, from, until sim.Duration, retransmitted bool) error {
	if r < 0 || r > 1 {
		return fmt.Errorf("%s: rate %g outside [0,1]", name, r)
	}
	if retransmitted && r >= 1 && until == 0 {
		return fmt.Errorf("%s: rate 1 forever would retransmit forever; bound the window", name)
	}
	return windowCheck(name, from, until)
}

func windowCheck(name string, from, until sim.Duration) error {
	if from < 0 || until < 0 {
		return fmt.Errorf("%s: negative window bound", name)
	}
	if until != 0 && until <= from {
		return fmt.Errorf("%s: until (%s) must be after from (%s)", name, dur(until), dur(from))
	}
	return nil
}

// groupStr renders a node set canonically: sorted, consecutive runs
// collapsed to a-b ranges, runs joined by ".".
func groupStr(g []int) string {
	ns := append([]int(nil), g...)
	sort.Ints(ns)
	var parts []string
	for i := 0; i < len(ns); {
		j := i
		for j+1 < len(ns) && ns[j+1] == ns[j]+1 {
			j++
		}
		switch {
		case j == i:
			parts = append(parts, fmt.Sprintf("%d", ns[i]))
		default:
			parts = append(parts, fmt.Sprintf("%d-%d", ns[i], ns[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ".")
}
