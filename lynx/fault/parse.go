package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Parse parses the canonical plan grammar:
//
//	plan    := "none" | event (";" event)*
//	event   := crash(proc,at) | restart(proc,at)
//	         | drop(match,rate[,from,until]) | dup(match,rate[,from,until])
//	         | reorder(match,rate,window[,from,until])
//	         | part(groups,at,heal) | slow(node,factor[,from,until])
//	         | storm(rate[,from,until])
//	match   := "bcast" | node "->" node        (node := int | "*")
//	groups  := group ("|" group)*              (group := run ("." run)*, run := n | a-b)
//	at, from, until, window, heal := Go durations ("40ms", "1.5s")
//	rate    := float (probability for drop/dup/reorder, ×factor for slow,
//	           frames/sec for storm)
//
// storm with one argument defaults to a one-second active window
// (storms must be bounded; see LinkStorm). Parse validates the plan;
// String() of the result is the canonical rendering.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return &Plan{}, nil
	}
	p := &Plan{}
	for _, part := range strings.Split(s, ";") {
		e, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		p.Events = append(p.Events, e)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(s string) *Plan {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

func parseEvent(s string) (Event, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("fault: event %q is not name(args)", s)
	}
	name := s[:open]
	args := strings.Split(s[open+1:len(s)-1], ",")
	for i := range args {
		args[i] = strings.TrimSpace(args[i])
	}
	fail := func(want string) (Event, error) {
		return nil, fmt.Errorf("fault: %s takes %s, got %q", name, want, s)
	}
	switch name {
	case "crash", "restart":
		if len(args) != 2 {
			return fail("(proc,at)")
		}
		at, err := parseDur(args[1])
		if err != nil {
			return nil, err
		}
		if strings.ContainsAny(args[0], "();|") {
			return nil, fmt.Errorf("fault: process name %q contains grammar characters", args[0])
		}
		if name == "crash" {
			return Crash{Proc: args[0], At: at}, nil
		}
		return Restart{Proc: args[0], At: at}, nil
	case "drop", "dup":
		if len(args) != 2 && len(args) != 4 {
			return fail("(match,rate[,from,until])")
		}
		m, err := parseMatch(args[0])
		if err != nil {
			return nil, err
		}
		r, err := parseRate(name, args[1])
		if err != nil {
			return nil, err
		}
		from, until, err := parseWindow(args[2:])
		if err != nil {
			return nil, err
		}
		if name == "drop" {
			return Drop{Match: m, Rate: r, From: from, Until: until}, nil
		}
		return Duplicate{Match: m, Rate: r, From: from, Until: until}, nil
	case "reorder":
		if len(args) != 3 && len(args) != 5 {
			return fail("(match,rate,window[,from,until])")
		}
		m, err := parseMatch(args[0])
		if err != nil {
			return nil, err
		}
		r, err := parseRate(name, args[1])
		if err != nil {
			return nil, err
		}
		w, err := parseDur(args[2])
		if err != nil {
			return nil, err
		}
		from, until, err := parseWindow(args[3:])
		if err != nil {
			return nil, err
		}
		return Reorder{Match: m, Rate: r, Window: w, From: from, Until: until}, nil
	case "part":
		if len(args) != 3 {
			return fail("(groups,at,heal)")
		}
		groups, err := parseGroups(args[0])
		if err != nil {
			return nil, err
		}
		at, err := parseDur(args[1])
		if err != nil {
			return nil, err
		}
		heal, err := parseDur(args[2])
		if err != nil {
			return nil, err
		}
		return Partition{Groups: groups, At: at, Heal: heal}, nil
	case "slow":
		if len(args) != 2 && len(args) != 4 {
			return fail("(node,factor[,from,until])")
		}
		node, err := strconv.Atoi(args[0])
		if err != nil {
			return nil, fmt.Errorf("fault: slow node id %q: %v", args[0], err)
		}
		f, err := parseRate(name, args[1])
		if err != nil {
			return nil, err
		}
		from, until, err := parseWindow(args[2:])
		if err != nil {
			return nil, err
		}
		return SlowNode{Node: node, Factor: f, From: from, Until: until}, nil
	case "storm":
		if len(args) != 1 && len(args) != 3 {
			return fail("(rate[,from,until])")
		}
		r, err := parseRate(name, args[0])
		if err != nil {
			return nil, err
		}
		from, until := sim.Duration(0), sim.Duration(sim.Second)
		if len(args) == 3 {
			if from, until, err = parseWindow(args[1:]); err != nil {
				return nil, err
			}
		}
		return LinkStorm{Rate: r, From: from, Until: until}, nil
	}
	return nil, fmt.Errorf("fault: unknown event %q (want crash|restart|drop|dup|reorder|part|slow|storm)", name)
}

func parseMatch(s string) (Match, error) {
	if s == "bcast" {
		return Match{Bcast: true}, nil
	}
	from, to, ok := strings.Cut(s, "->")
	if !ok {
		return Match{}, fmt.Errorf("fault: match %q is neither bcast nor src->dst", s)
	}
	f, err := parseNode(from)
	if err != nil {
		return Match{}, err
	}
	t, err := parseNode(to)
	if err != nil {
		return Match{}, err
	}
	return Match{From: f, To: t}, nil
}

func parseNode(s string) (int, error) {
	if s == "*" {
		return Any, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("fault: node %q is neither * nor a non-negative int", s)
	}
	return n, nil
}

func parseRate(name, s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("fault: %s rate %q: %v", name, s, err)
	}
	return r, nil
}

func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("fault: duration %q: %v", s, err)
	}
	return sim.Duration(d), nil
}

// parseWindow parses an optional [from, until] argument pair (empty
// slice means unbounded).
func parseWindow(args []string) (from, until sim.Duration, err error) {
	if len(args) == 0 {
		return 0, 0, nil
	}
	if from, err = parseDur(args[0]); err != nil {
		return 0, 0, err
	}
	if until, err = parseDur(args[1]); err != nil {
		return 0, 0, err
	}
	return from, until, nil
}

// maxRangeNodes bounds the node ids one partition's a-b ranges expand
// to, so a range such as 0-9999999999 is an error rather than a huge
// allocation (or, at the top of the int range, an endless loop).
const maxRangeNodes = 1 << 16

// parseGroups parses "0-9|10-19" / "0.3.7|1-2" partition group syntax.
func parseGroups(s string) ([][]int, error) {
	var groups [][]int
	expanded := 0 // node ids the ranges so far expand to
	for _, gs := range strings.Split(s, "|") {
		var g []int
		for _, run := range strings.Split(gs, ".") {
			lo, hi, isRange := strings.Cut(run, "-")
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, fmt.Errorf("fault: partition node %q: %v", run, err)
			}
			if !isRange {
				g = append(g, a)
				continue
			}
			b, err := strconv.Atoi(hi)
			if err != nil || b < a {
				return nil, fmt.Errorf("fault: partition range %q is not a-b with b >= a", run)
			}
			if b-a >= maxRangeNodes-expanded {
				return nil, fmt.Errorf("fault: partition %q spans more than %d nodes", s, maxRangeNodes)
			}
			expanded += b - a + 1
			for n := a; n <= b; n++ {
				g = append(g, n)
			}
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// scenarios is the named scenario registry: short handles for the
// covering set of fault plans used by `lynxload -faults` and the bench
// faults table. Every fault type appears at
// least once. Times are tuned for the default overload cell shape
// (rate 40/s, 250ms window, 20 nodes).
var scenarios = []struct{ name, plan string }{
	{"none", "none"},
	{"crash-unit", "crash(u1.*,60ms)"},
	{"churn-gen", "crash(loadgen,60ms);restart(loadgen,90ms)"},
	{"drop10", "drop(*->*,0.1)"},
	{"dup10", "dup(*->*,0.1)"},
	{"reorder1ms", "reorder(*->*,0.25,1ms)"},
	{"part-heal", "part(0-9|10-19,40ms,120ms)"},
	{"slow3x", "slow(3,3)"},
	{"storm2k", "storm(2000,0s,1s)"},
}

// ScenarioNames lists the registered scenario names in canonical order
// (the order the default faults table enumerates).
func ScenarioNames() []string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return names
}

// ParseScenarios resolves a scenario list, each entry a registered
// name or an inline plan; "default" expands to every registered
// scenario, in registry order.
func ParseScenarios(list []string) ([]*Plan, error) {
	var out []*Plan
	for _, s := range list {
		names := []string{s}
		if strings.TrimSpace(s) == "default" {
			names = ScenarioNames()
		}
		for _, name := range names {
			p, err := ParseScenario(name)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// ParseScenario resolves a registered scenario name, or falls back to
// parsing s as an inline plan in the canonical grammar.
func ParseScenario(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	for _, sc := range scenarios {
		if sc.name == s {
			return Parse(sc.plan)
		}
	}
	return Parse(s)
}
