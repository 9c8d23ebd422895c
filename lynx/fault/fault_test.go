package fault

import (
	"strings"
	"testing"
)

// TestParseStringRoundTrip: every event type's canonical form survives
// Parse → String unchanged, and re-parsing the rendered form is a fixed
// point. The canonical string renders a grid axis value, so it lands
// in cell keys, sweep keys and table rows, and any drift here changes
// them.
func TestParseStringRoundTrip(t *testing.T) {
	cases := []string{
		"crash(u1.*,60ms)",
		"restart(loadgen,90ms)",
		"drop(*->*,0.1)",
		"drop(bcast,0.25)",
		"drop(3->*,0.5,10ms,20ms)",
		"dup(*->7,0.1)",
		"reorder(*->*,0.25,1ms)",
		"part(0-9|10-19,40ms,120ms)",
		"slow(3,3)",
		"slow(2,1.5,5ms,50ms)",
		"storm(2000,0s,1s)",
		"crash(loadgen,60ms);restart(loadgen,90ms)",
	}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		got := p.String()
		if got != src {
			t.Errorf("Parse(%q).String() = %q, want input unchanged", src, got)
		}
		p2, err := Parse(got)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", got, err)
			continue
		}
		if p2.String() != got {
			t.Errorf("String not a fixed point: %q -> %q", got, p2.String())
		}
		if len(p2.Events) != len(p.Events) {
			t.Errorf("%q: event count %d != %d after round trip", src, len(p2.Events), len(p.Events))
		}
	}
}

func TestParseEmptyAndNone(t *testing.T) {
	for _, src := range []string{"", "none", "  none  "} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !p.Empty() {
			t.Errorf("Parse(%q) not empty: %v", src, p)
		}
		if p.String() != "none" {
			t.Errorf("empty plan String() = %q, want none", p.String())
		}
	}
	if !(*Plan)(nil).Empty() {
		t.Error("nil plan should be Empty")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"crash", "name(args)"},
		{"bogus(1)", "unknown"},
		{"crash()", ""},
		{"crash(p,-5ms)", "negative"},
		{"restart(u*,10ms)", "wildcard"},
		{"drop(*->*,1.5)", ""},
		{"drop(*->*,-0.1)", ""},
		{"dup(bcast,0.5)", "bcast"},
		{"reorder(bcast,0.5,1ms)", "bcast"},
		{"reorder(*->*,0.25,0ms)", "window"},
		{"part(0-9,40ms,120ms)", "two groups"},
		{"part(0-4|3-9,40ms,120ms)", "two groups"},
		{"part(0-9|10-19,120ms,40ms)", "heal"},
		{"part(0-9|10-9223372036854775807,40ms,120ms)", "spans more than"},
		{"part(0-40000|40001-80000,40ms,120ms)", "spans more than"},
		{"slow(3,0.5)", "factor"},
		{"storm(0)", "positive"},
		{"storm(2000,10ms,10ms)", "bounded"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error", c.src)
			continue
		}
		if c.frag != "" && !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.src, err, c.frag)
		}
	}
}

// TestScenarioRegistry: every registered name resolves, "none" is the
// empty plan, order is stable (it is the faults table's row order), and
// inline grammar falls through.
func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) == 0 || names[0] != "none" {
		t.Fatalf("ScenarioNames() = %v, want none first", names)
	}
	for _, n := range names {
		p, err := ParseScenario(n)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", n, err)
			continue
		}
		if n == "none" && !p.Empty() {
			t.Errorf("scenario none not empty: %v", p)
		}
		if n != "none" && p.Empty() {
			t.Errorf("scenario %q parsed empty", n)
		}
	}
	inline, err := ParseScenario("drop(*->*,0.2)")
	if err != nil || len(inline.Events) != 1 {
		t.Fatalf("inline fallback: %v, %v", inline, err)
	}
	if _, err := ParseScenario("no-such-scenario"); err == nil {
		t.Error("garbage scenario name should error")
	}
}

// TestParseScenariosDefault: "default" expands in place to every
// registered scenario, in registry order, and a bad entry fails the
// whole list.
func TestParseScenariosDefault(t *testing.T) {
	plans, err := ParseScenarios([]string{"drop10", " default "})
	if err != nil {
		t.Fatal(err)
	}
	names := ScenarioNames()
	if len(plans) != 1+len(names) {
		t.Fatalf("got %d plans, want %d", len(plans), 1+len(names))
	}
	for i, n := range append([]string{"drop10"}, names...) {
		want, _ := ParseScenario(n)
		if plans[i].String() != want.String() {
			t.Errorf("plan %d = %v, want %v (%s)", i, plans[i], want, n)
		}
	}
	if _, err := ParseScenarios([]string{"default", "no-such-scenario"}); err == nil {
		t.Error("a bad entry should fail the list")
	}
}

func TestChurns(t *testing.T) {
	for src, want := range map[string]bool{
		"crash(p,10ms)":               true,
		"restart(p,10ms)":             true,
		"drop(*->*,0.1);crash(p,1ms)": true,
		"drop(*->*,0.1)":              false,
		"none":                        false,
	} {
		if got := MustParse(src).Churns(); got != want {
			t.Errorf("Churns(%q) = %v, want %v", src, got, want)
		}
	}
	if (*Plan)(nil).Churns() {
		t.Error("nil plan should not churn")
	}
}

func TestBroadcastLoss(t *testing.T) {
	p := BroadcastLoss(0.25)
	if err := p.Validate(); err != nil {
		t.Fatalf("BroadcastLoss plan invalid: %v", err)
	}
	if len(p.Events) != 1 || p.Churns() {
		t.Fatalf("BroadcastLoss plan shape: %v", p)
	}
	back, err := Parse(p.String())
	if err != nil || back.String() != p.String() {
		t.Errorf("BroadcastLoss round trip: %q, %v", p.String(), err)
	}
}
