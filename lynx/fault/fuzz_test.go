package fault

import "testing"

// FuzzParse feeds arbitrary strings to Parse and ParseScenario. Neither
// may panic, and a plan either accepts must render (String) to its
// canonical form: a string that parses back to the same rendering,
// since that form renders a grid axis value and a sweep key. Plain
// `go test` runs the seeds: every plan and scenario name the other
// tests use, good and bad.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "none", "  none  ",
		"crash(u1.*,60ms)",
		"restart(loadgen,90ms)",
		"drop(*->*,0.1)",
		"drop(bcast,0.25)",
		"drop(3->*,0.5,10ms,20ms)",
		"dup(*->7,0.1)",
		"reorder(*->*,0.25,1ms)",
		"part(0-9|10-19,40ms,120ms)",
		"part(0.3.7|1-2,1ms,2ms)",
		"slow(3,3)",
		"slow(2,1.5,5ms,50ms)",
		"storm(2000,0s,1s)",
		"crash(loadgen,60ms);restart(loadgen,90ms)",
		"crash", "bogus(1)", "crash()", "crash(p,-5ms)", "restart(u*,10ms)",
		"drop(*->*,1.5)", "drop(*->*,-0.1)", "dup(bcast,0.5)",
		"reorder(bcast,0.5,1ms)", "reorder(*->*,0.25,0ms)",
		"part(0-9,40ms,120ms)", "part(0-4|3-9,40ms,120ms)",
		"part(0-9|10-19,120ms,40ms)", "slow(3,0.5)", "storm(0)",
		"storm(2000,10ms,10ms)", "crash-unit", "churn-gen", "no-such-scenario",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, parse := range []func(string) (*Plan, error){Parse, ParseScenario} {
			p, err := parse(s)
			if err != nil {
				continue
			}
			canon := p.String()
			back, err := Parse(canon)
			if err != nil {
				t.Fatalf("%q parsed, but its rendering %q does not: %v", s, canon, err)
			}
			if got := back.String(); got != canon {
				t.Fatalf("%q renders as %q, which renders as %q", s, canon, got)
			}
		}
	})
}
