package load

import (
	"testing"

	"repro/internal/sim"
)

func TestParseMix(t *testing.T) {
	// Weights are relative: nothing requires them to sum to 100 (or any
	// other total), and scaled mixes describe identical traffic.
	for _, good := range []string{
		DefaultMix, "echo=1", "echo=70,pipeline=20,mesh=10",
		"echo=3,pipeline=94", "mesh=1,echo=0",
	} {
		if _, err := ParseMix(good); err != nil {
			t.Fatalf("ParseMix(%q): %v", good, err)
		}
	}
	for _, bad := range []string{
		"", "echo", "echo=", "echo=x", "echo=-1", "frob=1",
		"echo=0", "echo=0,mesh=0", "echo=1;mesh=1",
		"echo=9223372036854775807,mesh=1",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) should fail", bad)
		}
	}
}

// Pick respects the weights and is a pure function of the stream; the
// canonical String form preserves entry order and drops zero weights.
func TestMixPickAndString(t *testing.T) {
	a, _ := ParseMix("echo=7,pipeline=2,mesh=1")
	if a.String() != "echo=7,pipeline=2,mesh=1" {
		t.Fatalf("String = %q", a.String())
	}
	if m, _ := ParseMix("mesh=2,echo=0,pipeline=1"); m.String() != "mesh=2,pipeline=1" {
		t.Fatalf("zero-weight entry survived: %q", m.String())
	}
	counts := map[string]int{}
	ra := sim.NewRand(42)
	for i := 0; i < 1000; i++ {
		counts[a.Pick(ra)]++
	}
	if counts["echo"] < counts["pipeline"] || counts["pipeline"] < counts["mesh"] {
		t.Fatalf("weights not respected: %v", counts)
	}
	// Same seed, same sequence: the draw is a pure function of the stream.
	r1, r2 := sim.NewRand(7), sim.NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Pick(r1) != a.Pick(r2) {
			t.Fatal("mix draw is not deterministic in the seed")
		}
	}
}
