package load

import (
	"testing"

	"repro/internal/sim"
)

// FuzzParseMix feeds arbitrary strings to ParseMix. It may not panic,
// and a mix it accepts must render (String) to a mix string that parses
// back to the same rendering, and must be drawable (Pick) with every
// draw naming one of its kinds. Plain `go test` runs the seeds: the
// mixes TestParseMix uses, good and bad.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{
		DefaultMix, "echo=1", "echo=70,pipeline=20,mesh=10",
		"echo=3,pipeline=94", "mesh=1,echo=0", "mesh=2,echo=0,pipeline=1",
		"", "echo", "echo=", "echo=x", "echo=-1", "frob=1",
		"echo=0", "echo=0,mesh=0", "echo=1;mesh=1",
		"echo=9223372036854775807,mesh=1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMix(s)
		if err != nil {
			return
		}
		canon := m.String()
		back, err := ParseMix(canon)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, canon, err)
		}
		if got := back.String(); got != canon {
			t.Fatalf("%q renders as %q, which renders as %q", s, canon, got)
		}
		r := sim.NewRand(1)
		for i := 0; i < 8; i++ {
			k := m.Pick(r)
			if k != "echo" && k != "pipeline" && k != "mesh" {
				t.Fatalf("%q drew unknown kind %q", s, k)
			}
		}
	})
}
