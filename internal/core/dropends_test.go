package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestKilledEndsAreDropped checks that a long-lived process forgets the
// ends whose links its peers destroyed, while the program still sees
// them as its own dead ends.
func TestKilledEndsAreDropped(t *testing.T) {
	const n = 40
	var debug string
	var dead []*core.End
	env := multiRig(t, n,
		func(th *core.Thread, ends []*core.End) {
			for _, e := range ends {
				th.Serve(e, func(st *core.Thread, req *core.Request) {
					st.Reply(req, core.Msg{})
				})
			}
			dead = ends
			th.Sleep(sim.Second) // every client has come and gone
			a, b, err := th.NewLink()
			if err != nil {
				t.Error(err)
				return
			}
			debug = th.Process().DebugState()
			if _, err := th.Connect(a, "op", core.Msg{Links: []*core.End{dead[0]}}); !errors.Is(err, core.ErrLinkDestroyed) {
				t.Errorf("enclosing a peer-destroyed end: %v, want ErrLinkDestroyed", err)
			}
			th.Destroy(a)
			th.Destroy(b)
		},
		func(i int, th *core.Thread, e *core.End) {
			th.Sleep(sim.Duration(i) * sim.Millisecond)
			if _, err := th.Connect(e, "op", core.Msg{}); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			th.Destroy(e)
		})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range dead {
		if !e.Dead() {
			t.Fatalf("end %v still live", e)
		}
	}
	if !strings.Contains(debug, " ends=2\n") {
		t.Fatalf("server still tracks dead ends:\n%s", debug)
	}
}
