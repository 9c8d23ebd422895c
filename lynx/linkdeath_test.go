package lynx_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/lynx"
)

// TestLinkDeathWakesConnectorsInOrder: six threads of one process
// Connect on one link, and the server destroys the link once the sixth
// request arrives. Every connector feels ErrLinkDestroyed, and they
// wake in connect order on every run: the wake order must follow from
// the seed, never from map iteration.
func TestLinkDeathWakesConnectorsInOrder(t *testing.T) {
	const want = "c0 c1 c2 c3 c4 c5"
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		for run := 0; run < 20; run++ {
			if got := linkDeathWakeOrder(t, sub); got != want {
				t.Fatalf("run %d: connectors woke in order %q, want %q", run, got, want)
			}
		}
	})
}

// linkDeathWakeOrder runs the six-connector workload once and returns
// the order in which the connectors returned from Connect.
func linkDeathWakeOrder(t *testing.T, sub lynx.Substrate) string {
	t.Helper()
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
	var woke []string
	client := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("c%d", i)
			th.Fork(name, func(c *lynx.Thread) {
				if _, err := c.Connect(boot[0], "op", lynx.Msg{}); !errors.Is(err, lynx.ErrLinkDestroyed) {
					t.Errorf("%s: Connect = %v, want ErrLinkDestroyed", name, err)
				}
				woke = append(woke, name)
			})
		}
	})
	server := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
		for i := 0; i < 6; i++ {
			if _, err := th.Receive(boot[0]); err != nil {
				t.Errorf("Receive %d: %v", i, err)
				return
			}
		}
		th.Destroy(boot[0])
	})
	sys.Join(client, server)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(woke, " ")
}
