// Quickstart: two LYNX processes, one link, one remote procedure call —
// on your choice of simulated kernel.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -substrate chrysalis
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cli"
	"repro/lynx"
)

func main() {
	subName := flag.String("substrate", "charlotte", "charlotte|soda|chrysalis|ideal")
	flag.Parse()

	sub, err := lynx.ParseSubstrate(*subName)
	cli.CheckUsage("quickstart", err)

	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})

	// The client performs one remote operation and reports its latency.
	client := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
		start := t.Now()
		reply, err := t.Connect(boot[0], "greet", lynx.Msg{Data: []byte("world")})
		if err != nil {
			log.Fatalf("connect: %v", err)
		}
		rtt := lynx.Duration(t.Now() - start)
		fmt.Printf("reply: %q\n", reply.Data)
		fmt.Printf("round trip on %s: %.2f ms of 1986 virtual time\n", sub, rtt.Milliseconds())
		t.Destroy(boot[0]) // destroying the link lets the server exit
	})

	// The server answers "greet" operations until its link dies.
	server := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
		t.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{Data: append([]byte("hello, "), req.Data()...)})
		})
	})

	sys.Join(client, server) // boot-time link between the two

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
}
