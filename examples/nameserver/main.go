// Nameserver: the paper's motivating scenario of "interaction not only
// between the pieces of a multi-process application, but also between
// separate applications and between user programs and long-lived system
// servers" (§2).
//
// A broker process holds a registry of service names. Servers register
// by creating a fresh link and moving one end to the broker; clients ask
// the broker for a service and receive a private link end to that
// server, moved to them inside the reply. All connections are therefore
// built at run time out of link motion — no process but the broker is
// wired to anything at boot.
//
//	go run ./examples/nameserver
//	go run ./examples/nameserver -substrate soda
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cli"
	"repro/lynx"
)

func main() {
	subName := flag.String("substrate", "chrysalis", "charlotte|soda|chrysalis|ideal")
	flag.Parse()
	sub, err := lynx.ParseSubstrate(*subName)
	cli.CheckUsage("nameserver", err)

	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})

	// The broker: a long-lived system server. Each boot link connects it
	// to one process; services register and are looked up over them.
	registry := map[string]*lynx.End{} // service name -> link end held in escrow
	broker := sys.Spawn("broker", func(t *lynx.Thread, boot []*lynx.End) {
		for _, e := range boot {
			t.Serve(e, func(st *lynx.Thread, req *lynx.Request) {
				switch req.Op() {
				case "register":
					// The request encloses the service's fresh link end;
					// hold it until someone asks.
					registry[string(req.Data())] = req.Links()[0]
					fmt.Printf("broker: registered %q\n", req.Data())
					st.Reply(req, lynx.Msg{})
				case "lookup":
					end, ok := registry[string(req.Data())]
					if !ok {
						st.Reply(req, lynx.Msg{Data: []byte("unknown")})
						return
					}
					delete(registry, string(req.Data()))
					fmt.Printf("broker: handing %q to a client\n", req.Data())
					// Move the escrowed end to the client in the reply.
					st.Reply(req, lynx.Msg{Data: []byte("ok"), Links: []*lynx.End{end}})
				}
			})
		}
	})

	// A math service: registers itself, then serves on the private link.
	mathServer := sys.Spawn("math-server", func(t *lynx.Thread, boot []*lynx.End) {
		mine, theirs, err := t.NewLink()
		if err != nil {
			log.Fatalf("math: %v", err)
		}
		if _, err := t.Connect(boot[0], "register",
			lynx.Msg{Data: []byte("math"), Links: []*lynx.End{theirs}}); err != nil {
			log.Fatalf("math register: %v", err)
		}
		t.Serve(mine, func(st *lynx.Thread, req *lynx.Request) {
			if req.Op() == "square" {
				n := int(req.Data()[0])
				st.Reply(req, lynx.Msg{Data: []byte{byte(n * n)}})
				return
			}
			st.Reply(req, lynx.Msg{})
		})
		t.Destroy(boot[0]) // done with the broker
	})

	// A client from a "separate application": it knows only the broker.
	client := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
		t.Sleep(200 * lynx.Millisecond) // let the service register first
		reply, err := t.Connect(boot[0], "lookup", lynx.Msg{Data: []byte("math")})
		if err != nil || string(reply.Data) != "ok" {
			log.Fatalf("lookup failed: %v %q", err, reply.Data)
		}
		svc := reply.Links[0] // the private link end, moved to us
		ans, err := t.Connect(svc, "square", lynx.Msg{Data: []byte{12}})
		if err != nil {
			log.Fatalf("square: %v", err)
		}
		fmt.Printf("client: square(12) = %d (via a link that moved broker->client)\n", ans.Data[0])
		t.Destroy(svc) // lets the math server exit
		t.Destroy(boot[0])
	})

	sys.Join(broker, mathServer)
	sys.Join(broker, client)

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done at %v of virtual time on %s\n", sys.Now(), sub)
}
