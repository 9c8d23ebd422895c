// Linkmove: a narrated replay of the paper's figure 1 — "link moving at
// both ends". Processes A and D each move their end of link 3,
// independently and simultaneously, so that what used to connect A to D
// now connects B to C. Run it on each substrate to see three very
// different protocols produce the same language-level behavior.
//
//	go run ./examples/linkmove
//	go run ./examples/linkmove -substrate charlotte -v
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/lynx"
)

func main() {
	subName := flag.String("substrate", "soda", "charlotte|soda|chrysalis|ideal")
	verbose := flag.Bool("v", false, "show the kernel-level protocol trace")
	flag.Parse()
	sub, err := lynx.ParseSubstrate(*subName)
	cli.CheckUsage("linkmove", err)

	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
	if *verbose {
		// Live terminal trace of typed kernel events and the exit
		// annotations.
		sys.Obs().Attach(&obs.TextExporter{W: os.Stdout})
	}
	say := func(who, format string, args ...any) {
		fmt.Printf("%10v  %s: %s\n", sys.Now(), who, fmt.Sprintf(format, args...))
	}
	// spawn is sys.Spawn with each process's exit annotated and counted.
	var annotations int
	spawn := func(name string, main func(*lynx.Thread, []*lynx.End)) *lynx.ProcRef {
		return sys.Spawn(name, func(t *lynx.Thread, boot []*lynx.End) {
			t.Process().OnExit(func() {
				annotations++
				sys.Obs().Emit(obs.Event{Kind: obs.KindMark, Src: "lynx", Detail: name + " exits"})
			})
			main(t, boot)
		})
	}

	// Links at boot: 1 connects A-B, 2 connects D-C, 3 connects A-D.
	a := spawn("A", func(t *lynx.Thread, boot []*lynx.End) {
		toB, l3 := boot[0], boot[1]
		say("A", "enclosing my end of link3 in a message to B")
		if _, err := t.Connect(toB, "take", lynx.Msg{Links: []*lynx.End{l3}}); err != nil {
			log.Fatalf("A: %v", err)
		}
		say("A", "done — I no longer hold link3")
		t.Destroy(toB)
	})
	d := spawn("D", func(t *lynx.Thread, boot []*lynx.End) {
		toC, l3 := boot[0], boot[1]
		say("D", "enclosing my end of link3 in a message to C (simultaneously)")
		if _, err := t.Connect(toC, "take", lynx.Msg{Links: []*lynx.End{l3}}); err != nil {
			log.Fatalf("D: %v", err)
		}
		say("D", "done — I no longer hold link3")
		t.Destroy(toC)
	})
	b := spawn("B", func(t *lynx.Thread, boot []*lynx.End) {
		req, err := t.Receive(boot[0])
		if err != nil {
			log.Fatalf("B: %v", err)
		}
		l3 := req.Links()[0]
		t.Reply(req, lynx.Msg{})
		say("B", "received link3's end from A; calling through the hose...")
		reply, err := t.Connect(l3, "who-is-there", lynx.Msg{})
		if err != nil {
			log.Fatalf("B: call over link3: %v", err)
		}
		say("B", "link3 answered: %q", reply.Data)
		t.Destroy(l3)
	})
	c := spawn("C", func(t *lynx.Thread, boot []*lynx.End) {
		req, err := t.Receive(boot[0])
		if err != nil {
			log.Fatalf("C: %v", err)
		}
		l3 := req.Links()[0]
		t.Reply(req, lynx.Msg{})
		say("C", "received link3's end from D; serving on it")
		r2, err := t.Receive(l3)
		if err != nil {
			log.Fatalf("C: %v", err)
		}
		t.Reply(r2, lynx.Msg{Data: []byte("C here — the hose now runs B<->C")})
	})

	sys.Join(a, b) // link 1
	sys.Join(d, c) // link 2
	sys.Join(a, d) // link 3

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfigure 1 complete on %s at %v of virtual time\n", sub, sys.Now())
	if *verbose {
		fmt.Printf("(%d annotations recorded, %d bytes moved by the kernel)\n",
			annotations, sys.Stats().Bytes())
	}
}
