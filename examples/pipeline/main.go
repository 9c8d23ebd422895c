// Pipeline: a multi-stage computation assembled at run time by passing
// link ends — the "loosely-coupled style of programming encouraged by a
// distributed operating system" (§2). A coordinator creates every
// inter-stage link and moves the ends into place over per-stage control
// links; data then flows coordinator -> upper -> reverse -> decorate ->
// coordinator with an RPC per hop.
//
//	go run ./examples/pipeline
//	go run ./examples/pipeline -substrate charlotte -items 5
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/cli"
	"repro/lynx"
)

func main() {
	subName := flag.String("substrate", "chrysalis", "charlotte|soda|chrysalis|ideal")
	items := flag.Int("items", 4, "work items to push through (max 6)")
	flag.Parse()
	sub, err := lynx.ParseSubstrate(*subName)
	cli.CheckUsage("pipeline", err)

	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})

	// Every stage is identical: over its control link it is told where
	// to send output ("wire", enclosing the downstream end) and where to
	// take input ("serve", enclosing the upstream end). It then serves
	// jobs: transform, forward downstream, reply upstream.
	stage := func(name string, transform func([]byte) []byte) *lynx.ProcRef {
		return sys.Spawn(name, func(t *lynx.Thread, boot []*lynx.End) {
			ctl := boot[0]
			var down, up *lynx.End
			for down == nil || up == nil {
				req, err := t.Receive(ctl)
				if err != nil {
					return
				}
				switch req.Op() {
				case "wire":
					down = req.Links()[0]
				case "serve":
					up = req.Links()[0]
				}
				t.Reply(req, lynx.Msg{})
			}
			t.Serve(up, func(st *lynx.Thread, job *lynx.Request) {
				out := transform(job.Data())
				if _, err := st.Connect(down, "work", lynx.Msg{Data: out}); err != nil {
					return
				}
				st.Reply(job, lynx.Msg{})
			})
		})
	}

	s1 := stage("upper", func(b []byte) []byte { return []byte(strings.ToUpper(string(b))) })
	s2 := stage("reverse", func(b []byte) []byte {
		out := make([]byte, len(b))
		for i, c := range b {
			out[len(b)-1-i] = c
		}
		return out
	})
	s3 := stage("decorate", func(b []byte) []byte { return []byte("<" + string(b) + ">") })

	var results []string
	coord := sys.Spawn("coordinator", func(t *lynx.Thread, boot []*lynx.End) {
		ctl := boot // one control link per stage
		mk := func() (*lynx.End, *lynx.End) {
			a, b, err := t.NewLink()
			if err != nil {
				log.Fatalf("NewLink: %v", err)
			}
			return a, b
		}
		inA, inB := mk()   // coordinator -> s1
		l12a, l12b := mk() // s1 -> s2
		l23a, l23b := mk() // s2 -> s3
		outA, outB := mk() // s3 -> coordinator
		wire := func(i int, op string, end *lynx.End) {
			if _, err := t.Connect(ctl[i], op, lynx.Msg{Links: []*lynx.End{end}}); err != nil {
				log.Fatalf("%s stage %d: %v", op, i, err)
			}
		}
		wire(0, "wire", l12a)  // s1 sends to s2
		wire(1, "wire", l23a)  // s2 sends to s3
		wire(2, "wire", outA)  // s3 sends back to us
		wire(0, "serve", inB)  // s1 takes input from us
		wire(1, "serve", l12b) // s2 takes input from s1
		wire(2, "serve", l23b) // s3 takes input from s2

		// Sink: collect finished items.
		done := 0
		t.Serve(outB, func(st *lynx.Thread, fin *lynx.Request) {
			results = append(results, string(fin.Data()))
			st.Reply(fin, lynx.Msg{})
			done++
		})

		words := []string{"butterfly", "charlotte", "crystal", "chrysalis", "lynx", "soda"}
		n := *items
		if n > len(words) {
			n = len(words)
		}
		for i := 0; i < n; i++ {
			if _, err := t.Connect(inA, "work", lynx.Msg{Data: []byte(words[i])}); err != nil {
				log.Fatalf("push %d: %v", i, err)
			}
		}
		for done < n {
			t.Sleep(10 * lynx.Millisecond)
		}
		// Tear the pipeline down: destroying the links lets every stage
		// exit.
		for _, e := range []*lynx.End{inA, outB, ctl[0], ctl[1], ctl[2]} {
			t.Destroy(e)
		}
	})

	sys.Join(coord, s1)
	sys.Join(coord, s2)
	sys.Join(coord, s3)

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Println(r)
	}
	fmt.Printf("%d items through 3 stages on %s in %v of virtual time\n",
		len(results), sub, sys.Now())
}
