// Command lynxtrace replays the paper's two figures as annotated
// virtual-time protocol traces:
//
//	lynxtrace -fig 1                # link moving at both ends (figure 1)
//	lynxtrace -fig 2 -enclosures 3  # the enclosure protocol (figure 2)
//	lynxtrace -fig 2 -substrate soda
//	lynxtrace -fig 1 -format jsonl  # machine-readable event stream
//	lynxtrace -fig 1 -format chrome > trace.json   # chrome://tracing
//
// The trace shows every kernel call and protocol message with its
// virtual timestamp, making the difference between the substrates'
// protocols directly visible. -format selects the renderer: "text"
// interleaves typed kernel events with free-text annotations on
// stdout; "jsonl" emits one JSON event per line; "chrome" emits a
// Chrome trace-event document (load in chrome://tracing or Perfetto).
// In the machine formats only events go to stdout; narration goes to
// stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/lynx"
)

func main() { run(os.Args[1:], os.Stdout, os.Stderr) }

// run is the command: the trace goes to stdout, and human-facing
// headers and summaries go to stdout for -format=text and to stderr
// for the machine formats.
func run(args []string, stdout, stderr io.Writer) {
	fs := flag.NewFlagSet("lynxtrace", flag.ExitOnError)
	fig := fs.Int("fig", 2, "figure to replay (1 or 2)")
	encl := fs.Int("enclosures", 3, "enclosures to move (figure 2)")
	subName := fs.String("substrate", "charlotte", "charlotte|soda|chrysalis|ideal")
	format := fs.String("format", "text", "trace output format: text|jsonl|chrome")
	fs.Parse(args)

	switch *format {
	case "text", "jsonl", "chrome":
	default:
		cli.Usagef("lynxtrace", "unknown format %q (want text, jsonl or chrome)", *format)
	}
	if *encl < 0 {
		cli.Usagef("lynxtrace", "-enclosures must be non-negative, got %d", *encl)
	}

	sub, err := lynx.ParseSubstrate(*subName)
	cli.CheckUsage("lynxtrace", err)

	switch *fig {
	case 1:
		figure1(sub, *format, stdout, stderr)
	case 2:
		figure2(sub, *format, *encl, stdout, stderr)
	default:
		cli.Usagef("lynxtrace", "unknown figure %d", *fig)
	}
}

// attachOutput attaches the chosen format's exporter to the system's
// recorder. It returns where narration goes and a finish func to call
// after the run (closes the Chrome document).
func attachOutput(sys *lynx.System, format string, stdout, stderr io.Writer) (narrate io.Writer, finish func()) {
	switch format {
	case "jsonl":
		sys.Obs().Attach(&obs.JSONLExporter{W: stdout})
		return stderr, func() {}
	case "chrome":
		ch := obs.NewChromeStream(stdout)
		sys.Obs().Attach(ch)
		return stderr, func() { cli.Check("lynxtrace", ch.Close()) }
	}
	sys.Obs().Attach(&obs.TextExporter{W: stdout})
	return stdout, func() {}
}

// mark narrates one trace line as a mark event from src.
func mark(sys *lynx.System, src, format string, args ...any) {
	sys.Obs().Emit(obs.Event{Kind: obs.KindMark, Src: src, Detail: fmt.Sprintf(format, args...)})
}

// spawn is sys.Spawn with the process's exit narrated.
func spawn(sys *lynx.System, name string, main func(*lynx.Thread, []*lynx.End)) *lynx.ProcRef {
	return sys.Spawn(name, func(th *lynx.Thread, boot []*lynx.End) {
		th.Process().OnExit(func() { mark(sys, "lynx", "%s exits", name) })
		main(th, boot)
	})
}

// figure2 traces one request moving k link ends (and its reply).
func figure2(sub lynx.Substrate, format string, k int, stdout, stderr io.Writer) {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
	narrate, finish := attachOutput(sys, format, stdout, stderr)
	fmt.Fprintf(narrate, "figure 2 on %v: request moving %d link end(s)\n\n", sub, k)
	a := spawn(sys, "A", func(th *lynx.Thread, boot []*lynx.End) {
		var give []*lynx.End
		for i := 0; i < k; i++ {
			_, o, err := th.NewLink()
			if err != nil {
				return
			}
			give = append(give, o)
		}
		mark(sys, "A", ">>> connect with %d enclosures", k)
		if _, err := th.Connect(boot[0], "move", lynx.Msg{Links: give}); err != nil {
			mark(sys, "A", "connect failed: %v", err)
			return
		}
		mark(sys, "A", "<<< reply received")
		th.Destroy(boot[0])
	})
	b := spawn(sys, "B", func(th *lynx.Thread, boot []*lynx.End) {
		th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			mark(sys, "B", "request %q arrived with %d links", req.Op(), len(req.Links()))
			st.Reply(req, lynx.Msg{})
		})
	})
	sys.Join(a, b)
	cli.Check("lynxtrace", sys.Run())
	finish()
	if sub == lynx.Charlotte {
		as := a.Stats()
		fmt.Fprintf(narrate, "\nprotocol summary: kernel sends=%d goaheads(B)=%d enc packets=%d\n",
			as.Value(obs.MBindKernelSends), b.Stats().Value(obs.MGoaheads), as.Value(obs.MEncPackets))
	}
}

// figure1 traces both ends of link 3 moving simultaneously.
func figure1(sub lynx.Substrate, format string, stdout, stderr io.Writer) {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
	narrate, finish := attachOutput(sys, format, stdout, stderr)
	fmt.Fprintf(narrate, "figure 1 on %v: link 3 moving at both ends (A->B and D->C)\n\n", sub)
	a := spawn(sys, "A", func(th *lynx.Thread, boot []*lynx.End) {
		mark(sys, "A", "moving link3 end to B")
		th.Connect(boot[0], "take3a", lynx.Msg{Links: []*lynx.End{boot[1]}})
		th.Destroy(boot[0])
	})
	d := spawn(sys, "D", func(th *lynx.Thread, boot []*lynx.End) {
		mark(sys, "D", "moving link3 end to C")
		th.Connect(boot[0], "take3d", lynx.Msg{Links: []*lynx.End{boot[1]}})
		th.Destroy(boot[0])
	})
	b := spawn(sys, "B", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			return
		}
		l3 := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		mark(sys, "B", "got link3 end; calling through it")
		reply, err := th.Connect(l3, "hello", lynx.Msg{Data: []byte("B")})
		if err != nil {
			mark(sys, "B", "call failed: %v", err)
			return
		}
		mark(sys, "B", "reply: %q (link3 now connects B and C)", reply.Data)
		th.Destroy(l3)
	})
	c := spawn(sys, "C", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			return
		}
		l3 := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		mark(sys, "C", "got link3 end; serving on it")
		r2, err := th.Receive(l3)
		if err != nil {
			return
		}
		th.Reply(r2, lynx.Msg{Data: append(r2.Data(), []byte("-seen-by-C")...)})
	})
	sys.Join(a, b)
	sys.Join(d, c)
	sys.Join(a, d)
	cli.Check("lynxtrace", sys.Run())
	finish()
}
