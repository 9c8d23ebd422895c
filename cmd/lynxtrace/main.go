// Command lynxtrace replays the paper's two figures as annotated
// virtual-time protocol traces:
//
//	lynxtrace -fig 1                # link moving at both ends (figure 1)
//	lynxtrace -fig 2 -enclosures 3  # the enclosure protocol (figure 2)
//	lynxtrace -fig 2 -substrate soda
//	lynxtrace -fig 1 -format jsonl  # machine-readable event stream
//	lynxtrace -fig 1 -format chrome > trace.json   # chrome://tracing
//	lynxtrace -follow JOB -addr localhost:8080     # live lynxd job trace
//
// The trace shows every kernel call and protocol message with its
// virtual timestamp, making the difference between the substrates'
// protocols directly visible. -format selects the renderer: "text"
// interleaves typed kernel events with free-text annotations on
// stdout; "jsonl" emits one JSON event per line; "chrome" emits a
// Chrome trace-event document (load in chrome://tracing or Perfetto).
// In the machine formats only events go to stdout; narration goes to
// stderr.
//
// -follow switches lynxtrace from replaying a built-in figure to
// tailing a running lynxd job's flight-recorder stream
// (GET /jobs/{id}/trace): JSONL lines pass through verbatim ("jsonl",
// the default here) or re-render as a Chrome trace document ("chrome");
// the command exits when the job reaches a terminal state.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/sim"
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
	follow := fs.String("follow", "", "follow a lynxd job's live trace stream by job ID (exits at job completion)")
	addr := fs.String("addr", "localhost:8080", "lynxd address for -follow")
	fs.Parse(args)

	switch *format {
	case "text", "jsonl", "chrome":
	default:
		cli.Usagef("lynxtrace", "unknown format %q (want text, jsonl or chrome)", *format)
	}
	if *encl < 0 {
		cli.Usagef("lynxtrace", "-enclosures must be non-negative, got %d", *encl)
	}

	if *follow != "" {
		followJob(*addr, *follow, *format, stdout, stderr)
		return
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

// followJob tails a lynxd job's flight-recorder stream. The daemon
// holds the connection open until the job reaches a terminal state, so
// a plain GET is the whole protocol. Lines are either recorded events
// or dump envelopes ({"type":"dump",...}); envelopes pass through in
// jsonl mode and narrate to stderr in the rendered modes.
func followJob(addr, id, format string, stdout, stderr io.Writer) {
	// Accept both a bare host:port and a full URL (lynxd announces
	// "listening on http://host:port", which scripts pass through).
	if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
		addr = "http://" + addr
	}
	url := fmt.Sprintf("%s/jobs/%s/trace", strings.TrimRight(addr, "/"), id)
	resp, err := http.Get(url)
	cli.Check("lynxtrace", err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		cli.Usagef("lynxtrace", "GET %s: %s: %s", url, resp.Status, body)
	}

	var render func(line []byte)
	switch format {
	case "text":
		text := &obs.TextExporter{W: stdout}
		render = func(line []byte) { renderLine(line, text.Event, stderr) }
	case "jsonl":
		render = func(line []byte) {
			stdout.Write(line)
			stdout.Write([]byte{'\n'})
		}
	case "chrome":
		ch := obs.NewChromeStream(stdout)
		defer func() { cli.Check("lynxtrace", ch.Close()) }()
		render = func(line []byte) { renderLine(line, ch.Event, stderr) }
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		render(sc.Bytes())
	}
	cli.Check("lynxtrace", sc.Err())
}

// renderLine decodes one stream line and hands recorded events to emit;
// dump envelopes and undecodable lines narrate to stderr instead.
func renderLine(line []byte, emit func(obs.Event), stderr io.Writer) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil || probe.Type != "" {
		fmt.Fprintf(stderr, "%s\n", line)
		return
	}
	var ev obs.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		fmt.Fprintf(stderr, "%s\n", line)
		return
	}
	emit(ev)
}

// attachOutput wires the chosen format into the system's recorder and
// tracer slot. It returns where narration goes and a finish func to
// call after the run (flushes buffered formats).
func attachOutput(sys *lynx.System, format string, stdout, stderr io.Writer) (narrate io.Writer, finish func()) {
	switch format {
	case "jsonl":
		sys.Env().SetTracer(&obs.TraceAdapter{R: sys.Obs()})
		sys.Obs().Attach(&obs.JSONLExporter{W: stdout})
		return stderr, func() {}
	case "chrome":
		sys.Env().SetTracer(&obs.TraceAdapter{R: sys.Obs()})
		ch := obs.NewChromeExporter()
		sys.Obs().Attach(ch)
		return stderr, func() { cli.Check("lynxtrace", ch.Flush(stdout)) }
	}
	// Text: free-text Trace() marks via the classic writer tracer; typed
	// kernel events via the text exporter. Same layout, one stream.
	sys.Env().SetTracer(&sim.WriterTracer{W: stdout})
	sys.Obs().Attach(&obs.TextExporter{W: stdout})
	return stdout, func() {}
}

// figure2 traces one request moving k link ends (and its reply).
func figure2(sub lynx.Substrate, format string, k int, stdout, stderr io.Writer) {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
	narrate, finish := attachOutput(sys, format, stdout, stderr)
	fmt.Fprintf(narrate, "figure 2 on %v: request moving %d link end(s)\n\n", sub, k)
	a := sys.Spawn("A", func(th *lynx.Thread, boot []*lynx.End) {
		var give []*lynx.End
		for i := 0; i < k; i++ {
			_, o, err := th.NewLink()
			if err != nil {
				return
			}
			give = append(give, o)
		}
		sys.Env().Trace("A", ">>> connect with %d enclosures", k)
		if _, err := th.Connect(boot[0], "move", lynx.Msg{Links: give}); err != nil {
			sys.Env().Trace("A", "connect failed: %v", err)
			return
		}
		sys.Env().Trace("A", "<<< reply received")
		th.Destroy(boot[0])
	})
	b := sys.Spawn("B", func(th *lynx.Thread, boot []*lynx.End) {
		th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			sys.Env().Trace("B", "request %q arrived with %d links", req.Op(), len(req.Links()))
			st.Reply(req, lynx.Msg{})
		})
	})
	sys.Join(a, b)
	cli.Check("lynxtrace", sys.Run())
	finish()
	if cs := a.Stats().Charlotte(); cs != nil {
		fmt.Fprintf(narrate, "\nprotocol summary: kernel sends=%d goaheads(B)=%d enc packets=%d\n",
			cs.KernelSends, b.Stats().Charlotte().Goaheads, cs.EncPackets)
	}
}

// figure1 traces both ends of link 3 moving simultaneously.
func figure1(sub lynx.Substrate, format string, stdout, stderr io.Writer) {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
	narrate, finish := attachOutput(sys, format, stdout, stderr)
	fmt.Fprintf(narrate, "figure 1 on %v: link 3 moving at both ends (A->B and D->C)\n\n", sub)
	a := sys.Spawn("A", func(th *lynx.Thread, boot []*lynx.End) {
		sys.Env().Trace("A", "moving link3 end to B")
		th.Connect(boot[0], "take3a", lynx.Msg{Links: []*lynx.End{boot[1]}})
		th.Destroy(boot[0])
	})
	d := sys.Spawn("D", func(th *lynx.Thread, boot []*lynx.End) {
		sys.Env().Trace("D", "moving link3 end to C")
		th.Connect(boot[0], "take3d", lynx.Msg{Links: []*lynx.End{boot[1]}})
		th.Destroy(boot[0])
	})
	b := sys.Spawn("B", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			return
		}
		l3 := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		sys.Env().Trace("B", "got link3 end; calling through it")
		reply, err := th.Connect(l3, "hello", lynx.Msg{Data: []byte("B")})
		if err != nil {
			sys.Env().Trace("B", "call failed: %v", err)
			return
		}
		sys.Env().Trace("B", "reply: %q (link3 now connects B and C)", reply.Data)
		th.Destroy(l3)
	})
	c := sys.Spawn("C", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			return
		}
		l3 := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		sys.Env().Trace("C", "got link3 end; serving on it")
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
