package expt

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/calib"
	"repro/internal/charlotte"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/lynx"
	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// rawCharlotteRTT measures the §3.3 "C programs that make the same
// series of kernel calls" round trip: direct kernel primitives, no LYNX
// run-time package.
func rawCharlotteRTT(seed uint64, payload int) lynx.Duration {
	env := sim.NewEnv(sysSeed(seed, 1))
	net := netsim.NewTokenRing(20)
	k := charlotte.NewKernel(env, net, calib.DefaultCharlotte())
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	ea, eb := k.BootLink(a, b)
	data := make([]byte, payload)
	var rtt lynx.Duration
	env.Spawn("server", func(p *sim.Proc) {
		b.Receive(p, eb, payload+64)
		b.Wait(p)
		b.Send(p, eb, data, charlotte.EndRef{})
		b.Wait(p)
	})
	env.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		a.Receive(p, ea, payload+64)
		a.Send(p, ea, data, charlotte.EndRef{})
		a.Wait(p) // send completion
		a.Wait(p) // reply arrival
		rtt = lynx.Duration(p.Now() - start)
	})
	if err := env.Run(); err != nil {
		panic(err)
	}
	return rtt
}

// E1 regenerates §3.3's Charlotte latency table: simple remote operation
// under LYNX vs the equivalent raw kernel-call sequence, at 0 and 1000
// bytes of parameters in each direction.
//
// Paper: LYNX 57 ms / 65 ms; raw C 55 ms / 60 ms.
func e1(seed uint64) *Result {
	lynx0 := echoRTT(seed, lynx.Charlotte, 0, 1, false)
	lynx1k := echoRTT(seed, lynx.Charlotte, 1000, 1, false)
	raw0 := rawCharlotteRTT(seed, 0)
	raw1k := rawCharlotteRTT(seed, 1000)

	pass := within(lynx0.Milliseconds(), 57, 0.12) &&
		within(lynx1k.Milliseconds(), 65, 0.12) &&
		within(raw0.Milliseconds(), 55, 0.12) &&
		within(raw1k.Milliseconds(), 60, 0.12) &&
		lynx0 > raw0 && lynx1k > raw1k

	return &Result{
		ID:      "E1",
		Title:   "Charlotte simple remote operation latency (§3.3)",
		Columns: []string{"configuration", "paper (ms)", "measured (ms)"},
		Rows: [][]string{
			{"LYNX, no data", "57", ms(lynx0)},
			{"LYNX, 1000B both ways", "65", ms(lynx1k)},
			{"raw kernel calls, no data", "55", ms(raw0)},
			{"raw kernel calls, 1000B both ways", "60", ms(raw1k)},
		},
		Notes: []string{
			"difference LYNX-raw = run-time package overhead (gather/scatter, coroutines, checks)",
		},
		Pass: pass,
	}
}

// E2 regenerates figure 2's link-enclosure protocol: the number of
// kernel messages needed to move k ends in one LYNX request.
//
// Expected: k≤1 needs the plain request+reply pair; k≥2 adds one GOAHEAD
// plus k-1 ENC packets (replies would skip the goahead).
func e2(seed uint64) *Result {
	res := &Result{
		ID:      "E2",
		Title:   "Charlotte link-enclosure protocol (figure 2)",
		Columns: []string{"enclosures", "kernel msgs (measured)", "kernel msgs (protocol)", "goaheads", "enc packets"},
		Pass:    true,
	}
	for _, k := range []int{0, 1, 2, 4, 8} {
		sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Charlotte, Seed: sysSeed(seed, 1)})
		kcount := k
		a := sys.Spawn("a", func(th *lynx.Thread, boot []*lynx.End) {
			var give []*lynx.End
			for i := 0; i < kcount; i++ {
				_, o, err := th.NewLink()
				if err != nil {
					return
				}
				give = append(give, o)
			}
			th.Connect(boot[0], "move", lynx.Msg{Links: give})
			th.Destroy(boot[0])
		})
		b := sys.Spawn("b", func(th *lynx.Thread, boot []*lynx.End) {
			th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{})
			})
		})
		sys.Join(a, b)
		if err := sys.Run(); err != nil {
			panic(err)
		}
		msgs := sys.Stats().Value(obs.MKernelMessages)
		goaheads := b.Stats().Value(obs.MGoaheads)
		encs := a.Stats().Value(obs.MEncPackets)
		// Protocol prediction: request + reply, plus goahead and k-1 enc
		// for k >= 2.
		want := int64(2)
		if kcount >= 2 {
			want = 2 + 1 + int64(kcount-1)
		}
		if msgs != want {
			res.Pass = false
		}
		if kcount >= 2 && (goaheads != 1 || encs != int64(kcount-1)) {
			res.Pass = false
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(kcount), fmt.Sprint(msgs), fmt.Sprint(want),
			fmt.Sprint(goaheads), fmt.Sprint(encs),
		})
	}
	// The comparative half of the figure: on the low-level kernels the
	// kernel traffic for a k-end move is INVARIANT in k — no goaheads,
	// no enc packets, no packetization of any kind. Measured as the
	// difference in kernel activity between k=8 and k=1.
	for _, sub := range []lynx.Substrate{lynx.SODA, lynx.Chrysalis} {
		t1 := kernelTrafficForMove(seed, sub, 1)
		t8 := kernelTrafficForMove(seed, sub, 8)
		extra := t8 - t1
		if extra != 0 {
			res.Pass = false
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("1->8 (%s)", sub), fmt.Sprintf("+%d", extra), "+0", "-", "-",
		})
	}
	res.Notes = append(res.Notes,
		"k>=2 on Charlotte: first packet carries data+1st end; GOAHEAD confirms the request is wanted; k-1 ENC packets follow",
		"the 1->8 rows measure EXTRA kernel traffic for 8 enclosures vs 1 on the low-level kernels: zero",
		"Charlotte's same delta is +8 kernel messages (goahead + 7 enc)")
	return res
}

// kernelTrafficForMove runs one k-enclosure request+reply and returns a
// substrate-appropriate kernel traffic count (accepted transfers on
// SODA; dual-queue enqueues on Chrysalis). Absolute values differ per
// substrate; only the k-dependence matters to E2.
func kernelTrafficForMove(seed uint64, sub lynx.Substrate, k int) int64 {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: sysSeed(seed, 1)})
	snapshot := func() int64 {
		switch sub {
		case lynx.SODA:
			return sys.Stats().Value(obs.MKernelAccepts)
		case lynx.Chrysalis:
			return sys.Stats().Value(obs.MQueueEnqueues)
		default:
			return 0
		}
	}
	var atMoveDone int64
	a := sys.Spawn("a", func(th *lynx.Thread, boot []*lynx.End) {
		var give []*lynx.End
		for i := 0; i < k; i++ {
			_, o, err := th.NewLink()
			if err != nil {
				return
			}
			give = append(give, o)
		}
		th.Connect(boot[0], "move", lynx.Msg{Links: give})
		// Snapshot BEFORE teardown: destroying k links legitimately
		// costs k notices, but that is not the move's traffic.
		atMoveDone = snapshot()
		th.Destroy(boot[0])
	})
	b := sys.Spawn("b", func(th *lynx.Thread, boot []*lynx.End) {
		th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
			st.Reply(req, lynx.Msg{})
		})
	})
	sys.Join(a, b)
	if err := sys.Run(); err != nil {
		panic(fmt.Sprintf("kernelTrafficForMove(%v,%d): %v", sub, k, err))
	}
	return atMoveDone
}

// e3Sizes are the payload points of the §4.3 sweep.
var e3Sizes = []int{0, 128, 256, 512, 1024, 1536, 2048, 3072, 4000}

// e3Grid runs the E3 payload sweep as a substrate × payload
// configuration grid. The body derives its System seeds from the
// experiment's replica seed (the harness replicates one level up), so
// the grid's own seeding is inert and the table is byte-identical to
// the historical hand-rolled double loop.
func e3Grid(seed uint64) *grid.Table {
	sizes := make([]any, len(e3Sizes))
	for i, n := range e3Sizes {
		sizes[i] = n
	}
	return grid.Run(grid.Spec{
		Name: "E3 payload sweep",
		Axes: []grid.Axis{
			{Name: "substrate", Values: []any{lynx.Charlotte, lynx.SODA}},
			{Name: "payload", Values: sizes},
		},
		Body: func(c grid.Cell, r sweep.Run) sweep.Outcome {
			rtt := echoRTT(seed, grid.MustAs[lynx.Substrate](c, "substrate"), grid.MustAs[int](c, "payload"), 1, false)
			return sweep.Outcome{Values: map[string]float64{"rtt_ns": float64(rtt)}}
		},
	})
}

// E3 regenerates §4.3's prediction: SODA ≈3x faster than Charlotte for
// small messages, with break-even between 1 KB and 2 KB (kernel-level
// figures; footnote 2). The measurement grid runs through lynx/grid.
func e3(seed uint64) *Result {
	res := &Result{
		ID:      "E3",
		Title:   "SODA vs Charlotte latency sweep and crossover (§4.3)",
		Columns: []string{"payload (B/dir)", "Charlotte LYNX (ms)", "SODA LYNX (ms)", "winner"},
	}
	tbl := e3Grid(seed)
	var crossover int = -1
	var small3x bool
	prevWinner := ""
	for _, n := range e3Sizes {
		ch := lynx.Duration(tbl.CellAt(lynx.Charlotte, n).Agg.Values["rtt_ns"].Mean)
		so := lynx.Duration(tbl.CellAt(lynx.SODA, n).Agg.Values["rtt_ns"].Mean)
		winner := "SODA"
		if ch < so {
			winner = "Charlotte"
		}
		if n == 0 {
			ratio := float64(ch) / float64(so)
			small3x = ratio > 2.2 && ratio < 3.8
		}
		if prevWinner == "SODA" && winner == "Charlotte" && crossover < 0 {
			crossover = n
		}
		prevWinner = winner
		res.Rows = append(res.Rows, []string{fmt.Sprint(n), ms(ch), ms(so), winner})
	}
	// Paper: break-even between 1K and 2K bytes.
	crossOK := crossover >= 1024 && crossover <= 2048
	res.Pass = small3x && crossOK
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured crossover at ≈%d B/direction (paper: between 1K and 2K)", crossover),
		"small messages: SODA ≈3x faster despite a 10x slower wire (kernel path dominates)",
	)
	return res
}

// E4 regenerates §5.3's Chrysalis measurements: 2.4 ms / 4.6 ms, more
// than an order of magnitude faster than Charlotte.
func e4(seed uint64) *Result {
	c0 := echoRTT(seed, lynx.Chrysalis, 0, 1, false)
	c1k := echoRTT(seed, lynx.Chrysalis, 1000, 1, false)
	ch0 := echoRTT(seed, lynx.Charlotte, 0, 1, false)
	ratio := float64(ch0) / float64(c0)
	pass := within(c0.Milliseconds(), 2.4, 0.15) &&
		within(c1k.Milliseconds(), 4.6, 0.15) &&
		ratio > 10
	return &Result{
		ID:      "E4",
		Title:   "Chrysalis simple remote operation latency (§5.3)",
		Columns: []string{"configuration", "paper (ms)", "measured (ms)"},
		Rows: [][]string{
			{"LYNX, no data", "2.4", ms(c0)},
			{"LYNX, 1000B both ways", "4.6", ms(c1k)},
			{"speedup vs Charlotte", ">10x", fmt.Sprintf("%.1fx", ratio)},
		},
		Pass: pass,
	}
}

// countGo counts non-blank lines across a package directory's .go files
// (excluding tests), a stand-in for the paper's implementation-size
// comparison.
func countGo(dir string) (files, lines int) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" ||
			len(name) > 8 && name[len(name)-8:] == "_test.go" {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if _, err := parser.ParseFile(fset, path, src, parser.PackageClauseOnly); err != nil {
			continue
		}
		files++
		for _, b := range splitLines(src) {
			if len(b) > 0 {
				lines++
			}
		}
	}
	return files, lines
}

func splitLines(src []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range src {
		if c == '\n' {
			line := src[start:i]
			// Trim spaces/tabs for blank detection.
			j := 0
			for j < len(line) && (line[j] == ' ' || line[j] == '\t' || line[j] == '\r') {
				j++
			}
			out = append(out, line[j:])
			start = i + 1
		}
	}
	return out
}

// E5 regenerates the code-size comparison: the Charlotte run-time
// package was 4000 lines of C + 200 asm (≈21KB object, ~45% devoted to
// communication, ~5KB of it to unwanted messages and multiple
// enclosures); the Chrysalis one 3600+200 (15-16KB); SODA was predicted
// to save ≈4KB of special cases. We report our bindings' sizes and
// special-case inventories: the paper's *shape* is Charlotte ≫ others,
// with the excess concentrated in bounce/packetization code.
func e5() *Result {
	root := repoRoot()
	_, chLines := countGo(filepath.Join(root, "internal/bind/charlotte"))
	_, soLines := countGo(filepath.Join(root, "internal/bind/soda"))
	_, chrLines := countGo(filepath.Join(root, "internal/bind/chrysalis"))
	_, coreLines := countGo(filepath.Join(root, "internal/core"))

	// Protocol special-case inventory (by construction of the bindings).
	chKinds := 6  // data, enc, goahead, retry, forbid, allow
	soKinds := 2  // data put, status signal (plus recovery verbs)
	chrKinds := 1 // notices only; flags carry the rest

	res := &Result{
		ID:    "E5",
		Title: "Run-time package size and special-case inventory (§3.3/§4.3/§5.3)",
		Columns: []string{"implementation", "paper (lines)", "binding LoC (ours)",
			"protocol msg kinds", "bounce machinery"},
		Rows: [][]string{
			{"Charlotte", "4000 C + 200 asm", fmt.Sprint(chLines), fmt.Sprint(chKinds), "retry/forbid/allow/goahead/enc"},
			{"SODA", "(predicted −4KB)", fmt.Sprint(soLines), fmt.Sprint(soKinds), "none (screening in handler)"},
			{"Chrysalis", "3600 C + 200 asm", fmt.Sprint(chrLines), fmt.Sprint(chrKinds), "none (flags are ground truth)"},
			{"shared core (all three)", "-", fmt.Sprint(coreLines), "-", "-"},
		},
		Notes: []string{
			"SODA's extra LoC versus Chrysalis is not message bouncing, and only part of it is hint recovery (discover + freeze): the rest of the SODA binding is larger than Chrysalis's too",
			"paper shape: the Charlotte package is the largest, and its excess is the unwanted-message/enclosure code",
		},
	}
	res.Pass = chLines > chrLines && chKinds > soKinds && chKinds > chrKinds
	return res
}

// repoRoot is the module root, located from this file's compiled
// source path, so E5 counts the same tree from any working directory.
// A -trimpath build records no such path, and E5 then counts nothing
// and fails its shape check.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	return filepath.Join(filepath.Dir(file), "..", "..")
}
