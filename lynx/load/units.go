package load

import (
	"fmt"

	"repro/lynx"
)

// The three work-unit shapes. Each exists in two forms: a closed-loop
// Spawn+Join build (one short System per unit, the wall-clock bench
// workload) and an open-loop LaunchGroup spec (many units launched
// mid-run inside ONE simulated System, the virtual-time engine's
// workload). Both forms move the same operations over the same
// payloads, so the two modes stress the kernels with the same traffic.

// Build assembles one closed-loop work unit of the given kind into sys
// (Spawn+Join form, before Run). Unknown kinds are an error.
func Build(sys *lynx.System, kind string) error {
	switch kind {
	case "echo":
		buildEcho(sys)
	case "pipeline":
		buildPipeline(sys)
	case "mesh":
		buildMesh(sys)
	default:
		return fmt.Errorf("load: unknown workload kind %q", kind)
	}
	return nil
}

// buildEcho: one client hammering one server with 4 echo RPCs of 64 B.
func buildEcho(sys *lynx.System) {
	data := make([]byte, 64)
	cl := sys.Spawn("client", func(t *lynx.Thread, boot []*lynx.End) {
		echoClientOps(t, boot[0], data)
	})
	sv := sys.Spawn("server", func(t *lynx.Thread, boot []*lynx.End) {
		serveEcho(t, boot[0])
	})
	sys.Join(cl, sv)
}

// buildPipeline: source → relay → sink; each of 3 ops traverses both
// hops (the relay's handler makes a nested remote call).
func buildPipeline(sys *lynx.System) {
	data := make([]byte, 128)
	src := sys.Spawn("source", func(t *lynx.Thread, boot []*lynx.End) {
		pipelineSourceOps(t, boot[0], data)
	})
	relay := sys.Spawn("relay", func(t *lynx.Thread, boot []*lynx.End) {
		serveRelay(t, boot[0], boot[1])
	})
	sink := sys.Spawn("sink", func(t *lynx.Thread, boot []*lynx.End) {
		serveEcho(t, boot[0])
	})
	sys.Join(src, relay)
	sys.Join(relay, sink)
}

// buildMesh: 4 peers on a ring, each serving its ends and echoing 2
// ops to its clockwise neighbor.
func buildMesh(sys *lynx.System) {
	const peers = 4
	data := make([]byte, 32)
	refs := make([]*lynx.ProcRef, peers)
	for i := 0; i < peers; i++ {
		refs[i] = sys.Spawn(fmt.Sprint("peer", i), func(t *lynx.Thread, boot []*lynx.End) {
			meshPeerOps(t, boot, data)
		})
	}
	for i := 0; i < peers; i++ {
		sys.Join(refs[i], refs[(i+1)%peers])
	}
}

// echoClientOps is the echo unit's client body: 4 RPCs then teardown.
// Teardown is unconditional — an op failing mid-unit (a link-death race
// under overload) must not leak a live link, or the peer process never
// exits and the drain never finishes.
func echoClientOps(t *lynx.Thread, server *lynx.End, data []byte) {
	for i := 0; i < 4; i++ {
		if _, err := t.Connect(server, "echo", lynx.Msg{Data: data}); err != nil {
			break
		}
	}
	if !server.Dead() {
		t.Destroy(server)
	}
}

// serveEcho registers the reply-what-you-got handler.
func serveEcho(t *lynx.Thread, e *lynx.End) {
	t.Serve(e, func(st *lynx.Thread, req *lynx.Request) {
		st.Reply(req, lynx.Msg{Data: req.Data()})
	})
}

// pipelineSourceOps is the pipeline unit's source body: 3 forwarded ops
// then teardown (unconditional, as in echoClientOps).
func pipelineSourceOps(t *lynx.Thread, relay *lynx.End, data []byte) {
	for i := 0; i < 3; i++ {
		if _, err := t.Connect(relay, "fwd", lynx.Msg{Data: data}); err != nil {
			break
		}
	}
	if !relay.Dead() {
		t.Destroy(relay)
	}
}

// serveRelay forwards each request over the downstream link.
func serveRelay(t *lynx.Thread, up, down *lynx.End) {
	t.Serve(up, func(st *lynx.Thread, req *lynx.Request) {
		reply, err := st.Connect(down, "fwd", lynx.Msg{Data: req.Data()})
		if err != nil {
			st.Reply(req, lynx.Msg{})
			return
		}
		st.Reply(req, lynx.Msg{Data: reply.Data})
	})
}

// meshPeerOps is the mesh unit's peer body over its ring ends.
func meshPeerOps(t *lynx.Thread, ring []*lynx.End, data []byte) {
	for _, e := range ring {
		serveEcho(t, e)
	}
	for op := 0; op < 2; op++ {
		e := ring[op%len(ring)]
		if e.Dead() {
			continue
		}
		if _, err := t.Connect(e, "echo", lynx.Msg{Data: data}); err != nil {
			break
		}
	}
	t.Sleep(10 * lynx.Millisecond)
	for _, e := range ring {
		if !e.Dead() {
			t.Destroy(e)
		}
	}
}

// reportDone signals unit completion to the generator over the
// launcher link and tears it down.
func reportDone(t *lynx.Thread, gen *lynx.End) {
	if _, err := t.Connect(gen, "done", lynx.Msg{}); err == nil {
		t.Destroy(gen)
	}
}

// unitSpecs returns the LaunchGroup form of a work unit: process specs
// (index 0 is the head, which receives the launcher link as boot[0] and
// reports completion on it) and the sibling wires. The unit's traffic
// is identical to the closed-loop Build form.
func unitSpecs(kind string, seq int) (specs []lynx.ProcSpec, wires [][2]int) {
	tag := func(role string) string { return fmt.Sprintf("u%d.%s", seq, role) }
	switch kind {
	case "echo":
		data := make([]byte, 64)
		return []lynx.ProcSpec{
			{Name: tag("client"), Main: func(t *lynx.Thread, boot []*lynx.End) {
				echoClientOps(t, boot[1], data)
				reportDone(t, boot[0])
			}},
			{Name: tag("server"), Main: func(t *lynx.Thread, boot []*lynx.End) {
				serveEcho(t, boot[0])
			}},
		}, [][2]int{{0, 1}}
	case "pipeline":
		data := make([]byte, 128)
		return []lynx.ProcSpec{
			{Name: tag("source"), Main: func(t *lynx.Thread, boot []*lynx.End) {
				pipelineSourceOps(t, boot[1], data)
				reportDone(t, boot[0])
			}},
			{Name: tag("relay"), Main: func(t *lynx.Thread, boot []*lynx.End) {
				serveRelay(t, boot[0], boot[1])
			}},
			{Name: tag("sink"), Main: func(t *lynx.Thread, boot []*lynx.End) {
				serveEcho(t, boot[0])
			}},
		}, [][2]int{{0, 1}, {1, 2}}
	case "mesh":
		const peers = 4
		data := make([]byte, 32)
		specs = make([]lynx.ProcSpec, peers)
		for i := 0; i < peers; i++ {
			head := i == 0
			specs[i] = lynx.ProcSpec{Name: tag(fmt.Sprint("peer", i)), Main: func(t *lynx.Thread, boot []*lynx.End) {
				ring := boot
				var gen *lynx.End
				if head {
					gen, ring = boot[0], boot[1:]
				}
				meshPeerOps(t, ring, data)
				if head {
					reportDone(t, gen)
				}
			}}
		}
		return specs, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	}
	return nil, nil
}
