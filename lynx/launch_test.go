package lynx_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/lynx"
)

// TestLaunchDynamicProcess exercises §2's "compiled and loaded at
// disparate times": a running process launches new worker processes
// mid-run and talks to them over fresh boot links.
func TestLaunchDynamicProcess(t *testing.T) {
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})
		var results []string
		boss := sys.Spawn("boss", func(th *lynx.Thread, boot []*lynx.End) {
			for i := 0; i < 3; i++ {
				name := fmt.Sprint("worker", i)
				link, ref := sys.Launch(th, name, func(wt *lynx.Thread, wboot []*lynx.End) {
					wt.Serve(wboot[0], func(st *lynx.Thread, req *lynx.Request) {
						st.Reply(req, lynx.Msg{Data: append(req.Data(), '!')})
					})
				})
				if ref.Name() != name {
					t.Errorf("child name %q", ref.Name())
				}
				reply, err := th.Connect(link, "work", lynx.Msg{Data: []byte(name)})
				if err != nil {
					t.Errorf("call %s: %v", name, err)
					continue
				}
				results = append(results, string(reply.Data))
				th.Destroy(link)
			}
		})
		_ = boss
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(results) != "[worker0! worker1! worker2!]" {
			t.Fatalf("results %v", results)
		}
	})
}

// TestLaunchedProcessCanLaunch: children can themselves play loader
// (recursively-built process trees).
func TestLaunchedProcessCanLaunch(t *testing.T) {
	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.Chrysalis, Seed: 2})
	var deepest string
	root := sys.Spawn("root", func(th *lynx.Thread, boot []*lynx.End) {
		link, _ := sys.Launch(th, "mid", func(mt *lynx.Thread, mboot []*lynx.End) {
			leafLink, _ := sys.Launch(mt, "leaf", func(lt *lynx.Thread, lboot []*lynx.End) {
				lt.Serve(lboot[0], func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{Data: []byte("leaf-reply")})
				})
			})
			mt.Serve(mboot[0], func(st *lynx.Thread, req *lynx.Request) {
				r, err := st.Connect(leafLink, "down", lynx.Msg{})
				if err != nil {
					st.Reply(req, lynx.Msg{Data: []byte("error")})
					return
				}
				st.Reply(req, lynx.Msg{Data: r.Data})
			})
		})
		r, err := th.Connect(link, "ping", lynx.Msg{})
		if err != nil {
			t.Errorf("root call: %v", err)
			return
		}
		deepest = string(r.Data)
		th.Destroy(link)
	})
	_ = root
	if err := sys.RunFor(60 * lynx.Second); err != nil {
		t.Fatal(err)
	}
	if deepest != "leaf-reply" {
		t.Fatalf("deepest = %q", deepest)
	}
}

// TestLaunchGroupWiresSiblings: one LaunchGroup call assembles a
// three-process pipeline mid-run — head wired to a relay, relay wired
// to a sink — and the head reports completion on the launcher link.
// Exercised on every substrate: this is the dynamic-composition surface
// the virtual-time load engine builds its work units with.
func TestLaunchGroupWiresSiblings(t *testing.T) {
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 11})
		var got string
		boss := sys.Spawn("boss", func(th *lynx.Thread, boot []*lynx.End) {
			specs := []lynx.ProcSpec{
				{Name: "head", Main: func(ht *lynx.Thread, hboot []*lynx.End) {
					// hboot[0] = launcher link, hboot[1] = relay link.
					r, err := ht.Connect(hboot[1], "fwd", lynx.Msg{Data: []byte("ping")})
					ht.Destroy(hboot[1])
					msg := "error"
					if err == nil {
						msg = string(r.Data)
					}
					if _, err := ht.Connect(hboot[0], "done", lynx.Msg{Data: []byte(msg)}); err != nil {
						t.Errorf("done: %v", err)
					}
					ht.Destroy(hboot[0])
				}},
				{Name: "relay", Main: func(rt *lynx.Thread, rboot []*lynx.End) {
					// rboot[0] = head link, rboot[1] = sink link.
					rt.Serve(rboot[0], func(st *lynx.Thread, req *lynx.Request) {
						r, err := st.Connect(rboot[1], "fwd", lynx.Msg{Data: req.Data()})
						if err != nil {
							st.Reply(req, lynx.Msg{Data: []byte("relay-error")})
							return
						}
						st.Reply(req, lynx.Msg{Data: r.Data})
					})
				}},
				{Name: "sink", Main: func(kt *lynx.Thread, kboot []*lynx.End) {
					kt.Serve(kboot[0], func(st *lynx.Thread, req *lynx.Request) {
						st.Reply(req, lynx.Msg{Data: append(req.Data(), []byte("-pong")...)})
					})
				}},
			}
			head, refs := sys.LaunchGroup(th, specs, [][2]int{{0, 1}, {1, 2}})
			if len(refs) != 3 || refs[1].Name() != "relay" {
				t.Errorf("refs: %v", refs)
			}
			req, err := th.Receive(head)
			if err != nil {
				t.Errorf("receive done: %v", err)
				return
			}
			got = string(req.Data())
			th.Reply(req, lynx.Msg{})
		})
		_ = boss
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if got != "ping-pong" {
			t.Fatalf("got %q", got)
		}
	})
}

// TestLaunchUnderPartition pins the home-shard placement contract on
// every substrate: a two-component topology partitions, each
// component's boss then launches workers mid-run (one via Launch, one
// via LaunchGroup) while the other shard is executing, and the JSONL
// trace stays byte-identical at SimWorkers 1, 2, and 4 — the launched
// processes, their kernel ids, node placements, and boot links all
// allocate from the launcher's group, so the worker count never shows.
func TestLaunchUnderPartition(t *testing.T) {
	allSubstrates(t, func(t *testing.T, sub lynx.Substrate) {
		trace := func(workers int) []byte {
			sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 5, SimWorkers: workers})
			var buf bytes.Buffer
			sys.Obs().Attach(&obs.JSONLExporter{W: &buf})

			// Component 0: boss launches two workers one at a time.
			boss0 := sys.Spawn("boss-0", func(th *lynx.Thread, boot []*lynx.End) {
				for i := 0; i < 2; i++ {
					link, _ := sys.Launch(th, fmt.Sprint("w0-", i), func(wt *lynx.Thread, wboot []*lynx.End) {
						wt.Serve(wboot[0], func(st *lynx.Thread, req *lynx.Request) {
							st.Reply(req, lynx.Msg{Data: append(req.Data(), '!')})
						})
					})
					reply, err := th.Connect(link, "work", lynx.Msg{Data: []byte{byte(i)}})
					if err != nil {
						t.Errorf("boss-0 call %d: %v", i, err)
					} else if len(reply.Data) != 2 {
						t.Errorf("boss-0 reply %d: %v", i, reply.Data)
					}
					th.Destroy(link)
				}
				th.Destroy(boot[0])
			})
			peer0 := sys.Spawn("peer-0", func(th *lynx.Thread, boot []*lynx.End) {
				th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{})
				})
			})
			sys.Join(boss0, peer0)

			// Component 1: boss assembles a head+sink pair with LaunchGroup.
			boss1 := sys.Spawn("boss-1", func(th *lynx.Thread, boot []*lynx.End) {
				specs := []lynx.ProcSpec{
					{Name: "head", Main: func(ht *lynx.Thread, hboot []*lynx.End) {
						r, err := ht.Connect(hboot[1], "fwd", lynx.Msg{Data: []byte("ping")})
						ht.Destroy(hboot[1])
						msg := "error"
						if err == nil {
							msg = string(r.Data)
						}
						if _, err := ht.Connect(hboot[0], "done", lynx.Msg{Data: []byte(msg)}); err != nil {
							t.Errorf("done: %v", err)
						}
						ht.Destroy(hboot[0])
					}},
					{Name: "sink", Main: func(kt *lynx.Thread, kboot []*lynx.End) {
						kt.Serve(kboot[0], func(st *lynx.Thread, req *lynx.Request) {
							st.Reply(req, lynx.Msg{Data: append(req.Data(), []byte("-pong")...)})
						})
					}},
				}
				head, _ := sys.LaunchGroup(th, specs, [][2]int{{0, 1}})
				req, err := th.Receive(head)
				if err != nil {
					t.Errorf("receive done: %v", err)
					return
				}
				if got := string(req.Data()); got != "ping-pong" {
					t.Errorf("group result %q", got)
				}
				th.Reply(req, lynx.Msg{})
				th.Destroy(boot[0])
			})
			peer1 := sys.Spawn("peer-1", func(th *lynx.Thread, boot []*lynx.End) {
				th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
					st.Reply(req, lynx.Msg{})
				})
			})
			sys.Join(boss1, peer1)

			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if !sys.Partitioned() {
				t.Fatalf("Partitioned() = false at SimWorkers=%d, want true", workers)
			}
			return buf.Bytes()
		}
		base := trace(1)
		if len(base) == 0 {
			t.Fatal("no events emitted")
		}
		for _, workers := range []int{2, 4} {
			if got := trace(workers); !bytes.Equal(got, base) {
				t.Errorf("launch trace differs at SimWorkers=%d: got %d bytes, want %d",
					workers, len(got), len(base))
			}
		}
	})
}

// TestLaunchMovesChildLinkOnward: the launcher hands the child's link to
// a third process (broker pattern with dynamically-created services).
func TestLaunchMovesChildLinkOnward(t *testing.T) {
	sys := lynx.NewSystem(lynx.Config{Substrate: lynx.SODA, Seed: 3})
	var got string
	consumer := sys.Spawn("consumer", func(th *lynx.Thread, boot []*lynx.End) {
		req, err := th.Receive(boot[0])
		if err != nil {
			t.Errorf("receive: %v", err)
			return
		}
		svc := req.Links()[0]
		th.Reply(req, lynx.Msg{})
		r, err := th.Connect(svc, "use", lynx.Msg{})
		if err != nil {
			t.Errorf("use: %v", err)
			return
		}
		got = string(r.Data)
		th.Destroy(svc)
		th.Destroy(boot[0])
	})
	launcher := sys.Spawn("launcher", func(th *lynx.Thread, boot []*lynx.End) {
		link, _ := sys.Launch(th, "service", func(st0 *lynx.Thread, sboot []*lynx.End) {
			st0.Serve(sboot[0], func(st *lynx.Thread, req *lynx.Request) {
				st.Reply(req, lynx.Msg{Data: []byte("dynamic-service")})
			})
		})
		// Move the freshly-launched service's link to the consumer.
		if _, err := th.Connect(boot[0], "take", lynx.Msg{Links: []*lynx.End{link}}); err != nil {
			t.Errorf("move: %v", err)
		}
	})
	sys.Join(launcher, consumer)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "dynamic-service" {
		t.Fatalf("got %q", got)
	}
}
