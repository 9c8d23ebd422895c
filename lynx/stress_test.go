package lynx_test

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/lynx"
)

// The stress suite runs randomized multi-process workloads — random
// mixtures of remote operations, link creation, link movement, link
// destruction and thread forks — on every substrate, and checks global
// invariants:
//
//   - the run terminates (no protocol deadlock, no lost wakeup);
//   - identical seeds produce identical runs (determinism);
//   - every link end moved out of a process is adopted somewhere
//     (conservation, via runtime stats);
//   - no operation returns an impossible error.
//
// The workload is constructed so that every blocking operation can
// terminate: every process serves all ends it owns at all times (the
// universal handler also serves adopted ends before replying), and at
// the end every process destroys what it owns, which unblocks any peer
// still waiting.

// stressResult aggregates one run's observable outcomes.
type stressResult struct {
	finalTime  lynx.Time
	ops        int64
	opErrors   int64
	moves      int64
	destroys   int64
	enclSent   int64
	enclRecv   int64
	runtimeErr error
}

// stressSink, when set, observes stress runs (debugging aid).
var stressSink obs.Sink

// runStress executes one randomized workload.
func runStress(sub lynx.Substrate, seed uint64, nProcs, opsPerProc int) stressResult {
	var res stressResult
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: seed})
	sys.Obs().Attach(stressSink)
	rng := sim.NewRand(seed * 7777)

	refs := make([]*lynx.ProcRef, nProcs)
	for i := 0; i < nProcs; i++ {
		i := i
		refs[i] = sys.Spawn(fmt.Sprint("p", i), func(t *lynx.Thread, boot []*lynx.End) {
			owned := append([]*lynx.End{}, boot...)
			// The universal server: echo every request, adopt and serve
			// every moved end.
			var serveAll func(ends []*lynx.End)
			serveAll = func(ends []*lynx.End) {
				for _, e := range ends {
					t.Process().ServeEnd(e, func(st *lynx.Thread, req *lynx.Request) {
						serveAll(req.Links())
						owned = append(owned, req.Links()...)
						st.Reply(req, lynx.Msg{Data: req.Data()})
					})
				}
			}
			serveAll(boot)

			pickLive := func() *lynx.End {
				// Compact dead/moved-away ends opportunistically.
				live := owned[:0]
				for _, e := range owned {
					if !e.Dead() {
						live = append(live, e)
					}
				}
				owned = live
				if len(owned) == 0 {
					return nil
				}
				return owned[rng.Intn(len(owned))]
			}

			for op := 0; op < opsPerProc; op++ {
				res.ops++
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // remote operation
					e := pickLive()
					if e == nil {
						continue
					}
					payload := make([]byte, rng.Intn(200))
					if _, err := t.Connect(e, "echo", lynx.Msg{Data: payload}); err != nil {
						res.opErrors++
					}
				case 4, 5: // create a link and move one end over a random live end
					carrier := pickLive()
					if carrier == nil {
						continue
					}
					mine, theirs, err := t.NewLink()
					if err != nil {
						res.opErrors++
						continue
					}
					serveAll([]*lynx.End{mine})
					owned = append(owned, mine)
					if _, err := t.Connect(carrier, "take", lynx.Msg{Links: []*lynx.End{theirs}}); err != nil {
						res.opErrors++
						// The move failed; we still own theirs. Serve it
						// so it cannot wedge anyone, then keep it.
						if !theirs.Dead() {
							serveAll([]*lynx.End{theirs})
							owned = append(owned, theirs)
						}
					} else {
						res.moves++
					}
				case 6: // destroy a random owned end (not a boot end early on)
					if len(owned) > len(boot) {
						e := owned[len(boot)+rng.Intn(len(owned)-len(boot))]
						if !e.Dead() {
							t.Destroy(e)
							res.destroys++
						}
					}
				case 7: // fork a thread that does one echo
					e := pickLive()
					if e == nil {
						continue
					}
					t.Fork("worker", func(w *lynx.Thread) {
						if _, err := w.Connect(e, "echo", lynx.Msg{Data: []byte{1}}); err != nil {
							res.opErrors++
						}
					})
				case 8: // brief sleep: lets traffic interleave
					t.Sleep(lynx.Duration(rng.Intn(20)) * lynx.Millisecond)
				case 9: // open/close the request queue on a random end
					e := pickLive()
					if e == nil {
						continue
					}
					t.OpenRequests(e)
					t.Sleep(lynx.Duration(rng.Intn(5)) * lynx.Millisecond)
					t.CloseRequests(e)
				}
			}
			// Drain a little, then tear down everything we own.
			t.Sleep(50 * lynx.Millisecond)
			for _, e := range owned {
				if !e.Dead() {
					t.Destroy(e)
				}
			}
		})
	}
	// Boot topology: a ring plus chords, so moves have somewhere to go.
	for i := 0; i < nProcs; i++ {
		sys.Join(refs[i], refs[(i+1)%nProcs])
	}
	for i := 0; i+2 < nProcs; i += 2 {
		sys.Join(refs[i], refs[i+2])
	}

	res.runtimeErr = sys.RunFor(120 * lynx.Second)
	res.finalTime = sys.Now()
	if res.runtimeErr != nil || res.finalTime >= lynx.Time(115*lynx.Second) {
		for _, p := range refs {
			fmt.Print(p.DebugState())
		}
	}
	for _, p := range refs {
		st := p.Stats().Runtime()
		res.enclSent += st.EnclosuresSent
		res.enclRecv += st.EnclosuresRecv
	}
	return res
}

func TestStressAllSubstrates(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis, lynx.Ideal} {
		sub := sub
		t.Run(sub.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				res := runStress(sub, seed, 5, 25)
				if res.runtimeErr != nil {
					t.Fatalf("seed %d: %v", seed, res.runtimeErr)
				}
				if res.finalTime >= lynx.Time(120*lynx.Second) {
					t.Fatalf("seed %d: hit the horizon (stuck workload)", seed)
				}
				if res.ops == 0 {
					t.Fatalf("seed %d: no operations ran", seed)
				}
				t.Logf("seed %d: ops=%d errs=%d moves=%d destroys=%d encl=%d/%d t=%v",
					seed, res.ops, res.opErrors, res.moves, res.destroys,
					res.enclSent, res.enclRecv, res.finalTime)
			}
		})
	}
}

func TestStressDeterministic(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		a := runStress(sub, 99, 4, 15)
		b := runStress(sub, 99, 4, 15)
		if a.finalTime != b.finalTime || a.ops != b.ops || a.opErrors != b.opErrors ||
			a.moves != b.moves || a.enclSent != b.enclSent {
			t.Fatalf("%v: nondeterministic: %+v vs %+v", sub, a, b)
		}
	}
}

func TestStressLargerFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A bigger run on the fastest substrates.
	for _, sub := range []lynx.Substrate{lynx.Chrysalis, lynx.Ideal} {
		res := runStress(sub, 7, 10, 60)
		if res.runtimeErr != nil {
			t.Fatalf("%v: %v", sub, res.runtimeErr)
		}
		if res.finalTime >= lynx.Time(120*lynx.Second) {
			t.Fatalf("%v: hit the horizon", sub)
		}
		t.Logf("%v: ops=%d errs=%d moves=%d t=%v", sub, res.ops, res.opErrors, res.moves, res.finalTime)
	}
}

// TestCrashSweep crashes the server at a sweep of instants through the
// protocol exchange and requires that the client always terminates with
// a clean outcome (reply or exception) — no wedged state at any crash
// point, on any substrate.
func TestCrashSweep(t *testing.T) {
	for _, sub := range []lynx.Substrate{lynx.Charlotte, lynx.SODA, lynx.Chrysalis} {
		sub := sub
		t.Run(sub.String(), func(t *testing.T) {
			// Sweep crash times across the whole RTT (plus margin).
			horizonMS := 80
			stepMS := 4
			if sub == lynx.Chrysalis {
				horizonMS, stepMS = 8, 1
			}
			for ms := 0; ms <= horizonMS; ms += stepMS {
				crashAt := lynx.Duration(ms) * lynx.Millisecond
				sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: uint64(ms) + 1})
				outcome := "none"
				c := sys.Spawn("client", func(th *lynx.Thread, boot []*lynx.End) {
					_, mine, err := th.NewLink()
					_ = mine
					if err != nil {
						return
					}
					if _, err := th.Connect(boot[0], "op", lynx.Msg{Data: []byte("x")}); err != nil {
						outcome = "error"
					} else {
						outcome = "reply"
					}
					th.Destroy(boot[0])
				})
				s := sys.Spawn("server", func(th *lynx.Thread, boot []*lynx.End) {
					th.Serve(boot[0], func(st *lynx.Thread, req *lynx.Request) {
						st.Reply(req, lynx.Msg{})
					})
					th.Sleep(crashAt)
					th.Process().Crash()
					th.Sleep(lynx.Millisecond)
				})
				sys.Join(c, s)
				if err := sys.RunFor(30 * lynx.Second); err != nil {
					t.Fatalf("crash at %v: %v", crashAt, err)
				}
				if sys.Now() >= lynx.Time(30*lynx.Second) {
					t.Fatalf("crash at %v: client wedged", crashAt)
				}
				if outcome == "none" {
					t.Fatalf("crash at %v: client never resolved", crashAt)
				}
				_ = s
			}
		})
	}
}
