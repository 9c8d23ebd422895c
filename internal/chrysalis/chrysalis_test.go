package chrysalis

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/calib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newTestKernel() (*sim.Env, *Kernel) {
	env := sim.NewEnv(1)
	k := NewKernel(env, netsim.NewBackplane(), calib.DefaultChrysalis())
	return env, k
}

func TestObjectAllocMapUnmap(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		o := a.AllocObject(p, 128)
		if refs, ok := k.Refs(o); !ok || refs != 1 {
			t.Fatalf("refs after alloc: %d %v", refs, ok)
		}
		if st := b.Map(p, o); st != OK {
			t.Fatalf("Map: %v", st)
		}
		if refs, _ := k.Refs(o); refs != 2 {
			t.Fatalf("refs after map: %d", refs)
		}
		// Double map is idempotent.
		if st := b.Map(p, o); st != OK {
			t.Fatalf("re-Map: %v", st)
		}
		if refs, _ := k.Refs(o); refs != 2 {
			t.Fatalf("refs after double map: %d", refs)
		}
		if st := b.Unmap(p, o); st != OK {
			t.Fatalf("Unmap: %v", st)
		}
		if st := b.Unmap(p, o); st != NotMapped {
			t.Fatalf("double Unmap: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReclamationAtZeroRefs(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		o := a.AllocObject(p, 64)
		b.Map(p, o)
		a.FreeWhenUnreferenced(p, o)
		a.Unmap(p, o)
		if _, ok := k.Refs(o); !ok {
			t.Fatal("reclaimed while still mapped by b")
		}
		b.Unmap(p, o)
		if _, ok := k.Refs(o); ok {
			t.Fatal("not reclaimed at zero refs")
		}
		if st := b.Map(p, o); st != NoSuchObject {
			t.Fatalf("Map after reclaim: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MObjectsReclaimed) != 1 {
		t.Fatalf("reclaimed = %d", k.Obs().Metrics().Value(obs.MObjectsReclaimed))
	}
}

func TestBytesRoundTrip(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		o := a.AllocObject(p, 32)
		if st := a.WriteBytes(p, o, 4, []byte("hello")); st != OK {
			t.Fatalf("WriteBytes: %v", st)
		}
		got := make([]byte, 5)
		if st := a.ReadBytes(p, o, 4, got); st != OK || !bytes.Equal(got, []byte("hello")) {
			t.Fatalf("ReadBytes: %v %q", st, got)
		}
		if st := a.WriteBytes(p, o, 30, []byte("xyz")); st != BadAccess {
			t.Fatalf("overflow write: %v", st)
		}
		if st := a.ReadBytes(p, o, -1, got[:2]); st != BadAccess {
			t.Fatalf("negative read: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmappedAccessFails(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		o := a.AllocObject(p, 32)
		if st := b.WriteBytes(p, o, 0, []byte("no")); st != NotMapped {
			t.Fatalf("unmapped write: %v", st)
		}
		if _, st := b.Flag16(p, o, 0); st != NotMapped {
			t.Fatalf("unmapped flag read: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFlag16Atomic(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		o := a.AllocObject(p, 8)
		old, st := a.SetFlag16(p, o, 0, 0xBEEF)
		if st != OK || old != 0 {
			t.Fatalf("SetFlag16: %v old=%x", st, old)
		}
		v, st := a.Flag16(p, o, 0)
		if st != OK || v != 0xBEEF {
			t.Fatalf("Flag16: %v %x", st, v)
		}
		old, _ = a.SetFlag16(p, o, 0, 0x1)
		if old != 0xBEEF {
			t.Fatalf("previous value = %x", old)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWrite32TornRead(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	// Reader on the same node: no backplane charge, so its read lands
	// inside the writer's torn window deterministically.
	b := k.NewProcess(0)
	env.Spawn("setup", func(p *sim.Proc) {
		o := a.AllocObject(p, 8)
		b.Map(p, o)
		a.Write32(p, o, 0, 0xAAAA_BBBB)
		env.Spawn("writer", func(pw *sim.Proc) {
			a.Write32(pw, o, 0, 0x1111_2222)
		})
		env.Spawn("reader", func(pr *sim.Proc) {
			// Land inside the torn window: after the low half, before the
			// high half.
			v, st := b.Read32(pr, o, 0)
			if st != OK {
				t.Errorf("Read32: %v", st)
			}
			// The reader raced the writer; it must see either the old
			// value, the new value, or the torn mix (new low, old high).
			switch v {
			case 0xAAAA_BBBB, 0x1111_2222, 0xAAAA_2222:
			default:
				t.Errorf("impossible read %x", v)
			}
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Obs().Metrics().Value(obs.MTornReads) == 0 {
		t.Fatal("reader did not land in the torn window (timing drifted)")
	}
}

func TestEventBlockBasics(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("owner", func(p *sim.Proc) {
		ev := a.NewEvent(p)
		env.Spawn("poster", func(pb *sim.Proc) {
			pb.Delay(sim.Millisecond)
			if st := b.EventPost(pb, ev, 42); st != OK {
				t.Errorf("EventPost: %v", st)
			}
		})
		v, st := a.EventWait(p, ev)
		if st != OK || v != 42 {
			t.Errorf("EventWait: %v %d", st, v)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventPostBeforeWait(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		ev := a.NewEvent(p)
		a.EventPost(p, ev, 7)
		v, st := a.EventWait(p, ev)
		if st != OK || v != 7 {
			t.Fatalf("EventWait: %v %d", st, v)
		}
		if k.EventPosted(ev) {
			t.Fatal("event still posted after wait")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOnlyOwnerWaits(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		ev := a.NewEvent(p)
		if _, st := b.EventWait(p, ev); st != NotOwner {
			t.Fatalf("non-owner wait: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOverPost(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		ev := a.NewEvent(p)
		if st := a.EventPost(p, ev, 1); st != OK {
			t.Fatalf("first post: %v", st)
		}
		if st := a.EventPost(p, ev, 2); st != OverPost {
			t.Fatalf("second post: %v", st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDualQueueDataMode(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	env.Spawn("x", func(p *sim.Proc) {
		q := a.NewDualQueue(p, 4)
		for i := uint32(1); i <= 4; i++ {
			if st := a.Enqueue(p, q, i); st != OK {
				t.Fatalf("enqueue %d: %v", i, st)
			}
		}
		if st := a.Enqueue(p, q, 5); st != QueueFull {
			t.Fatalf("overfull enqueue: %v", st)
		}
		ev := a.NewEvent(p)
		for i := uint32(1); i <= 4; i++ {
			v, ok, st := a.Dequeue(p, q, ev)
			if st != OK || !ok || v != i {
				t.Fatalf("dequeue: %v %v %d, want %d", st, ok, v, i)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDualQueueFlipsToEventMode(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("consumer", func(p *sim.Proc) {
		q := a.NewDualQueue(p, 8)
		ev := a.NewEvent(p)
		// Empty: dequeue enqueues our event name.
		v, ok, st := a.Dequeue(p, q, ev)
		if st != OK || ok {
			t.Fatalf("dequeue on empty: %v %v %d", st, ok, v)
		}
		env.Spawn("producer", func(pb *sim.Proc) {
			pb.Delay(sim.Millisecond)
			// Queue is in event mode: this posts the event instead of
			// buffering.
			if st := b.Enqueue(pb, q, 99); st != OK {
				t.Errorf("enqueue: %v", st)
			}
			if k.QueueLen(q) != 0 {
				t.Error("datum buffered instead of posted")
			}
		})
		got, st := a.EventWait(p, ev)
		if st != OK || got != 99 {
			t.Fatalf("EventWait: %v %d", st, got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDualQueueMultipleWaiters(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	c := k.NewProcess(2)
	var got []uint32
	env.Spawn("setup", func(p *sim.Proc) {
		q := a.NewDualQueue(p, 8)
		for i, pr := range []*Process{b, c} {
			pr := pr
			delay := sim.Duration(i+1) * sim.Microsecond
			env.Spawn("waiter", func(pw *sim.Proc) {
				pw.Delay(delay)
				ev := pr.NewEvent(pw)
				if _, ok, _ := pr.Dequeue(pw, q, ev); !ok {
					v, _ := pr.EventWait(pw, ev)
					got = append(got, v)
				}
			})
		}
		env.Spawn("producer", func(pp *sim.Proc) {
			pp.Delay(10 * sim.Millisecond)
			a.Enqueue(pp, q, 1)
			a.Enqueue(pp, q, 2)
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// FIFO: first waiter gets first datum.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestTerminateReleasesRefs(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	env.Spawn("x", func(p *sim.Proc) {
		o := a.AllocObject(p, 16)
		b.Map(p, o)
		a.FreeWhenUnreferenced(p, o)
		b.Terminate()
		if refs, ok := k.Refs(o); !ok || refs != 1 {
			t.Fatalf("refs after b death: %d %v", refs, ok)
		}
		a.Terminate()
		if _, ok := k.Refs(o); ok {
			t.Fatal("object survived both owners")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTuneFactorScalesFixedCosts(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	var base, tuned sim.Duration
	env.Spawn("x", func(p *sim.Proc) {
		o := a.AllocObject(p, 16)
		t0 := p.Now()
		a.SetFlag16(p, o, 0, 1)
		base = sim.Duration(p.Now() - t0)
		k.TuneFactor = calib.ChrysalisTunedFactor
		t1 := p.Now()
		a.SetFlag16(p, o, 0, 2)
		tuned = sim.Duration(p.Now() - t1)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(tuned) / float64(base)
	if ratio < 0.6 || ratio > 0.7 {
		t.Fatalf("tuned/base = %.2f, want ≈ %.2f", ratio, calib.ChrysalisTunedFactor)
	}
}

// Property: flag words set then read return the same value for any
// offset/value combination.
func TestFlagRoundTripProperty(t *testing.T) {
	f := func(offRaw uint8, v uint16) bool {
		env, k := newTestKernel()
		a := k.NewProcess(0)
		ok := true
		env.Spawn("x", func(p *sim.Proc) {
			o := a.AllocObject(p, 64)
			off := int(offRaw) % 62
			a.SetFlag16(p, o, off, v)
			got, st := a.Flag16(p, o, off)
			ok = st == OK && got == v
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: dual queue preserves FIFO order for any data sequence that
// fits.
func TestDualQueueFIFOProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) > 64 {
			vals = vals[:64]
		}
		env, k := newTestKernel()
		a := k.NewProcess(0)
		ok := true
		env.Spawn("x", func(p *sim.Proc) {
			q := a.NewDualQueue(p, 64)
			ev := a.NewEvent(p)
			for _, v := range vals {
				if st := a.Enqueue(p, q, v); st != OK {
					ok = false
					return
				}
			}
			for _, want := range vals {
				v, got, st := a.Dequeue(p, q, ev)
				if st != OK || !got || v != want {
					ok = false
					return
				}
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimBootObjectPartitioned: under a partition, an object
// allocated before the split and reclaimed mid-run answers
// NoSuchObject to Map from every process of its group.
func TestReclaimBootObjectPartitioned(t *testing.T) {
	root := sim.NewEnv(1)
	bp := netsim.NewBackplane()
	k := NewKernel(root, bp, calib.DefaultChrysalis())
	a, b := k.NewProcess(0), k.NewProcess(1)
	name := a.AllocObject(nil, 64)
	envs := root.EnterParallel(sim.ParallelOptions{Groups: 2, Workers: 1})
	k.Partition(envs)
	a.AssignGroup(1)
	b.AssignGroup(1)
	envs[1].Spawn("g1", func(p *sim.Proc) {
		if st := a.FreeWhenUnreferenced(p, name); st != OK {
			t.Fatalf("FreeWhenUnreferenced: %v", st)
		}
		if st := a.Unmap(p, name); st != OK {
			t.Fatalf("Unmap: %v", st)
		}
		for _, pr := range []*Process{a, b} {
			if st := pr.Map(p, name); st != NoSuchObject {
				t.Errorf("Map by %d after reclaim: %v, want NoSuchObject", pr.ID(), st)
			}
		}
	})
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
}
