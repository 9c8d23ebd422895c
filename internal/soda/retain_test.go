package soda

import (
	"testing"

	"repro/internal/calib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestTerminateForgetsProcess: a terminated process leaves its group's
// table and drops its handler and request tables, yet requests to it
// still fail with DeadProc (not NoSuchProc) and it never shows in
// LiveIDs.
func TestTerminateForgetsProcess(t *testing.T) {
	env, k := newTestKernel()
	a := k.NewProcess(0)
	b := k.NewProcess(1)
	b.SetHandler(func(Interrupt) {})
	env.Spawn("a", func(p *sim.Proc) {
		b.Advertise(p, Name(7))
		b.Terminate()
		if _, ok := k.groups[0].procs[b.ID()]; ok {
			t.Error("terminated process still in the kernel's table")
		}
		if b.handler != nil || b.inbound != nil || b.outbound != nil || b.advertised != nil {
			t.Error("terminated process keeps its handler or tables")
		}
		if _, st := a.Request(p, b.ID(), Name(7), OOB{}, nil, 0); st != DeadProc {
			t.Errorf("Request to terminated: %v, want DeadProc", st)
		}
		if ids := a.LiveIDs(); len(ids) != 1 || ids[0] != a.ID() {
			t.Errorf("LiveIDs = %v, want [%d]", ids, a.ID())
		}
		// A dead process may still be told to advertise or request
		// (late binding timers); neither panics.
		b.Advertise(nil, Name(8))
		b.Request(nil, a.ID(), Name(1), OOB{}, nil, 0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTerminatePartitioned: under a partition, a process born mid-run
// in a group and a boot process both leave their group's table; both
// answer DeadProc inside their group and NoSuchProc across groups.
func TestTerminatePartitioned(t *testing.T) {
	root := sim.NewEnv(1)
	bus := netsim.NewCSMABus(root.Rand().Fork())
	k := NewKernel(root, bus, calib.DefaultSODA())
	boot := k.NewProcess(0)
	envs := root.EnterParallel(sim.ParallelOptions{Groups: 2, Workers: 1})
	k.Partition(envs)
	boot.AssignGroup(0)
	a := k.NewProcessIn(0, 1)
	b := k.NewProcessIn(0, 2)
	other := k.NewProcessIn(1, 3)
	envs[0].Spawn("g0", func(p *sim.Proc) {
		b.Terminate()
		boot.Terminate()
		for _, dead := range []*Process{b, boot} {
			if _, ok := k.groups[0].procs[dead.ID()]; ok {
				t.Errorf("terminated process %d still in its group's table", dead.ID())
			}
		}
		for _, dead := range []*Process{b, boot} {
			if _, st := a.Request(p, dead.ID(), Name(1), OOB{}, nil, 0); st != DeadProc {
				t.Errorf("in-group Request to terminated %d: %v, want DeadProc", dead.ID(), st)
			}
		}
	})
	envs[1].Spawn("g1", func(p *sim.Proc) {
		p.Delay(sim.Millisecond)
		for _, dead := range []*Process{b, boot} {
			if _, st := other.Request(p, dead.ID(), Name(1), OOB{}, nil, 0); st != NoSuchProc {
				t.Errorf("cross-group Request to terminated %d: %v, want NoSuchProc", dead.ID(), st)
			}
		}
	})
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBootTerminateDeadInGroup: under a partition, a boot process that
// terminates answers DeadProc to a boot peer of its own group and
// leaves that group's LiveIDs, while a process of another group gets
// NoSuchProc.
func TestBootTerminateDeadInGroup(t *testing.T) {
	root := sim.NewEnv(1)
	bus := netsim.NewCSMABus(root.Rand().Fork())
	k := NewKernel(root, bus, calib.DefaultSODA())
	far, peer, victim := k.NewProcess(0), k.NewProcess(1), k.NewProcess(2)
	envs := root.EnterParallel(sim.ParallelOptions{Groups: 2, Workers: 1})
	k.Partition(envs)
	far.AssignGroup(0)
	peer.AssignGroup(1)
	victim.AssignGroup(1)
	envs[1].Spawn("g1", func(p *sim.Proc) {
		victim.Terminate()
		if _, st := peer.Request(p, victim.ID(), Name(1), OOB{}, nil, 0); st != DeadProc {
			t.Errorf("in-group Request to terminated boot process: %v, want DeadProc", st)
		}
		if ids := peer.LiveIDs(); len(ids) != 1 || ids[0] != peer.ID() {
			t.Errorf("LiveIDs = %v, want [%d]", ids, peer.ID())
		}
	})
	envs[0].Spawn("g0", func(p *sim.Proc) {
		p.Delay(sim.Millisecond)
		if _, st := far.Request(p, victim.ID(), Name(1), OOB{}, nil, 0); st != NoSuchProc {
			t.Errorf("cross-group Request to terminated boot process: %v, want NoSuchProc", st)
		}
	})
	if err := root.Run(); err != nil {
		t.Fatal(err)
	}
}
