package sodabind

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/soda"
)

// This file implements §4.2's hint-failure machinery: lazy repair from
// move caches (handled inline in sodabind.go), the discover broadcast,
// and the freeze/unfreeze absolute search that "has the considerable
// disadvantage of bringing every LYNX process in existence to a
// temporary halt".

// freezeNameOf is the well-known freeze name every process advertises
// ("SODA makes it easy to guess their ids").
func freezeNameOf(pid soda.ProcID) soda.Name {
	return soda.Name(uint64(1)<<48 | uint64(pid))
}

// recovery is one stale-hint episode queued for the janitor. ps, when
// non-nil, is the data put to re-post once the hint is fixed.
type recovery struct {
	es *endState
	ps *pendingSend
}

// scheduleRecovery hands a stale-hint episode to the janitor, which may
// block on discover and freeze searches, starting the janitor if none
// is running.
func (tr *Transport) scheduleRecovery(es *endState, ps *pendingSend) {
	if es.dead {
		// The run-time package learns of the dead end by EvLinkDead.
		if ps != nil {
			tr.releaseEnclosures(nil, ps)
		}
		return
	}
	if tr.dead {
		return // a hint timer outlived the process; nothing to repair
	}
	tr.recoveries = append(tr.recoveries, recovery{es, ps})
	if tr.janitor == nil {
		tr.janitor = tr.kp.Env().Spawn(fmt.Sprintf("sodabind.janitor.p%d", tr.kp.ID()), tr.runJanitor)
	}
}

// runJanitor is the janitor's body: it works through the queued
// episodes in order and exits when none is left.
func (tr *Transport) runJanitor(p *sim.Proc) {
	for len(tr.recoveries) > 0 {
		r := tr.recoveries[0]
		n := copy(tr.recoveries, tr.recoveries[1:])
		tr.recoveries[n] = recovery{}
		tr.recoveries = tr.recoveries[:n]
		tr.recoverHint(p, r.es, r.ps)
	}
	tr.janitor = nil
}

// recoverHint runs in janitor context: discover first, then the freeze
// search, and if everything fails the link "must be assumed destroyed".
func (tr *Transport) recoverHint(p *sim.Proc, es *endState, ps *pendingSend) {
	if es.dead || tr.dead {
		return
	}
	for i := 0; i < tr.cfg.DiscoverRetries; i++ {
		tr.c.discovers.Inc()
		id, st := tr.kp.Discover(p, es.farName)
		if st == soda.OK {
			tr.hintFixed(p, es, ps, id)
			return
		}
	}
	if tr.cfg.EnableFreeze {
		if id, ok := tr.freezeSearch(p, es.farName); ok {
			tr.hintFixed(p, es, ps, id)
			return
		}
	}
	// "A process that is unable to find the far end of a link must
	// assume it has been destroyed."
	if ps != nil && !ps.cancel {
		tr.releaseEnclosures(p, ps)
	}
	tr.linkDead(es)
}

// hintFixed applies a repaired hint and resumes stalled traffic.
func (tr *Transport) hintFixed(p *sim.Proc, es *endState, ps *pendingSend, id soda.ProcID) {
	if es.dead {
		return
	}
	es.hint = id
	tr.c.hintFixes.Inc()
	if ps != nil && ps.cancel {
		tr.release(ps)
	} else if ps != nil && !ps.done {
		tr.post(p, ps)
	}
	if es.watch == 0 && (es.wantReq || es.wantRep) {
		tr.postWatch(p, es)
	}
}

// freezeSearch runs §4.2's absolute algorithm from janitor context:
// freeze every live process, collect hints from their unfreeze
// requests' out-of-band data, then accept the unfreeze requests so
// everyone resumes.
func (tr *Transport) freezeSearch(p *sim.Proc, target soda.Name) (soda.ProcID, bool) {
	tr.c.freezes.Inc()
	tr.obsEmit(obs.KindFreeze, uint64(target), "absolute search")
	if tr.searchWait == nil {
		tr.searchWait = sim.NewWaitQueue(tr.kp.Env(), "sodabind.search")
	}
	tr.searchActive = true
	tr.searchHint = 0
	tr.searchLeft = 0
	payload := binary.LittleEndian.AppendUint64(nil, uint64(target))
	for _, id := range tr.kp.LiveIDs() {
		if id == tr.kp.ID() {
			continue
		}
		if _, st := tr.kp.Request(p, id, freezeNameOf(id), packOOB(oobFreeze, 0), payload, 0); st == soda.OK {
			tr.searchLeft++
		}
	}
	// Wait for answers (with a straggler deadline: frozen processes that
	// die never answer).
	deadline := false
	tr.kp.Env().After(2*sim.Second, func() {
		deadline = true
		tr.searchWait.WakeAll()
	})
	for tr.searchLeft > 0 && tr.searchHint == 0 && !deadline {
		tr.searchWait.Wait(p)
	}
	tr.searchActive = false
	tr.thawOthers()
	return tr.searchHint, tr.searchHint != 0
}

// onFreeze is the frozen side: accept the freeze immediately (reading
// the sought name from the payload), halt, and post an unfreeze request
// whose out-of-band data carries our hint (or zero).
func (tr *Transport) onFreeze(ir soda.Interrupt) {
	got, st := tr.kp.Accept(nil, ir.Req, packOOB(oobFreeze, 0), nil, 16)
	if st != soda.OK {
		return
	}
	var name soda.Name
	if len(got) >= 8 {
		name = soda.Name(binary.LittleEndian.Uint64(got))
	}
	var hint soda.ProcID
	if _, ok := tr.ends[name]; ok {
		hint = tr.kp.ID() // it is ours
	} else if to, ok := tr.moveCache[name]; ok {
		hint = to
	}
	tr.freezeSelf()
	id, st := tr.kp.Request(nil, ir.From, freezeNameOf(ir.From), packOOB(oobUnfreeze, uint64(hint)), nil, 0)
	if st != soda.OK {
		tr.thawSelf() // searcher vanished; resume
		return
	}
	if tr.unfreezePending == nil {
		tr.unfreezePending = make(map[soda.ReqID]bool)
	}
	tr.unfreezePending[id] = true
}

// freezeSelf halts language-level progress: events are held, the
// counter permits multiple concurrent searches.
func (tr *Transport) freezeSelf() {
	tr.c.freezeHalts.Inc()
	if tr.frozen == 0 {
		tr.frozeAt = tr.kp.Env().Now()
	}
	tr.frozen++
}

// thawSelf decrements the freeze counter and, at zero, releases held
// events.
func (tr *Transport) thawSelf() {
	if tr.frozen == 0 {
		return
	}
	tr.frozen--
	if tr.frozen == 0 {
		tr.c.frozenNs.Add(int64(tr.kp.Env().Now() - tr.frozeAt))
		tr.obsEmit(obs.KindUnfreeze, 0, "thawed")
		held := tr.heldEvents
		tr.heldEvents = nil
		for _, ev := range held {
			tr.sink(ev)
		}
	}
}

// onUnfreezeArrived records a frozen process's answer during our search.
// Called from the interrupt handler; the request itself is accepted only
// when the search finishes (thawOthers), keeping the sender frozen.
func (tr *Transport) onUnfreezeArrived(ir soda.Interrupt) {
	_, arg := unpackOOB(ir.OOB)
	if tr.unfreezeReq == nil {
		tr.unfreezeReq = make(map[soda.ReqID]bool)
	}
	tr.unfreezeReq[ir.Req] = true
	if tr.searchActive {
		tr.searchLeft--
		if arg != 0 && tr.searchHint == 0 {
			tr.searchHint = soda.ProcID(arg)
		}
		tr.searchWait.WakeAll()
		return
	}
	tr.thawOthers()
}

// thawOthers accepts all held unfreeze requests, releasing their
// senders.
func (tr *Transport) thawOthers() {
	if tr.searchActive {
		return
	}
	// Accept in request-id order: map iteration order is randomized,
	// and the kernel calls below advance virtual time, so a raw range
	// would make same-seed runs diverge.
	reqs := make([]soda.ReqID, 0, len(tr.unfreezeReq))
	for req := range tr.unfreezeReq {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, req := range reqs {
		delete(tr.unfreezeReq, req)
		tr.kp.Accept(nil, req, packOOB(oobOK, 0), nil, 0)
	}
}

// onUnfreezeAccepted is the frozen side's resume path: our unfreeze
// request was accepted (or the searcher crashed).
func (tr *Transport) onUnfreezeAccepted(req soda.ReqID) bool {
	if !tr.unfreezePending[req] {
		return false
	}
	delete(tr.unfreezePending, req)
	tr.thawSelf()
	return true
}

// onSearchAnswer absorbs completions that are not tracked sends: freeze
// request completions (the target accepted our freeze — no action; the
// hint arrives via its unfreeze request).
func (tr *Transport) onSearchAnswer(ir soda.Interrupt) {
	if tr.onUnfreezeAccepted(ir.Req) {
		return
	}
	// Freeze-accept completions and other stragglers need no action.
}
