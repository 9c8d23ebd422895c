// Package sodabind implements the LYNX run-time package's kernel-specific
// half for the SODA kernel — the design §4.2 of the paper describes (and
// never built; we build it):
//
//   - a link is a pair of names, one per end; the owner of an end
//     advertises its name and keeps a HINT naming the process it believes
//     owns the far end. Hints can be wrong; they are fixed lazily;
//   - a LYNX message is a SODA put to the hinted process; the enclosed
//     link ends travel as (name, far-name, hint) records in the payload.
//     "When the message is SODA-accepted by the receiver, the ends are
//     understood to have moved";
//   - screening is the application's own interrupt handler: an unwanted
//     request is simply not accepted until it becomes wanted, so every
//     received message is wanted and no RETRY/FORBID machinery exists;
//   - a process that wants traffic on an end posts a status SIGNAL to
//     the hinted owner; the signal is held unaccepted and is used by the
//     far side to announce destruction (accept with DESTROYED) or
//     movement (accept with MOVED + new owner);
//   - a process that moves or destroys an end must accept all pending
//     requests on it, redirecting (MOVED) or killing (DESTROYED) them;
//   - stale hints are repaired from the movers' caches (moved names stay
//     advertised and answer MOVED), then by unreliable-broadcast
//     discover, and finally by the freeze/unfreeze absolute search that
//     halts every process (§4.2's fallback; expensive, measured in E10).
package sodabind

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/soda"
)

// OOB verb layout: verb in the low byte, argument (a ProcID or a kind)
// in the remaining 40 bits.
const (
	oobData      = 1 // data put: arg = kind | seqLow32<<8
	oobWatch     = 2 // status signal
	oobOK        = 3 // accept: delivered
	oobMoved     = 4 // accept: end moved, arg = new owner pid
	oobDestroyed = 5 // accept: link destroyed
	oobRejected  = 6 // accept: reply no longer wanted
	oobFreeze    = 7 // freeze request (absolute search)
	oobUnfreeze  = 8 // unfreeze request posted by a frozen process
)

func packOOB(verb byte, arg uint64) soda.OOB {
	return soda.OOBFromUint64(uint64(verb) | arg<<8)
}

func unpackOOB(o soda.OOB) (verb byte, arg uint64) {
	v := o.Uint64()
	return byte(v & 0xFF), v >> 8
}

// seqMask keeps the low 31 bits of a seq: all the data put's OOB has
// room for.
const seqMask = 0x7FFF_FFFF

// packDataArg encodes message kind and seq (low 31 bits) for the data
// put's OOB: the 48-bit limit §4.2.1 worries about forces truncation;
// the full seq rides in the payload and is recovered after accept.
func packDataArg(kind core.MsgKind, seq uint64) uint64 {
	return uint64(kind) | (seq&seqMask)<<8
}

func unpackDataArg(arg uint64) (core.MsgKind, uint64) {
	return core.MsgKind(arg & 0xFF), arg >> 8
}

// enclRecord is the 24-byte payload record moving one link end.
type enclRecord struct {
	name    soda.Name
	farName soda.Name
	hint    soda.ProcID
}

const enclRecordLen = 24

func encodeEncl(buf []byte, recs ...enclRecord) []byte {
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.name))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.farName))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.hint))
	}
	return buf
}

func decodeEncl(buf []byte, n int) ([]enclRecord, error) {
	if len(buf) != n*enclRecordLen {
		return nil, fmt.Errorf("sodabind: enclosure block %dB for %d ends", len(buf), n)
	}
	recs := make([]enclRecord, n)
	for i := range recs {
		off := i * enclRecordLen
		recs[i].name = soda.Name(binary.LittleEndian.Uint64(buf[off:]))
		recs[i].farName = soda.Name(binary.LittleEndian.Uint64(buf[off+8:]))
		recs[i].hint = soda.ProcID(binary.LittleEndian.Uint64(buf[off+16:]))
	}
	return recs, nil
}

// counters holds the binding's per-process obs counter handles.
type counters struct {
	puts             *obs.Counter
	accepts          *obs.Counter
	savedRequests    *obs.Counter
	rejectedReplies  *obs.Counter
	movedForwards    *obs.Counter
	hintFixes        *obs.Counter
	hintHits         *obs.Counter
	hintMisses       *obs.Counter
	discovers        *obs.Counter
	freezes          *obs.Counter
	freezeHalts      *obs.Counter
	frozenNs         *obs.Counter
	linkMoves        *obs.Counter
	cacheEvictions   *obs.Counter
	pairLimitRetries *obs.Counter
}

// counterSet names the binding's per-process counters; each process
// gets one block of them (obs.Metrics.ProcCounters).
var counterSet = obs.NewCounterSet(
	obs.MPuts,
	obs.MAccepts,
	obs.MSavedRequests,
	obs.MRejectedReplies,
	obs.MMovedForwards,
	obs.MHintFixes,
	obs.MHintHits,
	obs.MHintMisses,
	obs.MDiscovers,
	obs.MFreezes,
	obs.MFreezeHalts,
	obs.MFrozenTimeNs,
	obs.MLinkMoves,
	obs.MCacheEvictions,
	obs.MPairLimitRetries,
)

// Config tunes the hint machinery.
type Config struct {
	// CacheSize bounds the move cache ("a cache of links it has known
	// about recently"); 0 disables forwarding.
	CacheSize int
	// HintTimeout is how long a put may stay unaccepted before hint
	// recovery starts.
	HintTimeout sim.Duration
	// DiscoverRetries is how many discover broadcasts to attempt before
	// falling back to the freeze search.
	DiscoverRetries int
	// EnableFreeze enables the absolute-search fallback.
	EnableFreeze bool
}

// DefaultConfig returns sensible defaults.
func DefaultConfig() Config {
	return Config{
		CacheSize:       64,
		HintTimeout:     250 * sim.Millisecond,
		DiscoverRetries: 3,
		EnableFreeze:    true,
	}
}

// Transport is one LYNX process's SODA binding.
type Transport struct {
	kernel *soda.Kernel
	kp     *soda.Process
	sink   func(core.Event)
	screen core.ScreenFunc
	proc   *sim.Proc
	cfg    Config
	c      counters

	ends map[soda.Name]*endState
	// moveCache: forwarding addresses for ends we moved away; their
	// names stay advertised so we can answer MOVED. It, saved and the
	// unfreeze tables are made on first use.
	moveCache map[soda.Name]soda.ProcID
	cacheFIFO []soda.Name

	// pending: our outstanding puts/signals by request id.
	pending map[soda.ReqID]posted
	// free and freeIn hold finished sends and surfaced incoming
	// messages for reuse.
	free   []*pendingSend
	freeIn []*incoming
	// saved: inbound wanted-later data requests by end name.
	saved map[soda.Name][]savedReq

	// janitor runs blocking recovery work (discover, freeze) from
	// recoveries, in order; it is spawned on demand and exits once the
	// queue is empty, so janitor is nil while no repair is under way.
	janitor    *sim.Proc
	recoveries []recovery

	// freeze state.
	frozen     int
	frozeAt    sim.Time
	heldEvents []core.Event
	// unfreezeReq: unfreeze requests arrived at us (the searcher), held
	// unaccepted until our search finishes.
	unfreezeReq map[soda.ReqID]bool
	// unfreezePending: unfreeze requests we posted while frozen, keyed
	// for the resume completion.
	unfreezePending map[soda.ReqID]bool
	searchWait      *sim.WaitQueue
	searchHint      soda.ProcID
	searchLeft      int
	searchActive    bool

	dead bool
}

var _ core.Transport = (*Transport)(nil)
var _ core.Screened = (*Transport)(nil)

// endState is the binding's view of one owned link end.
type endState struct {
	myName  soda.Name
	te      core.TransEnd // myName, boxed once for every event and handle
	farName soda.Name
	hint    soda.ProcID
	dead    bool
	moving  bool
	wantReq bool
	wantRep bool
	// movingTo is the believed destination while moving: incoming
	// traffic is redirected there instead of being held, which breaks
	// cross-move cycles (two processes moving ends over each other's
	// moving links would otherwise deadlock).
	movingTo soda.ProcID

	// watch: our posted status signal's request id (0 = none).
	watch soda.ReqID
	// peerWatch: the far end's status signal, held unaccepted.
	peerWatch soda.ReqID
	// outstanding holds the full seq of each request sent on the end
	// whose reply has not arrived, one per low-31 value: the OOB field
	// carries only the low bits (§4.2.1).
	outstanding []uint64
	// sends holds each kind's send, by slot, from StartSend until its
	// fate is told or it is cancelled: core's stop-and-wait allows one
	// per (end, kind).
	sends [2]*pendingSend
}

// fullSeq returns the outstanding request seq whose low 31 bits are low.
func (es *endState) fullSeq(low uint64) (uint64, bool) {
	for _, s := range es.outstanding {
		if s&seqMask == low {
			return s, true
		}
	}
	return 0, false
}

// addOutstanding records a request seq, replacing one with the same
// low 31 bits.
func (es *endState) addOutstanding(seq uint64) {
	for i, s := range es.outstanding {
		if s&seqMask == seq&seqMask {
			es.outstanding[i] = seq
			return
		}
	}
	es.outstanding = append(es.outstanding, seq)
}

// dropOutstanding forgets the request seq whose low 31 bits are low.
func (es *endState) dropOutstanding(low uint64) {
	for i, s := range es.outstanding {
		if s&seqMask == low {
			es.outstanding = slices.Delete(es.outstanding, i, i+1)
			return
		}
	}
}

func newEndState(myName, farName soda.Name, hint soda.ProcID) *endState {
	return &endState{myName: myName, te: myName, farName: farName, hint: hint}
}

// savedReq is an inbound request held unaccepted until wanted.
type savedReq struct {
	req  soda.ReqID
	from soda.ProcID
	kind core.MsgKind
	seq  uint64 // truncated (low 31 bits)
}

// posted is one of our outstanding requests: a data put, or the status
// signal watching end's far side (ps nil).
type posted struct {
	end *endState
	ps  *pendingSend
}

// pendingSend tracks one LYNX message from StartSend until it is
// delivered, fails or is cancelled. Records are reused through the
// transport's free list, each with its encode buffer. A put cancelled
// while it waits out a pair-limit retry or a hint repair goes back to
// the free list when that path drops it.
type pendingSend struct {
	end     *endState
	wire    *core.WireMsg
	payload []byte // the encoded message, then its enclosure records
	encl    []*endState
	done    bool
	cancel  bool
	id      soda.ReqID // the current put's request
	// posts counts this message's puts (MOVED redirects and recoveries
	// re-post). gen numbers the record's puts across reuses: a hint
	// check is valid only for the put it was armed for.
	posts, gen int
	// checks counts the record's scheduled hint checks, across reuses,
	// and armed is the put the latest was armed for. All wait
	// HintTimeout on the same env, so they fire in the order they were
	// armed: only the latest can be valid, and only while armed == gen.
	checks, armed int
	check         func() // the checks' callback, made once per record
}

// newPending takes a send record for es from the free list, or makes
// one.
func (tr *Transport) newPending(es *endState) *pendingSend {
	var ps *pendingSend
	if n := len(tr.free); n > 0 {
		ps = tr.free[n-1]
		tr.free = tr.free[:n-1]
	} else {
		ps = &pendingSend{}
		ps.check = func() { tr.checkHint(ps) }
	}
	ps.end = es
	return ps
}

// release returns a finished send's record to the free list. Call it
// only once no table, recovery or retry timer can reach ps; a hint
// check still scheduled finds the generation moved on and does
// nothing.
func (tr *Transport) release(ps *pendingSend) {
	clear(ps.encl)
	ps.end, ps.wire, ps.id = nil, nil, 0
	ps.payload, ps.encl = ps.payload[:0], ps.encl[:0]
	ps.done, ps.cancel = false, false
	ps.posts = 0
	ps.gen++
	tr.free = append(tr.free, ps)
}

// incoming is an accepted message waiting out its transfer time before
// EvIncoming surfaces it. Records are reused through the transport's
// free list; each makes its timer callback once.
type incoming struct {
	ev   core.Event
	fire func()
}

// deferIncoming surfaces ev after d.
func (tr *Transport) deferIncoming(d sim.Duration, ev core.Event) {
	var in *incoming
	if n := len(tr.freeIn); n > 0 {
		in = tr.freeIn[n-1]
		tr.freeIn = tr.freeIn[:n-1]
	} else {
		in = &incoming{}
		in.fire = func() {
			ev := in.ev
			in.ev = core.Event{}
			tr.freeIn = append(tr.freeIn, in)
			tr.emit(ev)
		}
	}
	in.ev = ev
	tr.kp.Env().After(d, in.fire)
}

// New creates the binding for one LYNX process on the given SODA node;
// it schedules on kp's env.
func New(kernel *soda.Kernel, kp *soda.Process, cfg Config) *Transport {
	b := kernel.Obs().ProcCounters(counterSet, int(kp.ID()))
	tr := &Transport{
		kernel: kernel,
		kp:     kp,
		cfg:    cfg,
		c: counters{
			puts:             b.Counter(obs.MPuts),
			accepts:          b.Counter(obs.MAccepts),
			savedRequests:    b.Counter(obs.MSavedRequests),
			rejectedReplies:  b.Counter(obs.MRejectedReplies),
			movedForwards:    b.Counter(obs.MMovedForwards),
			hintFixes:        b.Counter(obs.MHintFixes),
			hintHits:         b.Counter(obs.MHintHits),
			hintMisses:       b.Counter(obs.MHintMisses),
			discovers:        b.Counter(obs.MDiscovers),
			freezes:          b.Counter(obs.MFreezes),
			freezeHalts:      b.Counter(obs.MFreezeHalts),
			frozenNs:         b.Counter(obs.MFrozenTimeNs),
			linkMoves:        b.Counter(obs.MLinkMoves),
			cacheEvictions:   b.Counter(obs.MCacheEvictions),
			pairLimitRetries: b.Counter(obs.MPairLimitRetries),
		},
		ends:    make(map[soda.Name]*endState),
		pending: make(map[soda.ReqID]posted),
	}
	return tr
}

// Obs returns the recorder this binding reports into (the kernel's).
func (tr *Transport) Obs() *obs.Recorder { return tr.kernel.Obs() }

// obsEmit records a binding-protocol event when a trace sink is
// attached; counters are maintained unconditionally.
func (tr *Transport) obsEmit(kind obs.Kind, seq uint64, detail string) {
	if rec := tr.kernel.Obs(); rec.Active() {
		rec.EmitEnv(tr.kp.Env(), obs.Event{Kind: kind, Proc: int(tr.kp.ID()), Seq: seq, Detail: detail})
	}
}

// KernelProcess returns the underlying SODA process (harness use).
func (tr *Transport) KernelProcess() *soda.Process { return tr.kp }

// SetScreen implements core.Screened.
func (tr *Transport) SetScreen(s core.ScreenFunc) { tr.screen = s }

// SetSink implements core.Transport: installs the interrupt handler.
func (tr *Transport) SetSink(sink func(core.Event), sp *sim.Proc) {
	tr.sink = sink
	tr.proc = sp
	tr.kp.SetHandler(tr.interrupt)
	tr.kp.Advertise(nil, freezeNameOf(tr.kp.ID()))
}

// emit delivers an event unless the process is frozen, in which case the
// event is held until thaw ("ceases execution of everything but its own
// searches").
func (tr *Transport) emit(ev core.Event) {
	if tr.frozen > 0 {
		tr.heldEvents = append(tr.heldEvents, ev)
		return
	}
	tr.sink(ev)
}

// BootLink creates a link between two bindings before their processes
// start: loader wiring. Names come from the kernel's unique-over-time
// allocator — deriving them from len(ends) would recycle a name once an
// end dies, and a recycled name aliases the dead end in every layer
// that keys state by name (the run-time package's end table outlives
// the binding's). Mid-run Launch churn makes that collision real.
func BootLink(a, b *Transport) (core.TransEnd, core.TransEnd) {
	nameA := a.kp.NewName(nil)
	nameB := b.kp.NewName(nil)
	esA := newEndState(nameA, nameB, b.kp.ID())
	esB := newEndState(nameB, nameA, a.kp.ID())
	a.ends[nameA] = esA
	b.ends[nameB] = esB
	a.kp.Advertise(nil, nameA)
	b.kp.Advertise(nil, nameB)
	return esA.te, esB.te
}

// MakeLink implements core.Transport: both ends local, hints self.
func (tr *Transport) MakeLink() (core.TransEnd, core.TransEnd, error) {
	n1 := tr.kp.NewName(tr.proc)
	n2 := tr.kp.NewName(tr.proc)
	self := tr.kp.ID()
	e1 := newEndState(n1, n2, self)
	e2 := newEndState(n2, n1, self)
	tr.ends[n1] = e1
	tr.ends[n2] = e2
	tr.kp.Advertise(tr.proc, n1)
	tr.kp.Advertise(tr.proc, n2)
	return e1.te, e2.te, nil
}

func (tr *Transport) end(te core.TransEnd) (*endState, bool) {
	es, ok := tr.ends[te.(soda.Name)]
	return es, ok
}

// Destroy implements core.Transport: accept the far end's held signal
// and any saved puts with DESTROYED, then forget the end.
func (tr *Transport) Destroy(te core.TransEnd) error {
	es, ok := tr.end(te)
	if !ok || es.dead {
		return core.ErrLinkDestroyed
	}
	tr.killEnd(tr.proc, es, true)
	return nil
}

// killEnd tears down an end. If announce is set, held requests are
// accepted with DESTROYED so the far side learns.
func (tr *Transport) killEnd(p *sim.Proc, es *endState, announce bool) {
	if es.dead {
		return
	}
	es.dead = true
	if announce {
		if es.peerWatch != 0 {
			tr.kp.Accept(p, es.peerWatch, packOOB(oobDestroyed, 0), nil, 0)
			es.peerWatch = 0
		}
		for _, sr := range tr.saved[es.myName] {
			tr.kp.Accept(p, sr.req, packOOB(oobDestroyed, 0), nil, 0)
		}
	}
	delete(tr.saved, es.myName)
	if es.watch != 0 {
		tr.kp.Withdraw(p, es.watch)
		es.watch = 0
	}
	es.sends = [2]*pendingSend{} // EvLinkDead settles them
	tr.kp.Unadvertise(p, es.myName)
	delete(tr.ends, es.myName)
}

// SetInterest implements core.Transport.
func (tr *Transport) SetInterest(te core.TransEnd, wantRequests, wantReplies bool) {
	es, ok := tr.end(te)
	if !ok || es.dead {
		return
	}
	es.wantReq, es.wantRep = wantRequests, wantReplies
	// Post or withdraw the status signal: we watch the far end whenever
	// we expect traffic from it.
	if (wantRequests || wantReplies) && es.watch == 0 {
		tr.postWatch(tr.proc, es)
	} else if !wantRequests && !wantReplies && es.watch != 0 {
		tr.kp.Withdraw(tr.proc, es.watch)
		delete(tr.pending, es.watch)
		es.watch = 0
	}
	// Newly-wanted saved requests can be accepted now.
	if wantRequests {
		tr.drainSaved(tr.proc, es)
	}
}

// ensureWatch posts the status signal if interest exists, none is
// posted yet, and the far owner is known (a freshly-created end's hint
// is self until the first peer message fixes it — the watch follows).
func (tr *Transport) ensureWatch(p *sim.Proc, es *endState) {
	if es.watch == 0 && (es.wantReq || es.wantRep) {
		tr.postWatch(p, es)
	}
}

// postWatch posts the status signal to the hinted far-end owner.
func (tr *Transport) postWatch(p *sim.Proc, es *endState) {
	if es.dead || es.hint == tr.kp.ID() {
		return // both ends local: no watch needed
	}
	id, st := tr.kp.Request(p, es.hint, es.farName, packOOB(oobWatch, 0), nil, 0)
	if st != soda.OK {
		if st == soda.DeadProc || st == soda.NoSuchProc {
			tr.scheduleRecovery(es, nil)
		}
		return
	}
	es.watch = id
	tr.pending[id] = posted{end: es}
}

// drainSaved accepts saved requests that the screen now wants.
func (tr *Transport) drainSaved(p *sim.Proc, es *endState) {
	if es.moving {
		return // resolved at move completion or failure
	}
	list := tr.saved[es.myName]
	if len(list) == 0 {
		return
	}
	var keep []savedReq
	for _, sr := range list {
		if es.dead || !tr.wantSaved(es, sr) {
			keep = append(keep, sr)
			continue
		}
		tr.acceptData(p, es, sr.req)
	}
	if len(keep) > 0 {
		tr.saved[es.myName] = keep
	} else {
		delete(tr.saved, es.myName)
	}
}

// wantSaved screens a saved request.
func (tr *Transport) wantSaved(es *endState, sr savedReq) bool {
	if sr.kind == core.KindRequest {
		return tr.screen(es.te, core.KindRequest, 0)
	}
	full, ok := es.fullSeq(sr.seq)
	if !ok {
		return false
	}
	return tr.screen(es.te, core.KindReply, full)
}

// StartSend implements core.Transport.
func (tr *Transport) StartSend(te core.TransEnd, m *core.WireMsg) error {
	es, ok := tr.end(te)
	if !ok || es.dead {
		return core.ErrLinkDestroyed
	}
	ps := tr.newPending(es)
	if n := m.EncodedLen() + len(m.Encl)*enclRecordLen; cap(ps.payload) < n {
		ps.payload = make([]byte, 0, n)
	}
	payload, err := m.AppendEncoded(ps.payload)
	if err != nil {
		tr.release(ps)
		return err
	}
	for _, e := range m.Encl {
		ees, ok := tr.end(e)
		if !ok || ees.dead {
			tr.release(ps)
			return core.ErrLinkDestroyed
		}
		ees.moving = true
		ees.movingTo = es.hint
		ps.encl = append(ps.encl, ees)
		payload = encodeEncl(payload, enclRecord{name: ees.myName, farName: ees.farName, hint: ees.hint})
	}
	ps.payload = payload
	if len(ps.payload) > core.MaxMessage {
		for _, e := range ps.encl {
			e.moving = false
		}
		err := fmt.Errorf("sodabind: message %dB exceeds buffer capacity %dB", len(ps.payload), core.MaxMessage)
		tr.release(ps)
		return err
	}
	ps.wire = m
	es.sends[m.Kind.Slot()] = ps
	if m.Kind == core.KindRequest {
		es.addOutstanding(m.Seq)
	}
	tr.post(tr.proc, ps)
	return nil
}

// post issues the put for ps to the current hint and arms the hint
// timeout.
func (tr *Transport) post(p *sim.Proc, ps *pendingSend) {
	es := ps.end
	if es.dead {
		// The run-time package learns of the dead end by EvLinkDead.
		tr.releaseEnclosures(p, ps)
		return
	}
	for _, e := range ps.encl {
		e.movingTo = es.hint
	}
	arg := packDataArg(ps.wire.Kind, ps.wire.Seq)
	ps.posts++
	ps.gen++
	id, st := tr.kp.Request(p, es.hint, es.farName, packOOB(oobData, arg), ps.payload, 0)
	switch st {
	case soda.OK:
		tr.c.puts.Inc()
		ps.id = id
		tr.pending[id] = posted{end: es, ps: ps}
		tr.armTimeout(ps)
	case soda.DeadProc, soda.NoSuchProc:
		tr.scheduleRecovery(es, ps)
	case soda.TooManyRequests:
		// Per-pair limit (§4.2.1): retry shortly. The paper worries this
		// could deadlock; backing off and retrying turns it into latency.
		tr.c.pairLimitRetries.Inc()
		tr.kp.Env().After(10*sim.Millisecond, func() {
			if ps.cancel {
				tr.release(ps)
			} else if !ps.done && !tr.dead {
				tr.post(nil, ps)
			}
		})
	default:
		tr.releaseEnclosures(p, ps)
		tr.settle(ps, core.EvSendFailed, fmt.Errorf("sodabind: put: %v", st))
	}
}

// armTimeout schedules a hint-staleness check of ps's current put.
func (tr *Transport) armTimeout(ps *pendingSend) {
	if tr.cfg.HintTimeout <= 0 {
		return
	}
	ps.checks++
	ps.armed = ps.gen
	tr.kp.Env().After(tr.cfg.HintTimeout, ps.check)
}

// checkHint runs the oldest of ps's scheduled hint-staleness checks.
func (tr *Transport) checkHint(ps *pendingSend) {
	ps.checks--
	// A crashed process's watchdog must not outlive it: the kernel
	// only raises IntCrash to live requesters, so a put from a dead
	// process to a dead target stays ReqInFlight forever and an
	// unconditional rearm would keep the simulation alive.
	if ps.checks > 0 || ps.armed != ps.gen || ps.done || ps.cancel || tr.dead {
		return
	}
	switch tr.kp.RequestState(ps.id) {
	case soda.ReqDelivered, soda.ReqGone:
		// Delivered: the target saw it and is simply not accepting
		// yet (its queue is closed) — normal stop-and-wait blocking.
		// Gone: completion or crash already handled elsewhere.
		return
	case soda.ReqInFlight:
		// The frame is still crossing the bus. Congestion is not
		// evidence of a stale hint — under overload a saturated
		// medium holds frames far past any staleness timeout, and
		// reacting with rediscovery broadcasts only feeds the
		// congestion. Keep waiting.
		tr.armTimeout(ps)
		return
	}
	// Undeliverable: the frame reached the hinted process and found
	// the name unadvertised. Withdraw and repair the hint.
	tr.kp.Withdraw(nil, ps.id)
	delete(tr.pending, ps.id)
	tr.scheduleRecovery(ps.end, ps)
}

// settle tells the run-time package ps's fate and clears its slot.
func (tr *Transport) settle(ps *pendingSend, k core.EventKind, err error) {
	ps.end.sends[ps.wire.Kind.Slot()] = nil
	tr.emit(core.Event{Kind: k, End: ps.end.te, Msg: ps.wire, Err: err})
}

// CancelSend implements core.Transport: withdraw the put if unaccepted.
// A put waiting out a pair-limit retry or a hint repair is not posted:
// it is marked cancelled, and that path drops it instead of posting it.
func (tr *Transport) CancelSend(te core.TransEnd, m *core.WireMsg) bool {
	es, ok := tr.end(te)
	if !ok {
		return false
	}
	ps := es.sends[m.Kind.Slot()]
	if ps == nil || ps.wire != m {
		return false // its fate is told, or on its way
	}
	posted := tr.pending[ps.id].ps == ps
	if posted {
		if tr.kp.Withdraw(tr.proc, ps.id) != soda.OK {
			return false
		}
		delete(tr.pending, ps.id)
	}
	ps.cancel = true
	es.sends[m.Kind.Slot()] = nil
	tr.releaseEnclosures(tr.proc, ps)
	if posted {
		tr.release(ps)
	}
	return true
}

// interrupt is the process's single software-interrupt handler — the
// screening function the kernel upcalls (lesson two).
func (tr *Transport) interrupt(ir soda.Interrupt) {
	if tr.dead {
		return
	}
	switch ir.IKind {
	case soda.IntRequest:
		tr.onRequest(ir)
	case soda.IntCompletion:
		tr.onCompletion(ir)
	case soda.IntCrash:
		tr.onCrash(ir)
	}
}

// onRequest handles an inbound SODA request descriptor.
func (tr *Transport) onRequest(ir soda.Interrupt) {
	verb, arg := unpackOOB(ir.OOB)
	switch verb {
	case oobFreeze:
		tr.onFreeze(ir)
		return
	case oobUnfreeze:
		// A frozen process answers; its hint rides in the OOB. Held
		// unaccepted until our search finishes.
		tr.onUnfreezeArrived(ir)
		return
	}
	// Forwarding: a request for an end we moved away.
	if dst, ok := tr.moveCache[ir.Name]; ok {
		tr.c.movedForwards.Inc()
		tr.kp.Accept(nil, ir.Req, packOOB(oobMoved, uint64(dst)), nil, 0)
		return
	}
	es, ok := tr.ends[ir.Name]
	if !ok {
		// Not ours and not cached: should not have been advertised;
		// ignore (the kernel will keep it pending harmlessly).
		return
	}
	switch verb {
	case oobWatch:
		if es.dead {
			tr.kp.Accept(nil, ir.Req, packOOB(oobDestroyed, 0), nil, 0)
			return
		}
		if es.moving {
			// "A process that moves a link end must accept any
			// previously-posted SODA request from the other end…
			// telling the other process where it moved its end."
			tr.kp.Accept(nil, ir.Req, packOOB(oobMoved, uint64(es.movingTo)), nil, 0)
			return
		}
		es.peerWatch = ir.Req
		// The watch also fixes OUR hint: its sender owns the far end.
		if es.hint != ir.From {
			es.hint = ir.From
			tr.c.hintFixes.Inc()
			tr.ensureWatch(nil, es)
		}
	case oobData:
		kind, seqLow := unpackDataArg(arg)
		if es.moving {
			// The end is being enclosed elsewhere: redirect the sender
			// toward the destination rather than holding the message
			// (holding can deadlock when two moves cross). If the move
			// later fails, the sender's put to the wrong process times
			// out and discover leads it back here.
			tr.c.movedForwards.Inc()
			tr.kp.Accept(nil, ir.Req, packOOB(oobMoved, uint64(es.movingTo)), nil, 0)
			return
		}
		if es.hint != ir.From {
			es.hint = ir.From
			tr.c.hintFixes.Inc()
			tr.ensureWatch(nil, es)
		}
		sr := savedReq{req: ir.Req, from: ir.From, kind: kind, seq: seqLow}
		if kind == core.KindReply && !tr.wantSaved(es, sr) {
			// An unwanted reply: NAK it so the server feels the
			// exception — SODA *can* do this without extra traffic.
			tr.c.rejectedReplies.Inc()
			tr.obsEmit(obs.KindUnwanted, uint64(ir.Req), "reply rejected")
			tr.kp.Accept(nil, ir.Req, packOOB(oobRejected, 0), nil, 0)
			return
		}
		if kind == core.KindRequest && !tr.screen(es.te, core.KindRequest, 0) {
			// Unwanted request: simply don't accept yet. No bounce
			// traffic; the sender's coroutine stays blocked, which is
			// exactly LYNX's stop-and-wait semantics.
			tr.c.savedRequests.Inc()
			if tr.saved == nil {
				tr.saved = make(map[soda.Name][]savedReq)
			}
			tr.saved[es.myName] = append(tr.saved[es.myName], sr)
			return
		}
		tr.acceptData(nil, es, ir.Req)
	}
}

// acceptData accepts a data put, decodes the LYNX message, adopts any
// enclosed ends, and surfaces EvIncoming after the transfer time. A
// payload that does not split into a message and its enclosure records
// is dropped.
func (tr *Transport) acceptData(p *sim.Proc, es *endState, req soda.ReqID) {
	got, st := tr.kp.Accept(p, req, packOOB(oobOK, 0), nil, core.MaxMessage)
	if st != soda.OK {
		return
	}
	tr.c.accepts.Inc()
	wire, recs, err := splitPayload(got)
	if err != nil {
		return
	}
	if wire.Kind == core.KindReply {
		es.dropOutstanding(wire.Seq & seqMask)
	}
	wire.Encl = make([]core.TransEnd, 0, len(recs))
	for _, r := range recs {
		wire.Encl = append(wire.Encl, tr.adoptEnd(p, r).te)
	}
	// The payload physically crosses the bus at accept time; surface the
	// message after its transfer time so latency accounting holds.
	tr.deferIncoming(tr.kernel.DataDelay(len(got)), core.Event{Kind: core.EvIncoming, End: es.te, Msg: wire})
}

// splitPayload splits an accepted payload into its LYNX message and the
// enclosure records that trail it; byte 1 of the wire encoding counts
// them. The message's Data aliases got.
func splitPayload(got []byte) (*core.WireMsg, []enclRecord, error) {
	cut := len(got)
	if len(got) >= 2 {
		cut -= int(got[1]) * enclRecordLen
	}
	if cut < 0 {
		return nil, nil, fmt.Errorf("sodabind: %dB payload too short for %d enclosure records", len(got), got[1])
	}
	wire, nencl, err := core.DecodeWire(got[:cut])
	if err != nil {
		return nil, nil, err
	}
	recs, err := decodeEncl(got[cut:], nencl)
	if err != nil {
		return nil, nil, err
	}
	return wire, recs, nil
}

// adoptEnd takes ownership of a moved end.
func (tr *Transport) adoptEnd(p *sim.Proc, r enclRecord) *endState {
	tr.c.linkMoves.Inc()
	if tr.kernel.Obs().Active() { // gate here: Sprintf allocates even when obsEmit drops the event
		tr.obsEmit(obs.KindLinkMove, uint64(r.name), fmt.Sprintf("adopt name=%d from hint=%d", r.name, r.hint))
	}
	es := newEndState(r.name, r.farName, r.hint)
	tr.ends[r.name] = es
	tr.kp.Advertise(p, r.name)
	delete(tr.moveCache, r.name) // it came back to us
	return es
}

// onCompletion handles an accept of one of our requests.
func (tr *Transport) onCompletion(ir soda.Interrupt) {
	pp, ok := tr.pending[ir.Req]
	if !ok {
		// A freeze-search answer, perhaps.
		tr.onSearchAnswer(ir)
		return
	}
	delete(tr.pending, ir.Req)
	verb, arg := unpackOOB(ir.OOB)
	es, ps := pp.end, pp.ps
	if ps == nil {
		es.watch = 0
		switch verb {
		case oobMoved:
			es.hint = soda.ProcID(arg)
			tr.c.hintFixes.Inc()
			tr.postWatch(nil, es)
		case oobDestroyed:
			tr.linkDead(es)
		}
		return
	}
	ps.done = true
	switch verb {
	case oobOK:
		// The far run-time package took the message: true receipt. A put
		// accepted on its first post means the hint was right (E10's hit
		// rate); re-posts mean the hint machinery had to intervene.
		if ps.posts == 1 {
			tr.c.hintHits.Inc()
		} else {
			tr.c.hintMisses.Inc()
		}
		tr.completeMove(ps, ir.From)
		// Make sure we watch the (possibly newly-learned) owner: without
		// a watch its later destroy/death would be invisible while we
		// await the reply.
		if es.hint != ir.From && !es.dead {
			es.hint = ir.From
			tr.c.hintFixes.Inc()
		}
		tr.ensureWatch(nil, es)
		tr.settle(ps, core.EvDelivered, nil)
	case oobMoved:
		es.hint = soda.ProcID(arg)
		tr.c.hintFixes.Inc()
		tr.ensureWatch(nil, es)
		ps.done = false
		tr.post(nil, ps)
		return
	case oobDestroyed:
		tr.releaseEnclosures(nil, ps)
		tr.linkDead(es)
	case oobRejected:
		tr.releaseEnclosures(nil, ps)
		tr.settle(ps, core.EvSendFailed, core.ErrUnwantedReply)
	}
	tr.release(ps)
}

// releaseEnclosures undoes the moving mark after a failed or cancelled
// move and re-examines any traffic that was held while the ends were in
// motion (otherwise saved requests on them would be stranded forever).
func (tr *Transport) releaseEnclosures(p *sim.Proc, ps *pendingSend) {
	for _, e := range ps.encl {
		if e.dead {
			continue
		}
		e.moving = false
		e.movingTo = 0
		tr.drainSaved(p, e)
	}
}

// completeMove finalizes enclosure transfer after a successful put: the
// moved ends leave this process; held traffic on them is redirected to
// newOwner (the process that accepted the message).
func (tr *Transport) completeMove(ps *pendingSend, newOwner soda.ProcID) {
	if len(ps.encl) == 0 {
		return
	}
	for _, e := range ps.encl {
		if e.dead {
			continue
		}
		if cur, ok := tr.ends[e.myName]; ok && cur != e {
			// Self-move: the message travelled a loopback link and our
			// own accept already re-adopted the end (a fresh endState).
			// Nothing left to hand over or forward.
			continue
		}
		if newOwner == tr.kp.ID() {
			// Self-move whose adoption kept the same record: keep it.
			e.moving = false
			tr.drainSaved(nil, e)
			continue
		}
		if e.watch != 0 {
			// We no longer own the end; stop watching its far side.
			tr.kp.Withdraw(nil, e.watch)
			delete(tr.pending, e.watch)
			e.watch = 0
		}
		if e.peerWatch != 0 {
			tr.kp.Accept(nil, e.peerWatch, packOOB(oobMoved, uint64(newOwner)), nil, 0)
			e.peerWatch = 0
		}
		for _, sr := range tr.saved[e.myName] {
			tr.kp.Accept(nil, sr.req, packOOB(oobMoved, uint64(newOwner)), nil, 0)
		}
		delete(tr.saved, e.myName)
		tr.cacheMove(e.myName, newOwner)
		delete(tr.ends, e.myName)
		// NOTE: the name stays advertised so the cache can forward.
	}
}

// cacheMove records a forwarding address, evicting FIFO beyond capacity
// (evicted names are unadvertised and forgotten — the discover/freeze
// path must find them).
func (tr *Transport) cacheMove(name soda.Name, to soda.ProcID) {
	if tr.cfg.CacheSize <= 0 {
		tr.kp.Unadvertise(nil, name)
		return
	}
	if tr.moveCache == nil {
		tr.moveCache = make(map[soda.Name]soda.ProcID)
	}
	tr.moveCache[name] = to
	tr.cacheFIFO = append(tr.cacheFIFO, name)
	for len(tr.moveCache) > tr.cfg.CacheSize && len(tr.cacheFIFO) > 0 {
		old := tr.cacheFIFO[0]
		tr.cacheFIFO = tr.cacheFIFO[0:copy(tr.cacheFIFO, tr.cacheFIFO[1:])]
		if _, ok := tr.moveCache[old]; ok {
			delete(tr.moveCache, old)
			tr.kp.Unadvertise(nil, old)
			tr.c.cacheEvictions.Inc()
		}
	}
}

// onCrash handles the kernel's crash notification for a pending request.
func (tr *Transport) onCrash(ir soda.Interrupt) {
	if tr.onUnfreezeAccepted(ir.Req) {
		return // the searcher crashed; we resume
	}
	pp, ok := tr.pending[ir.Req]
	if !ok {
		return
	}
	delete(tr.pending, ir.Req)
	if pp.ps == nil {
		pp.end.watch = 0
	}
	// The hinted owner died. The end may have moved on before the
	// crash: try recovery before declaring the link dead.
	tr.scheduleRecovery(pp.end, pp.ps)
}

// linkDead marks an end destroyed and tells the run-time package.
func (tr *Transport) linkDead(es *endState) {
	if es.dead {
		return
	}
	tr.killEnd(nil, es, false)
	tr.emit(core.Event{Kind: core.EvLinkDead, End: es.te})
}

// Shutdown implements core.Transport.
func (tr *Transport) Shutdown() {
	if tr.dead {
		return
	}
	tr.dead = true
	tr.kp.Terminate()
	if tr.janitor != nil {
		tr.janitor.Kill()
	}
}
