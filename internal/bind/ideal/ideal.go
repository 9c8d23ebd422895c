// Package ideal implements the core.Transport contract over a perfect
// in-memory fabric: reliable, screening-aware, multi-enclosure message
// delivery with configurable latency.
//
// §6 of the paper observes that "the 'ideal operating system' probably
// lies at one of two extremes: it either provides everything the
// language needs, or else provides almost nothing, but in a flexible and
// efficient form". This binding is the first extreme, built as a
// perfectly-fitting kernel for LYNX. It serves two purposes: a reference
// implementation of the Transport contract for the core runtime's tests,
// and the "everything the language needs" baseline column in the
// experiment harness.
package ideal

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fabric is the shared medium connecting ideal transports: the analogue
// of one kernel instance.
//
// The fabric itself holds no timing state: every mutable structure is
// either per-link (links connect transports of one proc group, so only
// that group touches them), per group (the link table and id sequence:
// one group from construction, one per shard after Partition), or a
// commutative atomic counter. A transport schedules on its group's env.
type Fabric struct {
	groups []*fgroup // one until Partition, then one per shard

	rec *obs.Recorder
	// Message counters are pre-created so the hot path never inserts
	// into the registry map (shard envs may count concurrently).
	msgs         *obs.Counter
	bytes        *obs.Counter
	linkDestroys *obs.Counter
	// Latency is the fixed one-way message latency; PerByte adds a
	// payload-proportional component.
	Latency sim.Duration
	PerByte sim.Duration
}

// NewFabric creates a fabric with the given base latency.
func NewFabric(env *sim.Env, latency sim.Duration, perByte sim.Duration) *Fabric {
	rec := obs.NewRecorder(env, "ideal")
	f := &Fabric{
		groups:       []*fgroup{{env: env, links: make(map[int]*link), nextLink: 1, stride: 1}},
		rec:          rec,
		msgs:         rec.Counter(obs.MKernelMessages),
		bytes:        rec.Counter(obs.MKernelBytes),
		linkDestroys: rec.Counter(obs.MLinkDestroys),
		Latency:      latency,
		PerByte:      perByte,
	}
	return f
}

// fgroup is one group of the fabric: the env its transports schedule
// on, its link table, and a strided id allocator whose output depends
// only on this group's own call order.
type fgroup struct {
	env      *sim.Env
	links    map[int]*link
	nextLink int
	stride   int
}

// Partition splits the fabric into one group per shard env for a
// conservative parallel run: group i's transports schedule on envs[i].
// Each group gets its own copy of the boot group's link table, so the
// copies cost len(envs) × (links made so far). Link ids allocated
// from here on are strided per group, so mid-run MakeLink stays
// deterministic at any worker count. The fabric has no medium, so it
// returns one nil segment per env. Call once, before the run starts,
// then AssignGroup every transport.
func (f *Fabric) Partition(envs []*sim.Env) []netsim.Network {
	if len(f.groups) != 1 {
		panic("ideal: Partition called twice")
	}
	boot := f.groups[0]
	f.groups = make([]*fgroup, len(envs))
	for i := range f.groups {
		f.groups[i] = &fgroup{
			env:      envs[i],
			links:    maps.Clone(boot.links),
			nextLink: boot.nextLink + i,
			stride:   len(envs),
		}
	}
	return make([]netsim.Network, len(envs))
}

// Obs returns the fabric's recorder (the analogue of a kernel's).
func (f *Fabric) Obs() *obs.Recorder { return f.rec }

// EndID is the fabric's transport-end handle (comparable, as core
// requires).
type EndID struct {
	Link int
	Side int
}

func (e EndID) String() string { return fmt.Sprintf("ideal<%d.%d>", e.Link, e.Side) }

type link struct {
	id   int
	dead bool
	ends [2]endState
}

type endState struct {
	owner   *Transport
	wantReq bool
	wantRep bool
	// inFlight holds the undelivered send FROM this end of each kind,
	// by slot: core's stop-and-wait allows one per (end, kind).
	inFlight [2]*flight
	// held are arrived-but-unwanted messages parked at the receiving
	// side until interest opens (the ideal kernel screens perfectly, so
	// they are invisible to the far process).
	held []*flight
}

type flight struct {
	msg     *core.WireMsg
	from    *Transport
	fromEnd EndID
}

// Transport is one process's view of the fabric.
type Transport struct {
	f     *Fabric
	g     *fgroup
	name  string
	sink  func(core.Event)
	owned map[EndID]bool
}

var _ core.Transport = (*Transport)(nil)

// NewTransport creates a process's transport, in group 0.
func (f *Fabric) NewTransport(name string) *Transport {
	return &Transport{
		f:     f,
		g:     f.groups[0],
		name:  name,
		owned: make(map[EndID]bool),
	}
}

// NewTransportIn creates a transport directly in partition group g:
// the home-group placement for processes launched after the run has
// started.
func (f *Fabric) NewTransportIn(g int, name string) *Transport {
	tr := f.NewTransport(name)
	tr.g = f.groups[g]
	return tr
}

// AssignGroup moves a boot-created transport into partition group g,
// whose env then schedules its message-delay timers. Call after
// Fabric.Partition, before the run starts. Linked transports always
// share a group (links are created inside one process and enclosure
// passing cannot leave the group), so delivery stays group-local.
func (tr *Transport) AssignGroup(g int) { tr.g = tr.f.groups[g] }

// SetSink implements core.Transport. The ideal fabric charges no kernel
// CPU, so the simproc is unused.
func (tr *Transport) SetSink(sink func(core.Event), _ *sim.Proc) { tr.sink = sink }

// Obs returns the fabric's recorder.
func (tr *Transport) Obs() *obs.Recorder { return tr.f.rec }

// MakeLink implements core.Transport. The link table and id sequence
// are per partition group, so mid-run link creation is legal under a
// parallel run and its ids depend only on the group's own call order.
func (tr *Transport) MakeLink() (core.TransEnd, core.TransEnd, error) {
	f := tr.f
	g := tr.g
	l := &link{id: g.nextLink}
	g.nextLink += g.stride
	for i := range l.ends {
		l.ends[i].owner = tr
	}
	g.links[l.id] = l
	a, b := EndID{l.id, 0}, EndID{l.id, 1}
	tr.owned[a] = true
	tr.owned[b] = true
	if f.rec.Active() {
		f.rec.EmitEnv(tr.g.env, obs.Event{Kind: obs.KindLinkMake, Link: l.id})
	}
	return a, b, nil
}

func (tr *Transport) end(te core.TransEnd) (*link, EndID, *endState, error) {
	id, ok := te.(EndID)
	if !ok {
		return nil, EndID{}, nil, fmt.Errorf("ideal: bad TransEnd %T", te)
	}
	l, ok := tr.g.links[id.Link]
	if !ok {
		return nil, id, nil, core.ErrLinkDestroyed
	}
	return l, id, &l.ends[id.Side], nil
}

// Destroy implements core.Transport.
func (tr *Transport) Destroy(te core.TransEnd) error {
	l, id, _, err := tr.end(te)
	if err != nil {
		return err
	}
	tr.destroyLink(l, id)
	return nil
}

func (tr *Transport) destroyLink(l *link, cause EndID) {
	if l.dead {
		return
	}
	l.dead = true
	tr.f.linkDestroys.Inc()
	if tr.f.rec.Active() {
		tr.f.rec.EmitEnv(tr.g.env, obs.Event{Kind: obs.KindLinkDestroy, Link: l.id})
	}
	for side := range l.ends {
		es := &l.ends[side]
		owner := es.owner
		delete(owner.owned, EndID{l.id, side})
		// Undelivered sends from this side never arrive (StartSend's
		// timer finds its slot cleared); EvLinkDead settles them in the
		// run-time package.
		es.inFlight = [2]*flight{}
		es.held = nil
		// The destroying end learns synchronously (core handles it);
		// every other end is notified by event.
		if (EndID{l.id, side}) != cause {
			owner.sink(core.Event{Kind: core.EvLinkDead, End: EndID{l.id, side}})
		}
	}
}

// StartSend implements core.Transport: the message (with all enclosures)
// crosses the fabric in one piece and is delivered as soon as the far
// side's interest admits its kind.
func (tr *Transport) StartSend(te core.TransEnd, m *core.WireMsg) error {
	l, id, es, err := tr.end(te)
	if err != nil {
		return err
	}
	if l.dead {
		return core.ErrLinkDestroyed
	}
	if es.owner != tr {
		return core.ErrNotOwner
	}
	fl := &flight{msg: m, from: tr, fromEnd: id}
	es.inFlight[m.Kind.Slot()] = fl
	if tr.f.rec.Active() {
		tr.f.rec.EmitEnv(tr.g.env, obs.Event{Kind: obs.KindKernelSend, Link: l.id, Seq: m.Seq, Bytes: len(m.Data), Detail: id.String()})
	}
	delay := tr.f.Latency + sim.Duration(len(m.Data))*tr.f.PerByte
	tr.g.env.After(delay, func() {
		if es.inFlight[m.Kind.Slot()] != fl {
			return // cancelled, or the link died
		}
		far := &l.ends[1-id.Side]
		far.held = append(far.held, fl)
		tr.f.flush(l, 1-id.Side, tr.g.env)
	})
	return nil
}

// flush delivers held messages on l's given side that are now wanted.
// env is the shard env executing the flush (group 0's env when serial).
func (f *Fabric) flush(l *link, side int, env *sim.Env) {
	es := &l.ends[side]
	farEnd := EndID{l.id, side}
	kept := es.held[:0]
	for _, fl := range es.held {
		wanted := (fl.msg.Kind == core.KindRequest && es.wantReq) ||
			(fl.msg.Kind == core.KindReply && es.wantRep)
		if !wanted {
			if fl.msg.Kind == core.KindReply && !es.wantRep {
				// The ideal kernel tells the replier immediately that
				// the reply is unwanted, returning its enclosures.
				l.ends[fl.fromEnd.Side].inFlight[fl.msg.Kind.Slot()] = nil
				fl.from.sink(core.Event{
					Kind: core.EvSendFailed, End: fl.fromEnd, Msg: fl.msg,
					Err: core.ErrUnwantedReply,
				})
				continue
			}
			kept = append(kept, fl)
			continue
		}
		l.ends[fl.fromEnd.Side].inFlight[fl.msg.Kind.Slot()] = nil
		f.msgs.Inc()
		f.bytes.Add(int64(len(fl.msg.Data)))
		if f.rec.Active() {
			f.rec.EmitEnv(env, obs.Event{Kind: obs.KindKernelDeliver, Link: l.id, Seq: fl.msg.Seq, Bytes: len(fl.msg.Data), Detail: farEnd.String()})
		}
		// Move enclosure ownership across transports (group-local: an
		// enclosure travels between transports of one partition group).
		for _, enc := range fl.msg.Encl {
			id := enc.(EndID)
			el, ok := es.owner.g.links[id.Link]
			if !ok {
				continue
			}
			ees := &el.ends[id.Side]
			delete(ees.owner.owned, id)
			ees.owner = es.owner
			es.owner.owned[id] = true
			if f.rec.Active() {
				f.rec.EmitEnv(env, obs.Event{Kind: obs.KindLinkMove, Link: id.Link, Detail: id.String()})
			}
		}
		es.owner.sink(core.Event{Kind: core.EvIncoming, End: farEnd, Msg: fl.msg})
		fl.from.sink(core.Event{Kind: core.EvDelivered, End: fl.fromEnd, Msg: fl.msg})
	}
	es.held = kept
}

// CancelSend implements core.Transport: succeeds unless delivered.
func (tr *Transport) CancelSend(te core.TransEnd, m *core.WireMsg) bool {
	l, id, es, err := tr.end(te)
	if err != nil {
		return true // link gone: nothing will be received
	}
	fl := es.inFlight[m.Kind.Slot()]
	if fl == nil || fl.msg != m {
		return false
	}
	es.inFlight[m.Kind.Slot()] = nil
	// Remove from the far side's held list if it already arrived there.
	far := &l.ends[1-id.Side]
	for i, h := range far.held {
		if h == fl {
			far.held = append(far.held[:i], far.held[i+1:]...)
			break
		}
	}
	return true
}

// SetInterest implements core.Transport.
func (tr *Transport) SetInterest(te core.TransEnd, wantRequests, wantReplies bool) {
	l, id, es, err := tr.end(te)
	if err != nil {
		return
	}
	es.wantReq, es.wantRep = wantRequests, wantReplies
	tr.f.flush(l, id.Side, tr.g.env)
}

// Shutdown implements core.Transport: destroy everything still owned.
// Must not block (it runs from kill hooks). Ends are destroyed in id
// order: destruction emits events, so randomized map order would make
// same-seed runs diverge.
func (tr *Transport) Shutdown() {
	ids := make([]EndID, 0, len(tr.owned))
	for id := range tr.owned {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Link != ids[j].Link {
			return ids[i].Link < ids[j].Link
		}
		return ids[i].Side < ids[j].Side
	})
	for _, id := range ids {
		if l, ok := tr.g.links[id.Link]; ok {
			tr.destroyLink(l, id)
		}
	}
}

// MoveOwnership transfers a link end between transports outside any
// message — boot-time wiring for tests and examples (the loader handing
// a newborn process its initial links).
func MoveOwnership(f *Fabric, from, to *Transport, id EndID) {
	l, ok := from.g.links[id.Link]
	if !ok {
		return
	}
	es := &l.ends[id.Side]
	if es.owner != from {
		return
	}
	delete(from.owned, id)
	es.owner = to
	to.owned[id] = true
}
