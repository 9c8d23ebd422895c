package core_test

import (
	"testing"

	"repro/internal/core"
)

// warmConnectReplyCeiling is the allocation count of one warm
// Connect/Reply round trip on the ideal fabric (go1.24, amd64), pinned
// so that it can only fall. Seven are the run-time package's:
//
//   - Connect's sendRecord, which holds the request WireMsg (startSend);
//   - the server's Request record (handleIncoming);
//   - spawnThread's Thread, its body closure over the handler and the
//     Request, and the method value its strand runs (Thread.run; the
//     sim.Strand itself is a value inside the Thread);
//   - Reply's sendRecord, which holds the reply WireMsg (startSend);
//   - the client's reply Msg (handleIncoming).
//
// Eight are the ideal fabric's, four per message: the flight record,
// which waits in the sending end's per-kind slot, its delivery closure
// (StartSend), and the end handles boxed for EvIncoming and EvDelivered
// (flush). On a real binding the receiver's DecodeWire adds its WireMsg
// and op string per message instead.
const warmConnectReplyCeiling = 15

// TestWarmConnectReplyAllocs is the run-time package's allocation gate:
// one warm Connect served by a Serve handler's Reply, on the ideal
// fabric.
func TestWarmConnectReplyAllocs(t *testing.T) {
	r := newRig()
	data := make([]byte, 64)
	var allocs float64
	r.spawnPair(
		func(th *core.Thread, e *core.End) {
			round := func() {
				if _, err := th.Connect(e, "echo", core.Msg{Data: data}); err != nil {
					t.Errorf("Connect: %v", err)
				}
			}
			round()
			allocs = testing.AllocsPerRun(1000, round)
			th.Destroy(e)
		},
		func(th *core.Thread, e *core.End) {
			th.Serve(e, func(st *core.Thread, req *core.Request) {
				st.Reply(req, core.Msg{Data: req.Data()})
			})
		},
	)
	if err := r.env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > warmConnectReplyCeiling {
		t.Fatalf("warm Connect/Reply round trip: %v allocations, want <= %d", allocs, warmConnectReplyCeiling)
	}
}
