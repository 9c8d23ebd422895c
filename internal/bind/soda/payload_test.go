package sodabind

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// payloadOf encodes m followed by recs, the way StartSend builds a put.
func payloadOf(t testing.TB, m *core.WireMsg, recs ...enclRecord) []byte {
	b, err := m.AppendEncoded(nil)
	if err != nil {
		t.Fatal(err)
	}
	return encodeEncl(b, recs...)
}

// A payload whose enclosure count claims more records than it holds is
// an error, not a panic.
func TestSplitPayloadRejectsOverclaim(t *testing.T) {
	got := payloadOf(t, &core.WireMsg{Kind: core.KindRequest, Op: "op", Seq: 9, Data: []byte("data")})
	got[1] = 3
	if _, _, err := splitPayload(got); err == nil {
		t.Fatal("a payload claiming 3 enclosure records it does not hold split without error")
	}
}

// FuzzSODAPayload: no accepted payload panics the split, and one that
// splits re-encodes to the same bytes.
func FuzzSODAPayload(f *testing.F) {
	recs := []enclRecord{{name: 5, farName: 6, hint: 2}, {name: 1 << 40, farName: 7, hint: 3}}
	f.Add(payloadOf(f, &core.WireMsg{Kind: core.KindRequest, Op: "echo", Seq: 1, Data: []byte("ping")}))
	f.Add(payloadOf(f, &core.WireMsg{Kind: core.KindReply, Op: "move", Seq: 1 << 33, Encl: make([]core.TransEnd, 2)}, recs...))
	f.Add([]byte{1, 200, 0, 0, 0})
	f.Add([]byte{2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, got []byte) {
		wire, recs, err := splitPayload(got)
		if err != nil {
			return
		}
		wire.Encl = make([]core.TransEnd, len(recs))
		if again := payloadOf(t, wire, recs...); !bytes.Equal(again, got) {
			t.Fatalf("split of % x re-encodes to % x", got, again)
		}
	})
}
