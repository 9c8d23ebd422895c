package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeWire feeds arbitrary bytes to DecodeWire. It may not
// panic. A message it accepts must account for exactly the bytes it
// was given (header, operation name and data), so no part of a decoded
// message lies beyond the buffer, and must encode back to those bytes
// when given as many enclosures as the header counts, by AppendEncoded
// alone and behind a prefix. Plain `go test` runs the seeds: the
// encodings the wire tests use, and their corrupt variants.
func FuzzDecodeWire(f *testing.F) {
	for _, m := range []*core.WireMsg{
		{Kind: core.KindRequest, Op: "op", Data: []byte("data")},
		{Kind: core.KindReply, Op: "echo", Seq: 1<<64 - 1},
		{Kind: core.KindRequest, Seq: 7, Encl: make([]core.TransEnd, 3)},
	} {
		buf, err := m.AppendEncoded(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
		bad := append([]byte{}, buf...)
		bad[0] = 99
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, n, err := core.DecodeWire(buf)
		if err != nil {
			return
		}
		if used := m.EncodedLen(); used != len(buf) {
			t.Fatalf("decoded %d bytes of a %d-byte buffer", used, len(buf))
		}
		if n < 0 || n > 255 {
			t.Fatalf("enclosure count %d outside the header's range", n)
		}
		m.Encl = make([]core.TransEnd, n)
		out, err := m.AppendEncoded(nil)
		if err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		if !bytes.Equal(out, buf) {
			t.Fatalf("decoded message encodes as %x, want %x", out, buf)
		}
		// Behind a prefix, with or without room to grow into.
		for _, pre := range [][]byte{{0xc7}, append(make([]byte, 0, 1+len(buf)), 0xc7)} {
			got, err := m.AppendEncoded(pre)
			if err != nil {
				t.Fatalf("AppendEncoded: %v", err)
			}
			if got[0] != 0xc7 || !bytes.Equal(got[1:], buf) {
				t.Fatalf("AppendEncoded behind a prefix gives %x, want c7%x", got, buf)
			}
		}
	})
}
