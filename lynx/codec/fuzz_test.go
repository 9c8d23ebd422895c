package codec

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// fuzzRecord holds one field of every supported kind.
type fuzzRecord struct {
	B   bool
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	I   int
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	U   uint
	F32 float32
	F64 float64
	S   string
	Bs  []byte
	Ss  []string
	N   [][]int32
	O   order
	Os  []order
}

// fuzzDests are the destination lists FuzzUnmarshal decodes into: the
// record, the package example's tuple, and a tuple of slices.
var fuzzDests = []func() []any{
	func() []any { return []any{new(fuzzRecord)} },
	func() []any { return []any{new(string), new(int64), new(bool)} },
	func() []any { return []any{new([][]int32), new([]byte), new(float64)} },
}

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal for each destination
// list. It may not panic. A payload it accepts must re-marshal to bytes
// that decode again and marshal back to the same bytes. Plain `go test`
// runs the seeds: the payloads the codec tests use, and truncations.
func FuzzUnmarshal(f *testing.F) {
	seeds := [][]any{
		{true, int8(-5), int16(-300), int32(-70000), int64(-1 << 40), int(12345),
			uint8(200), uint16(60000), uint32(4e9), uint64(1 << 60),
			float32(3.5), float64(math.Pi), "hello"},
		{[]byte{1, 2, 3}, []string{"a", "bb"}, [][]int32{{1}, {2, 3}}},
		{order{ID: 7, Ticker: "LYNX", Qty: -3, Limit: 19.86}},
		{int32(5), "x"},
		{"a longer string value"},
		{"transfer", int64(250), true},
		{[][]int32{{1, 2}, nil}, []byte("data"), math.Inf(-1)},
		{fuzzRecord{S: "s", Bs: []byte{9}, Ss: []string{"", "t"}, N: [][]int32{{-1}},
			O: order{Ticker: "X"}, Os: []order{{ID: 1}, {Qty: 2}}}},
	}
	for _, vals := range seeds {
		buf := MustMarshal(vals...)
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{tagSlice, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dests := range fuzzDests {
			ptrs := dests()
			if Unmarshal(data, ptrs...) != nil {
				continue
			}
			first := remarshal(t, ptrs)
			again := dests()
			if err := Unmarshal(first, again...); err != nil {
				t.Fatalf("%x decoded, but its re-marshalled %x does not: %v", data, first, err)
			}
			if second := remarshal(t, again); !bytes.Equal(second, first) {
				t.Fatalf("%x re-marshals as %x, then as %x", data, first, second)
			}
		}
	})
}

// remarshal marshals the values ptrs point to.
func remarshal(t *testing.T, ptrs []any) []byte {
	t.Helper()
	vals := make([]any, len(ptrs))
	for i, p := range ptrs {
		vals[i] = reflect.ValueOf(p).Elem().Interface()
	}
	buf, err := Marshal(vals...)
	if err != nil {
		t.Fatalf("decoded values do not marshal: %v", err)
	}
	return buf
}
