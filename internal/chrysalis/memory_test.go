package chrysalis

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Memory-object operations driven against a flat []byte model of the
// same modeled size. A program is a byte string; decodeMemOps turns it
// into operations, so the table test (seeded random programs) and
// FuzzObjectMemory share one decoder and one checker.
const (
	opWriteBytes = iota
	opReadBytes
	opWrite32
	opRead32
	opSetFlag16
	opOrFlag16
	opAndFlag16
	opFlag16
	opRacingWrite32 // Write32 on a second simproc while Read32 runs
	numMemOps
)

type memOp struct {
	kind int
	off  int
	n    int // byte count for opWriteBytes/opReadBytes
	v    uint32
	roff int // opRacingWrite32: the reader's offset
}

// decodeMemOps reads operations from prog until it runs out. Offsets
// are drawn three ways: anywhere in [-4, size+4], near a page boundary,
// or near the end of the object, so page straddles, never-written
// pages, ragged last pages and out-of-bounds accesses all come up.
func decodeMemOps(size int, prog []byte) []memOp {
	next := func(n int) ([]byte, bool) {
		if len(prog) < n {
			return nil, false
		}
		b := prog[:n]
		prog = prog[n:]
		return b, true
	}
	offset := func() (int, bool) {
		b, ok := next(3)
		if !ok {
			return 0, false
		}
		switch b[0] % 3 {
		case 0:
			return int(binary.LittleEndian.Uint16(b[1:]))%(size+9) - 4, true
		case 1:
			pages := size/pageSize + 2
			return int(b[1])%pages*pageSize + int(b[2]%9) - 4, true
		default:
			return size + int(b[1]%9) - 6, true
		}
	}
	var ops []memOp
	for {
		b, ok := next(1)
		if !ok {
			return ops
		}
		op := memOp{kind: int(b[0]) % numMemOps}
		if op.off, ok = offset(); !ok {
			return ops
		}
		switch op.kind {
		case opWriteBytes, opReadBytes:
			b, ok = next(2)
			if !ok {
				return ops
			}
			op.n = int(binary.LittleEndian.Uint16(b)) % 1200
			op.v = uint32(b[0])
		case opRacingWrite32:
			if op.roff, ok = offset(); !ok {
				return ops
			}
			fallthrough
		default:
			b, ok = next(4)
			if !ok {
				return ops
			}
			op.v = binary.LittleEndian.Uint32(b)
		}
		ops = append(ops, op)
	}
}

// fill returns n deterministic bytes seeded by v, none of them zero, so
// a write is never mistaken for an unwritten page.
func fill(n int, v uint32) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(v+uint32(i)*7)%255 + 1
	}
	return b
}

// flatMem is the reference: the whole modeled size as one slice.
type flatMem struct {
	data  []byte
	torn  int64
	pages map[int]bool // pages a write has touched
}

func (m *flatMem) in(off, n int) bool { return off >= 0 && off+n <= len(m.data) }

func (m *flatMem) status(off, n int) Status {
	if m.in(off, n) {
		return OK
	}
	return BadAccess
}

func (m *flatMem) store(off int, b []byte) {
	copy(m.data[off:], b)
	for i := range b {
		m.pages[(off+i)/pageSize] = true
	}
}

func (m *flatMem) load16(off int) uint16 { return binary.LittleEndian.Uint16(m.data[off:]) }

func (m *flatMem) store16(off int, v uint16) { m.store(off, []byte{byte(v), byte(v >> 8)}) }

// checkMemOps runs ops on a fresh object of the given size and on the
// model, failing at the first difference in status, returned bytes or
// words, torn-read count, or the set of host pages allocated.
func checkMemOps(t *testing.T, size int, ops []memOp) {
	t.Helper()
	env, k := newTestKernel()
	a := k.NewProcess(0)
	m := &flatMem{data: make([]byte, size), pages: map[int]bool{}}
	wide := k.costs.WideWrite
	var obj *memObject
	env.Spawn("driver", func(p *sim.Proc) {
		name := a.AllocObject(p, size)
		obj = k.groups[0].objects[name]
		for i, op := range ops {
			fail := func(format string, args ...any) {
				t.Errorf("size %d, op %d %+v: "+format, append([]any{size, i, op}, args...)...)
			}
			want := m.status(op.off, 2)
			switch op.kind {
			case opWriteBytes:
				buf := fill(op.n, op.v)
				want = m.status(op.off, op.n)
				if st := a.WriteBytes(p, name, op.off, buf); st != want {
					fail("WriteBytes status %v, model %v", st, want)
					return
				}
				if want == OK {
					m.store(op.off, buf)
				}
			case opReadBytes:
				got := bytes.Repeat([]byte{0xAA}, op.n) // dirty: unwritten pages must read as zeros
				want = m.status(op.off, op.n)
				if st := a.ReadBytes(p, name, op.off, got); st != want {
					fail("ReadBytes status %v, model %v", st, want)
					return
				}
				if want == OK && !bytes.Equal(got, m.data[op.off:op.off+op.n]) {
					fail("ReadBytes returned bytes differ from the model")
					return
				}
			case opWrite32:
				want = m.status(op.off, 4)
				if st := a.Write32(p, name, op.off, op.v); st != want {
					fail("Write32 status %v, model %v", st, want)
					return
				}
				if want == OK {
					m.store(op.off, binary.LittleEndian.AppendUint32(nil, op.v))
				}
			case opRead32:
				want = m.status(op.off, 4)
				v, st := a.Read32(p, name, op.off)
				if st != want || (want == OK && v != binary.LittleEndian.Uint32(m.data[op.off:])) {
					fail("Read32 = %#x %v, model %v", v, st, want)
					return
				}
			case opSetFlag16, opOrFlag16, opAndFlag16, opFlag16:
				var old uint16
				var st Status
				v := uint16(op.v)
				switch op.kind {
				case opSetFlag16:
					old, st = a.SetFlag16(p, name, op.off, v)
				case opOrFlag16:
					old, st = a.OrFlag16(p, name, op.off, v)
				case opAndFlag16:
					old, st = a.AndFlag16(p, name, op.off, v)
				default:
					old, st = a.Flag16(p, name, op.off)
				}
				if st != want || (want == OK && old != m.load16(op.off)) {
					fail("flag op = %#x %v, model %v", old, st, want)
					return
				}
				if want == OK {
					switch op.kind {
					case opSetFlag16:
						m.store16(op.off, v)
					case opOrFlag16:
						m.store16(op.off, old|v)
					case opAndFlag16:
						m.store16(op.off, old&v)
					}
				}
			case opRacingWrite32:
				// The writer lands its low half, then holds the torn
				// window open for WideWrite; the reader's own charge
				// (WideWrite/2) puts its read inside that window.
				env.Spawn("writer", func(pw *sim.Proc) { a.Write32(pw, name, op.off, op.v) })
				word := binary.LittleEndian.AppendUint32(nil, op.v)
				wrote := m.in(op.off, 4)
				want = m.status(op.roff, 4)
				if wrote && want == OK {
					m.store(op.off, word[:2])
					if op.roff == op.off {
						m.torn++
					}
				}
				v, st := a.Read32(p, name, op.roff)
				if st != want || (want == OK && v != binary.LittleEndian.Uint32(m.data[op.roff:])) {
					fail("racing Read32 = %#x %v, model %v", v, st, want)
					return
				}
				p.Delay(2 * wide)
				if wrote {
					m.store(op.off, word)
				}
			}
		}
		all := bytes.Repeat([]byte{0xAA}, size)
		if st := a.ReadBytes(p, name, 0, all); st != OK || !bytes.Equal(all, m.data) {
			t.Errorf("size %d: final contents differ from the model (%v)", size, st)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Obs().Metrics().Value(obs.MTornReads); got != m.torn {
		t.Errorf("size %d: %d torn reads, model %d", size, got, m.torn)
	}
	for i, pg := range obj.pages {
		if (pg != nil) != m.pages[i] {
			t.Errorf("size %d: page %d allocated=%v, written=%v", size, i, pg != nil, m.pages[i])
		}
	}
}

// TestObjectMemoryMatchesFlatModel drives seeded random programs
// against the flat model at sizes below, at, just past and well past
// one page, and at a ragged multiple of the page.
func TestObjectMemoryMatchesFlatModel(t *testing.T) {
	cases := []struct {
		size int
		seed int64
	}{
		{0, 1}, {1, 2}, {3, 3}, {pageSize - 1, 4}, {pageSize, 5}, {pageSize + 1, 6},
		{2*pageSize + 7, 7}, {3 * pageSize, 8}, {16412, 9}, {16412, 10},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		prog := make([]byte, 4000)
		rng.Read(prog)
		ops := decodeMemOps(c.size, prog)
		if len(ops) < 200 {
			t.Fatalf("size %d: only %d ops decoded", c.size, len(ops))
		}
		checkMemOps(t, c.size, ops)
	}
}

// TestObjectMemoryPageEdges pins the cases the random programs are
// meant to reach: words and blocks straddling a page boundary, reads of
// never-written pages, the ragged last page, and accesses just out of
// bounds.
func TestObjectMemoryPageEdges(t *testing.T) {
	const size = 2*pageSize + 5
	checkMemOps(t, size, []memOp{
		// Nothing written yet: every page reads as zeros.
		{kind: opReadBytes, off: 0, n: size},
		// Flag words straddling pages 0 and 1.
		{kind: opSetFlag16, off: pageSize - 1, v: 0xBEEF},
		{kind: opOrFlag16, off: pageSize - 1, v: 0x0101},
		{kind: opAndFlag16, off: pageSize - 1, v: 0xFF0F},
		{kind: opFlag16, off: pageSize - 1},
		// A 32-bit field straddling pages 1 and 2, and a read overlapping it.
		{kind: opWrite32, off: 2*pageSize - 2, v: 0x11223344},
		{kind: opRead32, off: 2*pageSize - 3},
		// A block spanning three pages.
		{kind: opWriteBytes, off: pageSize - 10, n: 700, v: 3},
		{kind: opReadBytes, off: pageSize - 20, n: 40},
		// A torn read across a page boundary; an overlapping read that is
		// not at the written offset is not counted as torn.
		{kind: opRacingWrite32, off: 2*pageSize - 1, v: 0xCAFEF00D, roff: 2*pageSize - 1},
		{kind: opRacingWrite32, off: 8, v: 1, roff: 10},
		// The ragged last page, and one byte past the modeled size.
		{kind: opRead32, off: size - 4},
		{kind: opRead32, off: size - 3},
		{kind: opWriteBytes, off: size - 1, n: 2},
		{kind: opReadBytes, off: -1, n: 1},
		{kind: opFlag16, off: size - 1},
		{kind: opWriteBytes, off: size, n: 0},
	})
}

// FuzzObjectMemory decodes arbitrary programs and checks them against
// the flat model. Run it with
//
//	go test -run '^$' -fuzz '^FuzzObjectMemory$' -fuzztime 10s ./internal/chrysalis
func FuzzObjectMemory(f *testing.F) {
	for i, size := range []uint16{0, 5, pageSize - 1, pageSize + 1, 1500, 16412} {
		rng := rand.New(rand.NewSource(int64(i)))
		prog := make([]byte, 300)
		rng.Read(prog)
		f.Add(size, prog)
	}
	f.Fuzz(func(t *testing.T, size uint16, prog []byte) {
		s := int(size) % (4*pageSize + 100)
		checkMemOps(t, s, decodeMemOps(s, prog))
	})
}
