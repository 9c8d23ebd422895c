package obs

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// CounterSet is a fixed list of per-process counter names: the
// instruments one binding keeps for each process it serves. A binding
// declares its set once; Metrics.ProcCounters then gives every process
// a block of counters for the set. ProcValue reads a counter by set
// index, and only Snapshot and Names format its name, name{proc=N},
// and only once the counter has counted.
type CounterSet struct {
	names []string
	index map[string]int
}

// NewCounterSet declares a set of per-process counter names. A set
// holds at most 64: a block's counted counters are one bit each of a
// uint64 mask.
func NewCounterSet(names ...string) *CounterSet {
	if len(names) > 64 {
		panic("obs: a counter set holds at most 64 names")
	}
	s := &CounterSet{names: names, index: make(map[string]int, len(names))}
	for i, n := range names {
		s.index[n] = i
	}
	return s
}

// ProcCounters is one process's block of counters for a CounterSet.
// The zero value (from a nil registry) hands out nil, no-op counters.
type ProcCounters struct {
	set *CounterSet
	c   []Counter
}

// Counter returns the block's counter for name, which must belong to
// the block's set.
func (b ProcCounters) Counter(name string) *Counter {
	if b.c == nil {
		return nil
	}
	i, ok := b.set.index[name]
	if !ok {
		panic("obs: counter " + name + " is not in the block's set")
	}
	return &b.c[i]
}

// procBlock is a registry's record of one block: the counters of set
// for proc.
type procBlock struct {
	set  *CounterSet
	proc int
	c    []Counter
}

// blockKey identifies the blocks Merge folds into one another.
type blockKey struct {
	set  *CounterSet
	proc int
}

// ProcCounters allocates proc's block of counters for set: one
// allocation, no name formatting, no map insert. Two blocks of proc
// naming the same counter read back as one counter holding their sum.
func (m *Metrics) ProcCounters(set *CounterSet, proc int) ProcCounters {
	if m == nil {
		return ProcCounters{}
	}
	c := make([]Counter, len(set.names))
	m.mu.Lock()
	m.blocks = append(m.blocks, procBlock{set: set, proc: proc, c: c})
	m.mu.Unlock()
	return ProcCounters{set: set, c: c}
}

// ProcCounters is shorthand for Metrics().ProcCounters(set, proc).
func (r *Recorder) ProcCounters(set *CounterSet, proc int) ProcCounters {
	return r.Metrics().ProcCounters(set, proc)
}

// ProcValue returns proc's per-process counter name without creating
// it: the sum over proc's blocks whose set holds name.
func (m *Metrics) ProcValue(name string, proc int) int64 {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var v int64
	for i := range m.blocks {
		b := &m.blocks[i]
		if b.proc != proc {
			continue
		}
		if j, ok := b.set.index[name]; ok {
			v += b.c[j].n.Load()
		}
	}
	return v
}

// appendProcSuffix appends "{proc=N}" to buf.
func appendProcSuffix(buf []byte, proc int) []byte {
	buf = append(buf, "{proc="...)
	buf = strconv.AppendInt(buf, int64(proc), 10)
	return append(buf, '}')
}

// formatted is one block's counted names, formatted into one string.
type formatted struct {
	s    string
	sfx  int    // length of the {proc=N} suffix
	mask uint64 // the counters s names: bit j for counter j
}

// format formats the registry names of the block's counted (nonzero)
// counters back to back, in set order: base{proc=N} for each such base.
// It builds them in buf, which it returns for reuse. A block that has
// counted nothing gets no string (mask 0). A counter that counts after
// the call is not named: the mask, not a later read of the counter,
// says which names s holds.
func (b *procBlock) format(buf []byte) ([]byte, formatted) {
	var sfx [32]byte
	suffix := appendProcSuffix(sfx[:0], b.proc)
	buf = buf[:0]
	var mask uint64
	for j := range b.c {
		if b.c[j].n.Load() != 0 {
			mask |= 1 << j
			buf = append(buf, b.set.names[j]...)
			buf = append(buf, suffix...)
		}
	}
	if mask == 0 {
		return buf, formatted{}
	}
	return buf, formatted{s: string(buf), sfx: len(suffix), mask: mask}
}

// name cuts counter j's registry name out of f, which must name it.
func (f formatted) name(set *CounterSet, j int) string {
	start := 0
	for m := f.mask & (1<<j - 1); m != 0; m &= m - 1 {
		start += len(set.names[bits.TrailingZeros64(m)]) + f.sfx
	}
	return f.s[start : start+len(set.names[j])+f.sfx]
}

// suffix returns f's {proc=N} suffix.
func (f formatted) suffix(set *CounterSet) string {
	start := len(set.names[bits.TrailingZeros64(f.mask)])
	return f.s[start : start+f.sfx]
}

// blockGroup is the formatted blocks of one set.
type blockGroup struct {
	set    *CounterSet
	blocks []formatted
}

// nameRun is a sorted run of block counter names: counter j of every
// block of g that has counted it.
type nameRun struct {
	g     *blockGroup
	j     int
	first string
}

// blockNames returns the names of every counted block counter, sorted,
// in a slice with room for spare more (caller holds the lock). A name
// held by several blocks is listed once per block. Each block's counted
// names are formatted into one string, and a block that has counted
// nothing is skipped. Ordering a group's blocks once by their {proc=N}
// suffix makes counter j of every block a sorted run, so the runs need
// only be concatenated in order of their first names. A run that starts
// before the previous one ends (two sets that share a name) is merged
// in instead.
func (m *Metrics) blockNames(spare int) []string {
	groups := make(map[*CounterSet]*blockGroup)
	var buf []byte
	counted := 0
	for i := range m.blocks {
		b := &m.blocks[i]
		var f formatted
		buf, f = b.format(buf)
		if f.mask == 0 {
			continue
		}
		counted += bits.OnesCount64(f.mask)
		g := groups[b.set]
		if g == nil {
			g = &blockGroup{set: b.set}
			groups[b.set] = g
		}
		g.blocks = append(g.blocks, f)
	}
	// Runs are ordered by their first names, so map order does not
	// matter.
	var runs []nameRun
	for _, g := range groups {
		slices.SortFunc(g.blocks, func(a, b formatted) int {
			return strings.Compare(a.suffix(g.set), b.suffix(g.set))
		})
		for j := range g.set.names {
			for _, f := range g.blocks {
				if f.mask&(1<<j) != 0 {
					runs = append(runs, nameRun{g: g, j: j, first: f.name(g.set, j)})
					break
				}
			}
		}
	}
	slices.SortFunc(runs, func(a, b nameRun) int { return strings.Compare(a.first, b.first) })
	names := make([]string, 0, counted+spare)
	var run []string
	for _, r := range runs {
		k := len(names)
		for _, f := range r.g.blocks {
			if f.mask&(1<<r.j) != 0 {
				names = append(names, f.name(r.g.set, r.j))
			}
		}
		if k > 0 && names[k-1] > names[k] {
			// The run interleaves with earlier ones: merge it in.
			run = append(run[:0], names[k:]...)
			names = mergeSorted(names[:k], run)
		}
	}
	return names
}

// mergeBlocks folds blocks (copied out of another registry) into m: a
// block whose set and process m already holds adds into it, any other
// is copied in. Nothing is formatted.
func (m *Metrics) mergeBlocks(blocks []procBlock) {
	if len(blocks) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.index == nil {
		m.index = make(map[blockKey]int)
	}
	// Index the blocks created or merged since the last merge.
	for ; m.indexed < len(m.blocks); m.indexed++ {
		b := &m.blocks[m.indexed]
		k := blockKey{b.set, b.proc}
		if _, dup := m.index[k]; !dup {
			m.index[k] = m.indexed
		}
	}
	for _, b := range blocks {
		k := blockKey{b.set, b.proc}
		if j, ok := m.index[k]; ok {
			dst := m.blocks[j].c
			for i := range b.c {
				dst[i].n.Add(b.c[i].n.Load())
			}
			continue
		}
		c := make([]Counter, len(b.c))
		for i := range b.c {
			c[i].n.Store(b.c[i].n.Load())
		}
		m.index[k] = len(m.blocks)
		m.blocks = append(m.blocks, procBlock{set: b.set, proc: b.proc, c: c})
		m.indexed = len(m.blocks)
	}
}
