package obs

import (
	"slices"
	"strconv"
	"strings"
)

// CounterSet is a fixed list of per-process counter names: the
// instruments one binding keeps for each process it serves. A binding
// declares its set once; Metrics.ProcCounters then gives every process
// a block of counters for the set. ProcValue reads a counter by set
// index, and only Snapshot and Names format its name, name{proc=N}.
type CounterSet struct {
	names []string
	index map[string]int
}

// NewCounterSet declares a set of per-process counter names.
func NewCounterSet(names ...string) *CounterSet {
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

// appendNames appends the registry names of the block's counters to
// buf back to back, in set order: base{proc=N} for each base. It also
// returns the length of the {proc=N} suffix, which with the base
// lengths cuts the names apart again.
func (b *procBlock) appendNames(buf []byte) ([]byte, int) {
	var sfx [32]byte
	suffix := appendProcSuffix(sfx[:0], b.proc)
	for _, base := range b.set.names {
		buf = append(buf, base...)
		buf = append(buf, suffix...)
	}
	return buf, len(suffix)
}

// blockGroup is the formatted blocks of one set.
type blockGroup struct {
	set    *CounterSet
	offs   []int // offs[j] sums the lengths of the set's names before j
	blocks []formatted
}

// formatted is one block's names as appendNames formats them.
type formatted struct {
	s   string
	sfx int // length of the {proc=N} suffix
}

// name cuts counter j's registry name out of f.
func (g *blockGroup) name(f formatted, j int) string {
	start := j*f.sfx + g.offs[j]
	return f.s[start : start+len(g.set.names[j])+f.sfx]
}

// suffix returns f's {proc=N} suffix.
func (g *blockGroup) suffix(f formatted) string {
	start := len(g.set.names[0])
	return f.s[start : start+f.sfx]
}

// nameRun is a sorted run of block counter names: counter j of every
// block of g.
type nameRun struct {
	g     *blockGroup
	j     int
	first string
}

// blockNames returns the names of every block counter, sorted, in a
// slice with room for spare more (caller holds the lock). A name held
// by several blocks is listed once per block. Each block's names are
// formatted into one string. Ordering a group's blocks once by their
// {proc=N} suffix makes counter j of every block a sorted run, so the
// runs need only be concatenated in order of their first names. A run
// that starts before the previous one ends (two sets that share a name)
// is merged in instead.
func (m *Metrics) blockNames(spare int) []string {
	groups := make(map[*CounterSet]*blockGroup)
	var buf []byte
	for i := range m.blocks {
		b := &m.blocks[i]
		if len(b.set.names) == 0 {
			continue
		}
		g := groups[b.set]
		if g == nil {
			g = &blockGroup{set: b.set, offs: make([]int, len(b.set.names))}
			for j := 1; j < len(g.offs); j++ {
				g.offs[j] = g.offs[j-1] + len(b.set.names[j-1])
			}
			groups[b.set] = g
		}
		var sfx int
		buf, sfx = b.appendNames(buf[:0])
		g.blocks = append(g.blocks, formatted{string(buf), sfx})
	}
	// Runs are ordered by their first names, so map order does not
	// matter.
	var runs []nameRun
	for _, g := range groups {
		slices.SortFunc(g.blocks, func(a, b formatted) int {
			return strings.Compare(g.suffix(a), g.suffix(b))
		})
		for j := range g.set.names {
			runs = append(runs, nameRun{g: g, j: j, first: g.name(g.blocks[0], j)})
		}
	}
	slices.SortFunc(runs, func(a, b nameRun) int { return strings.Compare(a.first, b.first) })
	names := make([]string, 0, m.blockCounters()+spare)
	var run []string
	for _, r := range runs {
		k := len(names)
		for _, f := range r.g.blocks {
			names = append(names, r.g.name(f, r.j))
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
