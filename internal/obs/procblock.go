package obs

import (
	"slices"
	"strconv"
	"strings"
)

// CounterSet is a fixed list of per-process counter names: the
// instruments one binding keeps for each process it serves. A binding
// declares its set once; Metrics.ProcCounters then gives every process
// a block of counters for the set, and the registry names a counter
// (name{proc=N}, see ProcKey) only when it is read.
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
// for proc, filed under prefix ("" unless merged in by MergePrefixed).
type procBlock struct {
	set    *CounterSet
	proc   int
	prefix string
	c      []Counter
}

// blockKey identifies the blocks Merge folds into one another.
type blockKey struct {
	prefix string
	set    *CounterSet
	proc   int
}

// ProcCounters allocates proc's block of counters for set: one
// allocation, no name formatting, no map insert. Counter i reads back
// as ProcKey(set name i, proc). Two blocks naming the same counter read
// back as one counter holding their sum, as does a plain counter
// created under the same formatted name.
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

// ProcKey derives the per-process variant of a metric name, e.g.
// ProcKey("unwanted_receives_total", 3) = "unwanted_receives_total{proc=3}".
func ProcKey(name string, proc int) string {
	var sfx [32]byte
	suffix := appendProcSuffix(sfx[:0], proc)
	var b strings.Builder
	b.Grow(len(name) + len(suffix))
	b.WriteString(name)
	b.Write(suffix)
	return b.String()
}

// appendProcSuffix appends "{proc=N}" to buf.
func appendProcSuffix(buf []byte, proc int) []byte {
	buf = append(buf, "{proc="...)
	buf = strconv.AppendInt(buf, int64(proc), 10)
	return append(buf, '}')
}

// appendNames appends the registry names of the block's counters to
// buf back to back, in set order: [prefix/]base{proc=N} for each base.
// It also returns the length of the {proc=N} suffix, which with the
// prefix and base lengths cuts the names apart again.
func (b *procBlock) appendNames(buf []byte) ([]byte, int) {
	var sfx [32]byte
	suffix := appendProcSuffix(sfx[:0], b.proc)
	for _, base := range b.set.names {
		if b.prefix != "" {
			buf = append(buf, b.prefix...)
			buf = append(buf, '/')
		}
		buf = append(buf, base...)
		buf = append(buf, suffix...)
	}
	return buf, len(suffix)
}

// headLen is the length of a block name's "prefix/" part.
func headLen(prefix string) int {
	if prefix == "" {
		return 0
	}
	return len(prefix) + 1
}

// blockGroup is the formatted blocks of one set under one prefix.
type blockGroup struct {
	set    *CounterSet
	head   int   // headLen of the group's prefix
	offs   []int // offs[j] sums the lengths of the set's names before j
	blocks []formatted
}

// formatted is one block's names as appendNames formats them.
type formatted struct {
	s   string
	sfx int // length of the {proc=N} suffix
}

// groupKey identifies a blockGroup.
type groupKey struct {
	prefix string
	set    *CounterSet
}

// name cuts counter j's registry name out of f.
func (g *blockGroup) name(f formatted, j int) string {
	start := j*(g.head+f.sfx) + g.offs[j]
	return f.s[start : start+g.head+len(g.set.names[j])+f.sfx]
}

// suffix returns f's {proc=N} suffix.
func (g *blockGroup) suffix(f formatted) string {
	start := g.head + len(g.set.names[0])
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
// that starts before the previous one ends (two sets that share a name
// under one prefix) is merged in instead.
func (m *Metrics) blockNames(spare int) []string {
	groups := make(map[groupKey]*blockGroup)
	var buf []byte
	for i := range m.blocks {
		b := &m.blocks[i]
		if len(b.set.names) == 0 {
			continue
		}
		k := groupKey{b.prefix, b.set}
		g := groups[k]
		if g == nil {
			g = &blockGroup{set: b.set, head: headLen(b.prefix), offs: make([]int, len(b.set.names))}
			for j := 1; j < len(g.offs); j++ {
				g.offs[j] = g.offs[j-1] + len(b.set.names[j-1])
			}
			groups[k] = g
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

// lookup returns the index of the counter whose name, without its
// {proc=N} suffix, is head.
func (b *procBlock) lookup(head string) (int, bool) {
	if b.prefix != "" {
		if len(head) <= len(b.prefix) || head[len(b.prefix)] != '/' || !strings.HasPrefix(head, b.prefix) {
			return 0, false
		}
		head = head[len(b.prefix)+1:]
	}
	i, ok := b.set.index[head]
	return i, ok
}

// splitProcKey splits a name of ProcKey's form into the part before
// "{proc=" and the process id. ok is false for any other name,
// including ids ProcKey would not print that way ("03", "+3").
func splitProcKey(name string) (head string, proc int, ok bool) {
	if !strings.HasSuffix(name, "}") {
		return "", 0, false
	}
	i := strings.LastIndex(name, "{proc=")
	if i < 0 {
		return "", 0, false
	}
	digits := name[i+len("{proc=") : len(name)-1]
	proc, err := strconv.Atoi(digits)
	if err != nil || strconv.Itoa(proc) != digits {
		return "", 0, false
	}
	return name[:i], proc, true
}

// blockValue sums the block counters named name (caller holds the lock).
func (m *Metrics) blockValue(name string) int64 {
	if len(m.blocks) == 0 {
		return 0
	}
	head, proc, ok := splitProcKey(name)
	if !ok {
		return 0
	}
	var v int64
	for i := range m.blocks {
		b := &m.blocks[i]
		if b.proc != proc {
			continue
		}
		if j, ok := b.lookup(head); ok {
			v += b.c[j].n.Load()
		}
	}
	return v
}

// blockSumPrefix sums the block counters whose names start with prefix
// (caller holds the lock). Names are matched piecewise, not formatted.
func (m *Metrics) blockSumPrefix(prefix string) int64 {
	var total int64
	for i := range m.blocks {
		b := &m.blocks[i]
		suffix := "{proc=" + strconv.Itoa(b.proc) + "}"
		for j, base := range b.set.names {
			var ok bool
			if b.prefix == "" {
				ok = hasPrefixParts(prefix, base, suffix)
			} else {
				ok = hasPrefixParts(prefix, b.prefix, "/", base, suffix)
			}
			if ok {
				total += b.c[j].n.Load()
			}
		}
	}
	return total
}

// hasPrefixParts reports whether the concatenation of parts starts with
// prefix.
func hasPrefixParts(prefix string, parts ...string) bool {
	for _, p := range parts {
		if len(prefix) <= len(p) {
			return strings.HasPrefix(p, prefix)
		}
		if !strings.HasPrefix(prefix, p) {
			return false
		}
		prefix = prefix[len(p):]
	}
	return prefix == ""
}

// mergeBlocks folds blocks (copied out of another registry) into m
// under prefix: a block whose prefix, set and process m already holds
// adds into it, any other is copied in. Nothing is formatted.
func (m *Metrics) mergeBlocks(prefix string, blocks []procBlock) {
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
		k := blockKey{b.prefix, b.set, b.proc}
		if _, dup := m.index[k]; !dup {
			m.index[k] = m.indexed
		}
	}
	for _, b := range blocks {
		p := b.prefix
		if prefix != "" {
			if p == "" {
				p = prefix
			} else {
				p = prefix + "/" + p
			}
		}
		k := blockKey{p, b.set, b.proc}
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
		m.blocks = append(m.blocks, procBlock{set: b.set, proc: b.proc, prefix: p, c: c})
		m.indexed = len(m.blocks)
	}
}
