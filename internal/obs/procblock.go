package obs

import (
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
func ProcKey(name string, proc int) string { return procName("", name, proc) }

// procName formats a block counter's registry name,
// [prefix/]base{proc=N}, in one allocation.
func procName(prefix, base string, proc int) string {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(proc), 10)
	var b strings.Builder
	b.Grow(len(prefix) + 1 + len(base) + len("{proc=}") + len(digits))
	if prefix != "" {
		b.WriteString(prefix)
		b.WriteByte('/')
	}
	b.WriteString(base)
	b.WriteString("{proc=")
	b.Write(digits)
	b.WriteByte('}')
	return b.String()
}

// name returns the registry name of the block's counter i.
func (b *procBlock) name(i int) string { return procName(b.prefix, b.set.names[i], b.proc) }

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
