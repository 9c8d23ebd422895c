package obs

// Columns keeps the snapshot values of a run of registries without the
// registries: one int64 per (instrument, registry), laid out flat, one
// column of registries after another. Record keys an instrument the way
// the registry stores it, so it formats no name: a plain counter by its
// name, a histogram by its name (three columns: count, sum, max), and a
// per-process block counter by its set, process and counter index, once
// it has counted in some registry. Series names the columns only when
// they are read. A sweep records each replica's registry this way, so
// the registry can be freed as soon as it has been folded.
type Columns struct {
	rows  int // registries the store has room for
	n     int // registries recorded
	plain map[string]int
	hists map[string]int
	procs map[procCol]int
	// vals holds registry r's value of the column at offset o in
	// vals[o+r]; a histogram's sum and max columns follow its count.
	vals []int64
}

// procCol identifies one counter of the blocks of (set, proc).
type procCol struct {
	set  *CounterSet
	proc int
	j    int
}

// NewColumns makes a store with room for rows registries.
func NewColumns(rows int) *Columns {
	return &Columns{rows: rows}
}

// Record appends m's values as the next registry's. It reads m under
// m's lock and keeps nothing of it. No-op when m is nil.
func (c *Columns) Record(m *Metrics) {
	if m == nil {
		return
	}
	if c.n == c.rows {
		panic("obs: Columns has no room for another registry")
	}
	r := c.n
	c.n++
	m.mu.RLock()
	defer m.mu.RUnlock()
	if c.vals == nil {
		// Size the store by the first registry: replicas of one cell
		// mostly hold the same instruments.
		counted := m.countedBlockCounters()
		c.vals = make([]int64, 0, (len(m.counters)+3*len(m.hists)+counted)*c.rows)
		c.plain = make(map[string]int, len(m.counters))
		c.hists = make(map[string]int, len(m.hists))
		c.procs = make(map[procCol]int, counted)
	}
	for name, ctr := range m.counters {
		c.vals[column(c, c.plain, name, 1)+r] = ctr.n.Load()
	}
	for name, h := range m.hists {
		o := column(c, c.hists, name, 3) + r
		c.vals[o] = h.count.Load()
		c.vals[o+c.rows] = h.sum.Load()
		c.vals[o+2*c.rows] = h.max.Load()
	}
	for i := range m.blocks {
		b := &m.blocks[i]
		for j := range b.c {
			if v := b.c[j].n.Load(); v != 0 {
				// Two blocks of one (set, proc) add, as in Snapshot.
				c.vals[column(c, c.procs, procCol{b.set, b.proc, j}, 1)+r] += v
			}
		}
	}
}

// column returns the offset of k's first column in c.vals, adding width
// zeroed columns for k on first sight.
func column[K comparable](c *Columns, index map[K]int, k K, width int) int {
	if o, ok := index[k]; ok {
		return o
	}
	o, n := len(c.vals), len(c.vals)+width*c.rows
	if n > cap(c.vals) {
		// By hand: in a race build, append(s, make(...)...) also
		// allocates the temporary.
		grown := make([]int64, n, max(n, 2*cap(c.vals)))
		copy(grown, c.vals)
		c.vals = grown
	} else {
		c.vals = c.vals[:n]
		clear(c.vals[o:])
	}
	index[k] = o
	return o
}

// Series returns, under each Snapshot name, the values of the registries
// recorded so far, in recording order: a registry without the name reads
// 0. Instruments that share a name, such as two sets that name one
// counter or a plain counter and a block counter of one name, are
// summed, as Snapshot sums them. Each name is formatted once, however
// many registries were recorded. The series may share c's storage, so
// callers must not modify them.
func (c *Columns) Series() map[string][]int64 {
	out := make(map[string][]int64, len(c.plain)+3*len(c.hists)+len(c.procs))
	add := func(name string, o int) {
		s := c.vals[o : o+c.n : o+c.n]
		if prev, ok := out[name]; ok {
			sum := make([]int64, c.n)
			for r := range sum {
				sum[r] = prev[r] + s[r]
			}
			s = sum
		}
		out[name] = s
	}
	for name, o := range c.plain {
		add(name, o)
	}
	for name, o := range c.hists {
		add(name+"_count", o)
		add(name+"_sum_ns", o+c.rows)
		add(name+"_max_ns", o+2*c.rows)
	}
	var buf []byte
	for k, o := range c.procs {
		buf = append(buf[:0], k.set.names[k.j]...)
		buf = appendProcSuffix(buf, k.proc)
		add(string(buf), o)
	}
	return out
}
