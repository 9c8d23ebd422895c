package obs

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Counter is a monotonically-increasing named count. The nil *Counter
// is a valid no-op, so hot paths can increment unconditionally even
// when no registry is attached. Increments are atomic: shard envs of a
// parallel partition bump shared counters concurrently, and addition
// commutes, so totals are independent of worker interleaving.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Histogram accumulates virtual-time durations: count/sum/min/max plus
// log2 buckets (bucket i counts observations in [2^i, 2^(i+1)) ns).
// The nil *Histogram is a valid no-op. Like Counter, observations are
// atomic and commutative (adds plus monotone extrema CAS), so parallel
// shard envs can observe into one histogram and land identical state
// regardless of interleaving.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// minPlus holds min+1 so the zero value still means "no
	// observations yet" (observed values are clamped >= 0).
	minPlus atomic.Int64
	max     atomic.Int64
	buckets [48]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.lowerMin(v + 1)
	h.raiseMax(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// lowerMin lowers minPlus to vp unless an equal-or-lower value is set.
func (h *Histogram) lowerMin(vp int64) {
	for {
		cur := h.minPlus.Load()
		if cur != 0 && cur <= vp {
			return
		}
		if h.minPlus.CompareAndSwap(cur, vp) {
			return
		}
	}
}

// raiseMax raises max to v unless an equal-or-higher value is set.
func (h *Histogram) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if cur >= v {
			return
		}
		if h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.sum.Load())
}

// Mean returns the average observed duration (0 when empty).
func (h *Histogram) Mean() sim.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return sim.Duration(h.sum.Load() / n)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() sim.Duration {
	if h == nil {
		return 0
	}
	return sim.Duration(h.max.Load())
}

// Min returns the smallest observed duration (0 when empty).
func (h *Histogram) Min() sim.Duration {
	if h == nil {
		return 0
	}
	mp := h.minPlus.Load()
	if mp == 0 {
		return 0
	}
	return sim.Duration(mp - 1)
}

// Merge folds other's observations into h: counts and sums add, the
// extrema widen, and the log2 buckets merge element-wise. Merging
// replica histograms this way is exact for count/sum/min/max and
// bucket-resolution for quantiles. No-op when other is nil or empty.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.count.Load() == 0 {
		return
	}
	if omp := other.minPlus.Load(); omp != 0 {
		h.lowerMin(omp)
	}
	h.raiseMax(other.max.Load())
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(other.buckets[i].Load())
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the log2 buckets,
// interpolating linearly inside the bucket the rank lands in. Bucket i
// holds observations in [2^(i-1), 2^i), so the estimate is exact to
// within a factor of two — adequate for the p50/p95/p99 columns of
// sweep reports, where replica-to-replica spread dominates.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	max, min := h.max.Load(), int64(h.Min())
	rank := q * float64(h.count.Load())
	var seen float64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - seen) / float64(n)
			v := float64(lo) + frac*float64(hi-lo)
			if v > float64(max) {
				v = float64(max)
			}
			if v < float64(min) {
				v = float64(min)
			}
			return sim.Duration(v)
		}
		seen += float64(n)
	}
	return sim.Duration(max)
}

// bucketBounds returns the value range [lo, hi) covered by log2 bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// Metrics is a registry of named counters and histograms, plus blocks
// of per-process counters (ProcCounters) that are stored unnamed, read
// back by ProcValue, and named name{proc=N} only by Snapshot and Names,
// and only once they have counted: a missing name reads 0.
// Instrument updates are atomic (parallel shard envs increment shared
// instruments concurrently), and the registry's tables are guarded by
// a read-write lock so instruments may also be created mid-run — a
// process launched into a running partition allocates its per-process
// counters while other shards execute. Kernels resolve their
// fixed-name instruments once, at construction, so hot paths stay on
// cached handles. The nil *Metrics hands out nil (no-op) instruments,
// which is the cheap default the instrumentation relies on.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	// blocks are the per-process counter blocks, in creation order.
	// index maps blocks[:indexed] by set and process for Merge; it
	// exists only in registries that have been merged into.
	blocks  []procBlock
	index   map[blockKey]int
	indexed int
	// scratch holds the entry lists of the registry last merged into m,
	// cleared, for the next merge to refill; nil while a merge has them.
	scratch *mergeScratch
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c, ok := m.counters[name]
	m.mu.RUnlock()
	if ok {
		return c
	}
	m.mu.Lock()
	if c, ok = m.counters[name]; !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	m.mu.Unlock()
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h, ok := m.hists[name]
	m.mu.RUnlock()
	if ok {
		return h
	}
	m.mu.Lock()
	if h, ok = m.hists[name]; !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	m.mu.Unlock()
	return h
}

// Value returns the named plain counter's value without creating it;
// per-process block counters are read by ProcValue.
func (m *Metrics) Value(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.counters[name].Value()
}

// Snapshot flattens the registry into name→value pairs: counters under
// their own names, histograms as name_count / name_sum_ns /
// name_max_ns, and each per-process block counter that has counted as
// name{proc=N}. A block counter still at 0 has no key, and reads 0 as a
// missing key, as it does through ProcValue; plain counters are listed
// at 0 too. Instruments whose names coincide (a plain and a block
// counter, or a counter and a histogram's derived name) share one key
// holding their sum. Iteration order is irrelevant (it is a map), but
// the content is deterministic for a deterministic run.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	out := make(map[string]int64, len(m.counters)+3*len(m.hists)+m.countedBlockCounters())
	for name, c := range m.counters {
		out[name] = c.n.Load()
	}
	// Each block's counted names are formatted into one string; the map
	// keys are substrings of it.
	var buf []byte
	for i := range m.blocks {
		b := &m.blocks[i]
		var f formatted
		buf, f = b.format(buf)
		for mask := f.mask; mask != 0; mask &= mask - 1 {
			j := bits.TrailingZeros64(mask)
			out[f.name(b.set, j)] += b.c[j].n.Load()
		}
	}
	for name, h := range m.hists {
		out[name+"_count"] += h.count.Load()
		out[name+"_sum_ns"] += h.sum.Load()
		out[name+"_max_ns"] += h.max.Load()
	}
	m.mu.RUnlock()
	return out
}

// countedBlockCounters counts the nonzero counters held in blocks
// (caller holds the lock).
func (m *Metrics) countedBlockCounters() int {
	n := 0
	for i := range m.blocks {
		for j := range m.blocks[i].c {
			if m.blocks[i].c[j].n.Load() != 0 {
				n++
			}
		}
	}
	return n
}

// Merge folds every counter and histogram of other into m, creating
// instruments on first sight: counters sum, histograms bucket-merge,
// and per-process blocks carry across unnamed.
// Addition commutes, so merging replica registries in any order yields
// the same pooled registry — what lets a parallel sweep aggregate
// per-run metrics independently of worker scheduling. No-op on a nil
// receiver or other.
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	sc := m.collect(other)
	m.mergeCounters(sc.counters)
	for _, e := range sc.hists {
		m.Histogram(e.name).Merge(e.h)
	}
	m.mergeBlocks(sc.blocks)
	m.putScratch(sc)
}

// mergeCounters adds counters (copied out of another registry) into
// m's, creating the ones m lacks in one slab.
func (m *Metrics) mergeCounters(counters []counterEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	missing := 0
	for _, e := range counters {
		if c, ok := m.counters[e.name]; ok {
			c.n.Add(e.c.n.Load())
		} else {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	slab := make([]Counter, missing)
	for _, e := range counters {
		if _, ok := m.counters[e.name]; !ok {
			c := &slab[0]
			slab = slab[1:]
			c.n.Store(e.c.n.Load())
			m.counters[e.name] = c
		}
	}
}

type counterEntry struct {
	name string
	c    *Counter
}

type histEntry struct {
	name string
	h    *Histogram
}

// mergeScratch is a snapshot of one registry's entries, taken so that
// merges never hold two registry locks at once.
type mergeScratch struct {
	counters []counterEntry
	hists    []histEntry
	blocks   []procBlock
}

// collect snapshots other's entries into m's scratch lists, so merging
// many registries into m allocates the lists once. Concurrent merges
// into m find the lists taken and make their own.
func (m *Metrics) collect(other *Metrics) *mergeScratch {
	m.mu.Lock()
	sc := m.scratch
	m.scratch = nil
	m.mu.Unlock()
	if sc == nil {
		sc = &mergeScratch{}
	}
	other.mu.RLock()
	for name, c := range other.counters {
		sc.counters = append(sc.counters, counterEntry{name, c})
	}
	for name, h := range other.hists {
		sc.hists = append(sc.hists, histEntry{name, h})
	}
	sc.blocks = append(sc.blocks, other.blocks...)
	other.mu.RUnlock()
	return sc
}

// putScratch clears sc, so m keeps nothing of the merged registry
// reachable, and gives it back to m.
func (m *Metrics) putScratch(sc *mergeScratch) {
	clear(sc.counters)
	clear(sc.hists)
	clear(sc.blocks)
	sc.counters, sc.hists, sc.blocks = sc.counters[:0], sc.hists[:0], sc.blocks[:0]
	m.mu.Lock()
	m.scratch = sc
	m.mu.Unlock()
}

// Names returns every counter and histogram name, sorted (for render
// and debugging): the keys of Snapshot, with each histogram under its
// base name. A per-process block counter is listed once it has counted.
// A name held by several blocks, or by a block and a plain counter, is
// one counter and is listed once; a histogram that shares a counter's
// name is listed beside it. The three kinds of name are each sorted on
// their own and then merged.
func (m *Metrics) Names() []string {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	plain := sortedKeys(m.counters)
	hists := sortedKeys(m.hists)
	names := m.blockNames(len(plain) + len(hists))
	names = slices.Compact(mergeSorted(names, plain))
	return mergeSorted(names, hists)
}

// sortedKeys returns the map's keys, sorted.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mergeSorted merges the sorted b into the sorted a, in place when a
// has the capacity, and returns the merged slice. Each name of b is
// placed by binary search, and each name of a moves once.
func mergeSorted(a, b []string) []string {
	n := len(a)
	a = slices.Grow(a, len(b))[:n+len(b)]
	for j := len(b) - 1; j >= 0; j-- {
		i, _ := slices.BinarySearch(a[:n], b[j])
		copy(a[i+j+1:], a[i:n])
		a[i+j] = b[j]
		n = i
	}
	return a
}
