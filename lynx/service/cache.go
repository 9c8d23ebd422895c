package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/lynx/grid"
	"repro/lynx/sweep"
)

// cellCache memoizes completed grid cells across jobs. The key commits
// to everything that determines a cell's aggregate — the body identity
// (workload kind plus every parameter outside the axes), the cell's
// axis-order-independent coordinates, the replica count, and the exact
// replica seeds — so a hit is byte-equivalent to a re-run by
// construction, and repeated or overlapping sweeps only pay for the
// cells they have not seen. Aggregates are stored by reference and must
// never be mutated after insertion (the grid runner's Hook contract).
//
// Eviction is FIFO at a fixed entry bound: the daemon's steady state is
// many clients resubmitting recent sweeps, where insertion order is a
// good-enough recency proxy and the bookkeeping stays O(1).
type cellCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*sweep.Aggregate
	order   []string
}

func newCellCache(max int) *cellCache {
	return &cellCache{max: max, entries: map[string]*sweep.Aggregate{}}
}

// cellKey derives the cache key of one cell run: a SHA-256 over the
// body identity, canonical cell coordinates, replica count, and the
// exact seeds grid.Run will hand the replicas. Including the seeds
// makes hits exact rather than heuristic — two sweeps share a cell only
// when the cell would genuinely reproduce byte-identically.
func cellKey(bodyID string, c grid.Cell, replicas int, root uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|R=%d", bodyID, c.CanonicalKey(), replicas)
	for k := 0; k < replicas; k++ {
		fmt.Fprintf(h, "|%d", sweep.CellSeed(root, c.Index, k))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (cc *cellCache) get(key string) (*sweep.Aggregate, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	agg, ok := cc.entries[key]
	return agg, ok
}

func (cc *cellCache) put(key string, agg *sweep.Aggregate) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.entries[key]; ok {
		return
	}
	for len(cc.entries) >= cc.max && len(cc.order) > 0 {
		oldest := cc.order[0]
		cc.order = cc.order[1:]
		delete(cc.entries, oldest)
	}
	cc.entries[key] = agg
	cc.order = append(cc.order, key)
}

// len reports the number of cached cells.
func (cc *cellCache) len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}
