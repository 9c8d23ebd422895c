package service

import (
	"fmt"
	"testing"

	"repro/lynx/sweep"
)

func TestCellCacheHitMissAndStats(t *testing.T) {
	cc := newCellCache(4)
	if _, ok := cc.get("k1"); ok {
		t.Fatal("empty cache must miss")
	}
	agg := &sweep.Aggregate{}
	cc.put("k1", agg)
	got, ok := cc.get("k1")
	if !ok || got != agg {
		t.Fatal("cache must return the stored aggregate by reference")
	}
	if n := cc.len(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

func TestCellCacheFIFOEviction(t *testing.T) {
	cc := newCellCache(2)
	for i := 0; i < 3; i++ {
		cc.put(fmt.Sprintf("k%d", i), &sweep.Aggregate{})
	}
	if _, ok := cc.get("k0"); ok {
		t.Fatal("oldest entry must be evicted at the bound")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := cc.get(k); !ok {
			t.Fatalf("entry %s must survive", k)
		}
	}
}

func TestCellCacheDuplicatePutKeepsFirst(t *testing.T) {
	cc := newCellCache(2)
	first := &sweep.Aggregate{}
	cc.put("k", first)
	cc.put("k", &sweep.Aggregate{})
	got, _ := cc.get("k")
	if got != first {
		t.Fatal("duplicate put must keep the first aggregate")
	}
	if n := cc.len(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}
