package obs

import "testing"

// columnsCases returns registries that cover what a column store must
// name and sum: the random replicas of replicaPair, and explicit ones
// with two sets that share a name, two blocks of one (set, proc), a
// plain counter named like a block counter, a counter named like a
// histogram's count, a block counter that never counts, and no
// instruments at all.
func columnsCases() []*Metrics {
	never := NewCounterSet("never_total")
	var regs []*Metrics
	for seed := int64(1); seed <= 6; seed++ {
		m, _ := replicaPair(seed)
		m.ProcCounters(never, 1)
		regs = append(regs, m)
	}

	shared := NewMetrics()
	shared.ProcCounters(diffSetA, 1).Counter("b_total").Add(2)
	shared.ProcCounters(diffSetB, 1).Counter("b_total").Add(3)
	twice := NewMetrics()
	twice.ProcCounters(diffSetA, 4).Counter("c_total").Add(5)
	twice.ProcCounters(diffSetA, 4).Counter("c_total").Add(6)
	twice.ProcCounters(never, 4)
	alias := NewMetrics()
	alias.Counter(procKey("e_total", 7)).Add(11)
	alias.ProcCounters(diffSetC, 7).Counter("e_total").Add(13)
	alias.Counter("lat_count").Add(17)
	alias.Histogram("lat").Observe(19)
	return append(regs, shared, NewMetrics(), twice, alias)
}

// TestColumnsMatchSnapshots checks that each recorded registry's values
// in Series equal its own Snapshot, a key it lacks reading 0, and that
// Series names exactly the keys of the snapshots.
func TestColumnsMatchSnapshots(t *testing.T) {
	regs := columnsCases()
	c := NewColumns(len(regs))
	snaps := make([]map[string]int64, len(regs))
	keys := map[string]bool{}
	for i, m := range regs {
		snaps[i] = m.Snapshot()
		for k := range snaps[i] {
			keys[k] = true
		}
		c.Record(m)
	}
	series := c.Series()
	if len(series) != len(keys) {
		t.Errorf("Series has %d names, the snapshots %d", len(series), len(keys))
	}
	for k := range keys {
		s, ok := series[k]
		if !ok {
			t.Errorf("Series lacks %s", k)
			continue
		}
		if len(s) != len(regs) {
			t.Fatalf("%s: %d values, want %d", k, len(s), len(regs))
		}
		for i, snap := range snaps {
			if s[i] != snap[k] {
				t.Errorf("%s in registry %d: %d, Snapshot reads %d", k, i, s[i], snap[k])
			}
		}
	}
	for _, k := range []string{procKey("never_total", 1), procKey("never_total", 4)} {
		if _, ok := series[k]; ok {
			t.Errorf("Series names %s, which never counted", k)
		}
	}
	// The explicit registries sum what shares a name.
	n := len(regs)
	for _, w := range []struct {
		key string
		reg int
		v   int64
	}{
		{procKey("b_total", 1), n - 4, 5},
		{procKey("c_total", 4), n - 2, 11},
		{procKey("e_total", 7), n - 1, 24},
		{"lat_count", n - 1, 18},
	} {
		if got := series[w.key][w.reg]; got != w.v {
			t.Errorf("%s in registry %d = %d, want %d", w.key, w.reg, got, w.v)
		}
	}
}

// An empty store, and one that recorded only registries without
// instruments, has no series.
func TestColumnsEmpty(t *testing.T) {
	if s := NewColumns(0).Series(); len(s) != 0 {
		t.Fatalf("empty store: %v", s)
	}
	c := NewColumns(2)
	c.Record(NewMetrics())
	c.Record(nil)
	c.Record(NewMetrics())
	if s := c.Series(); len(s) != 0 {
		t.Fatalf("store of empty registries: %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("recording past the store's room did not panic")
		}
	}()
	c.Record(NewMetrics())
}
