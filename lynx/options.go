package lynx

import sodabind "repro/internal/bind/soda"

// SODAOptions are the knobs specific to the SODA substrate. The zero
// value inherits every default (move cache of 64 entries, 250 ms hint
// timeout, 3 discover retries, freeze fallback enabled). Fields whose
// useful setting is zero use a negative sentinel to distinguish "off"
// from "default".
type SODAOptions struct {
	// CacheSize is the move-cache capacity in entries. 0 = default (64);
	// negative = cache disabled.
	CacheSize int
	// HintTimeout is how long a put chases stale hints before falling
	// back to discovery. 0 = default (250 ms).
	HintTimeout Duration
	// DiscoverRetries is the number of discover broadcasts before the
	// freeze fallback. 0 = default (3); negative = discovery disabled.
	DiscoverRetries int
	// DisableFreeze turns off the absolute-search fallback (E10's
	// "freeze" mechanism), which is on by default.
	DisableFreeze bool
}

// ChrysalisOptions are the knobs specific to the Chrysalis substrate.
// The zero value inherits every default.
type ChrysalisOptions struct {
	// Tuned applies the §5.3 "30-40%" optimizations (E9).
	Tuned bool
}

// normalized resolves defaults.
func (cfg Config) normalized() Config {
	// SimWorkers <= 0 is the serial default; the value never affects
	// results (see Config.SimWorkers), only wall-clock execution.
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = 1
	}
	return cfg
}

// bindConfig lowers the options onto the SODA binding's config struct.
func (o SODAOptions) bindConfig() sodabind.Config {
	c := sodabind.DefaultConfig()
	switch {
	case o.CacheSize > 0:
		c.CacheSize = o.CacheSize
	case o.CacheSize < 0:
		c.CacheSize = 0
	}
	if o.HintTimeout > 0 {
		c.HintTimeout = o.HintTimeout
	}
	switch {
	case o.DiscoverRetries > 0:
		c.DiscoverRetries = o.DiscoverRetries
	case o.DiscoverRetries < 0:
		c.DiscoverRetries = 0
	}
	if o.DisableFreeze {
		c.EnableFreeze = false
	}
	return c
}
