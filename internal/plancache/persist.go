package plancache

import (
	"heteropart/internal/core"
)

// Persistence surface of the cache: the store (internal/store) snapshots
// cache contents and replays them into a fresh cache after a restart, and
// taps the cache for its write-ahead log. Records carry the cache key in
// its exported form (model fingerprint, n, algorithm, options hash) plus
// the full Result, so an imported plan is served bit-identically to the one
// the pre-crash process computed.

// PlanRecord is one cached plan in exportable form.
type PlanRecord struct {
	Model   uint64         // the cluster model's fingerprint
	N       int64          // problem size
	Algo    core.Algorithm // partitioning algorithm
	OptsKey uint64         // core.OptionsKey of the option list
	Slope   float64        // Result.Slope
	Alloc   core.Allocation
	Stats   core.Stats
}

// Valid reports whether the record can be served as a correct plan: the
// allocation must be non-empty and sum exactly to N. Import and the store's
// replay both gate on it — a corrupted or stale record is dropped, never
// served. Each share is bounded by what N leaves, so the sum never
// overflows int64.
func (r PlanRecord) Valid() bool {
	if len(r.Alloc) == 0 || r.N < 0 {
		return false
	}
	var sum int64
	for _, x := range r.Alloc {
		if x < 0 || x > r.N-sum {
			return false
		}
		sum += x
	}
	return sum == r.N
}

// entry returns the record's cache key and a Result owning a private copy
// of its allocation.
func (r PlanRecord) entry() (key, core.Result) {
	return key{model: r.Model, n: r.N, algo: r.Algo, opts: r.OptsKey}, core.Result{
		Slope: r.Slope,
		Alloc: append(core.Allocation(nil), r.Alloc...),
		Stats: r.Stats,
	}
}

// HintRecord is one warm-start hint in exportable form.
type HintRecord struct {
	Model uint64
	N     int64
	Slope float64
}

// SetInsertTap installs fn to be called after every admitted insertion with
// the inserted plan (its Alloc is a private copy). The tap runs on the
// computing goroutine outside any cache lock, only on the miss path —
// exact hits never see it — so a persistence layer can append a WAL record
// without touching the hot path. Install taps before serving traffic; a nil
// fn removes the tap.
func (c *Cache) SetInsertTap(fn func(PlanRecord)) {
	if fn == nil {
		c.insertTap.Store(nil)
		return
	}
	c.insertTap.Store(&fn)
}

// Export snapshots the cache contents: every resident plan (least recently
// used first, so replaying them in order re-creates the LRU order) and
// every warm-start hint. Allocations are private copies.
func (c *Cache) Export() ([]PlanRecord, []HintRecord) {
	var plans []PlanRecord
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for e := sh.tail; e != nil; e = e.prev {
			plans = append(plans, PlanRecord{
				Model: e.k.model, N: e.k.n, Algo: e.k.algo, OptsKey: e.k.opts,
				Slope: e.res.Slope, Alloc: append(core.Allocation(nil), e.res.Alloc...),
				Stats: e.res.Stats,
			})
		}
		sh.mu.Unlock()
	}
	var hints []HintRecord
	c.warm.mu.Lock()
	for model, hs := range c.warm.models {
		for _, h := range hs {
			hints = append(hints, HintRecord{Model: model, N: h.n, Slope: h.slope})
		}
	}
	c.warm.mu.Unlock()
	return plans, hints
}

// Import seeds the cache with previously exported plans and hints,
// returning how many plans were installed. Records failing Valid and
// duplicates of resident entries are skipped. Imported plans bypass the
// doorkeeper (they were admitted by the previous process) and do not fire
// the insert tap (the store already has them).
func (c *Cache) Import(plans []PlanRecord, hints []HintRecord) int {
	var installed int
	for _, r := range plans {
		if !r.Valid() {
			continue
		}
		k, res := r.entry()
		sh := &c.shards[k.hash()&(numShards-1)]
		sh.mu.Lock()
		evicted, inserted := sh.insert(k, res)
		sh.mu.Unlock()
		c.evictions.Add(evicted)
		if inserted {
			installed++
		}
	}
	for _, h := range hints {
		if h.N > 0 {
			c.rememberHint(h.Model, h.N, h.Slope)
		}
	}
	return installed
}
