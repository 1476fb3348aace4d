package plancache

import (
	"heteropart/internal/core"
)

// Persistence surface of the cache: the store (internal/store) taps the
// cache for its write-ahead log, and replays the plans it holds into a
// fresh cache after a restart. Records carry the cache key in
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

// Import seeds the cache with previously stored plans, returning how many
// were installed. Records failing Valid and duplicates of resident entries
// are skipped. Imported plans bypass the doorkeeper (they were admitted by
// the previous process), do not fire the insert tap (the store already
// has them) and are formatted on their first hit, not here.
func (c *Cache) Import(plans []PlanRecord) int {
	var installed int
	for _, r := range plans {
		if !r.Valid() {
			continue
		}
		k, res := r.entry()
		sh := &c.shards[k.hash()&(numShards-1)]
		sh.mu.Lock()
		evicted, inserted := sh.insert(k, res, Encoding{})
		sh.mu.Unlock()
		c.evictions.Add(evicted)
		if inserted {
			installed++
		}
	}
	return installed
}
