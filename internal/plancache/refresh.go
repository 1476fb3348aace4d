package plancache

import (
	"math"

	"heteropart/internal/core"
	"heteropart/internal/speed"
)

// Selective invalidation for one-processor model refreshes.
//
// The partitioner's result is the canonical stable allocation: fineTune's
// stabilize pass runs until no donor/receiver move (strict or tie-breaking)
// fires, and that termination predicate consults processor i only through
// its integer time samples t_i(x) = x / f_i.Eval(x) at x = alloc[i] and
// x = alloc[i]+1 plus its cap floor(MaxSize) (see core/finetune.go). So
// when processor k's speed function is replaced, a cached allocation is
// provably unchanged as long as the replacement agrees bit-for-bit with
// the old function at those two sample points and k's cap eligibility is
// unchanged: the stability predicate evaluates identically under the new
// model, and since the canonical stable allocation for (n, model) is
// unique, a cold recompute must return the very same integers. Everything
// else about the two functions — shape elsewhere, where the bisection
// would have searched — only affects the search path, which stabilize
// erases.
//
// This is what lets Refresh keep most of a warm cache across a drift
// event instead of dropping to 0% hits: plans whose allocation for the
// drifted processor sits outside the changed region survive verbatim, and
// only the rest recompute. A kept plan's slope and Stats are the ones
// computed under the old model; only its allocation is provably the new
// model's. It keeps its encoding too: the bytes do not name the model.

// SurvivesProc reports whether a cached allocation that assigns x elements
// to a processor is provably unaffected by replacing that processor's
// speed function oldFn with newFn. The rule is conservative: false means
// "could change", not "does change".
func SurvivesProc(x int64, oldFn, newFn speed.Function) bool {
	capOld := int64(math.Floor(oldFn.MaxSize()))
	capNew := int64(math.Floor(newFn.MaxSize()))
	if x > capNew {
		// The allocation is no longer feasible for this processor.
		return false
	}
	if (x < capOld) != (x < capNew) {
		// Receiver eligibility flipped: stabilize probes t(x+1) only while
		// x < cap, so gaining or losing headroom can move the fixed point.
		return false
	}
	if x > 0 && !sameEval(oldFn, newFn, float64(x)) {
		return false
	}
	if x < capNew && !sameEval(oldFn, newFn, float64(x+1)) {
		return false
	}
	return true
}

// sameEval reports bit-identical speed at size x, the equality stabilize's
// time samples inherit (x/Eval(x) is deterministic in the Eval bits).
func sameEval(oldFn, newFn speed.Function, x float64) bool {
	return math.Float64bits(oldFn.Eval(x)) == math.Float64bits(newFn.Eval(x))
}

// planSurvives applies SurvivesProc at every changed processor index.
func planSurvives(alloc core.Allocation, changed []int, oldFns, newFns []speed.Function) bool {
	if len(alloc) != len(newFns) {
		return false
	}
	for _, p := range changed {
		if p < 0 || p >= len(alloc) {
			return false
		}
		if !SurvivesProc(alloc[p], oldFns[p], newFns[p]) {
			return false
		}
	}
	return true
}

// Refresh migrates the cache across an in-place model refresh from old to
// new (same processor count, typically one changed function). Plans
// that provably cannot change (SurvivesProc at every changed index) are
// re-keyed to the new fingerprint and kept; the rest are dropped. The old
// model's plans waiting in the admission windows are dropped, uncounted.
// Returns how many plans were kept and dropped.
//
// The changed processors come from the handles' per-processor
// fingerprints, so a refresh hashes nothing.
//
// Refresh works in read-only mode: like Import and InvalidateFingerprint
// it IS the write path while a replica mirrors its primary's delta
// records. It never fires the insert tap — the store logs the delta record
// itself and applies the same survival rule, so the WAL stays O(one
// processor) per refresh instead of O(surviving plans).
func (c *Cache) Refresh(old, new *speed.Model) (kept, dropped int) {
	oldFP, newFP := old.Fingerprint(), new.Fingerprint()
	if oldFP == newFP {
		return 0, 0
	}
	changed, ok := speed.Diff(old, new)
	if !ok {
		// Processor count changed: no allocation can carry over.
		return 0, c.InvalidateFingerprint(oldFP)
	}
	c.refreshes.Add(1)

	var moved []*entry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.model != oldFP {
				continue
			}
			sh.unlink(e)
			delete(sh.entries, k)
			if planSurvives(e.res.Alloc, changed, old.Fns(), new.Fns()) {
				moved = append(moved, e)
			} else {
				dropped++
			}
		}
		if sh.win != nil {
			sh.win.dropModel(oldFP)
		}
		sh.mu.Unlock()
	}

	// Survivors re-insert under the new fingerprint; the key hash changes,
	// so an entry can land on a different shard than it came from.
	for _, e := range moved {
		k := e.k
		k.model = newFP
		h := k.hash()
		sh := &c.shards[h&(numShards-1)]
		sh.mu.Lock()
		evicted, inserted := sh.insert(k, e.res, e.enc)
		c.evictions.Add(evicted)
		sh.mu.Unlock()
		if inserted {
			kept++
		}
	}

	c.refreshKept.Add(uint64(kept))
	c.refreshDropped.Add(uint64(dropped))
	return kept, dropped
}
