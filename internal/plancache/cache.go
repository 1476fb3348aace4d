// Package plancache caches partition plans. The partitioner is cheap but
// not free, and the dominant production workload — dynamic repartitioning
// loops and per-request partition decisions — asks for the same or nearly
// the same plan over and over. The cache serves three tiers:
//
//   - exact hit: the plan for (cluster-model fingerprint, n, options) was
//     computed before and is returned as a copy, no geometry at all;
//   - shared miss: another goroutine is computing exactly this plan right
//     now; the request waits for that single computation (singleflight)
//     instead of duplicating it;
//   - miss: the plan is computed.
//
// A computed plan is a pure function of its key: a request that names no
// bisection rule is computed with the safeguarded regula-falsi search
// (geometry.BisectRegulaFalsi), which needs no seed from earlier plans, so
// its allocation, slope bits and Stats do not depend on what the cache
// served before. The allocation equals tangent bisection's (core.Combined's
// default) bit for bit.
//
// With an encoder installed (SetEncoder), every plan the cache holds carries
// its reply bytes, formatted once outside any shard lock and never written
// again, so a caller that answers with them (Peek, GetEncoded) copies bytes
// instead of formatting the plan on every answer.
//
// With the admission policy on (Config.Doorkeeper), a plan enters the LRU
// only on its second ask: the first miss's plan waits in a small per-shard
// admission window, and the second ask admits it from there as a hit. That
// answer is the first miss's plan bit for bit; the plan is not computed
// again.
//
// Models arrive as speed.Model handles and are keyed by the handle's
// fingerprint, which hashes function values, not object identity: two
// handles built from equal functions share plans, and a probe never
// rehashes a model. When a model drifts (speed.Drift flags it stale),
// Refresh migrates its plans to the refreshed handle, or
// InvalidateFingerprint drops every plan derived from it.
//
// The cache is sharded by key hash: each shard has its own mutex, LRU list
// and in-flight table, so concurrent requests for different plans do not
// serialize. Sharding includes n, not just the model, because the expected
// workload is many sizes against one cluster model.
package plancache

import (
	"sync"
	"sync/atomic"

	"heteropart/internal/core"
	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

const (
	// numShards is a power of two so shard selection is a mask.
	numShards = 16
	// DefaultCapacity is the default total number of cached plans.
	DefaultCapacity = 4096
	// doorkeeperScale sizes each shard's doorkeeper generation relative to
	// its LRU capacity: remembering 8× more once-seen keys than resident
	// plans lets a second miss arrive well after the first even under churn.
	doorkeeperScale = 8
	// windowScale sizes each shard's admission window: perShard/windowScale
	// slots, at least windowMin, so the plans waiting for their second ask
	// hold at most an eighth of the LRU's plan count.
	windowScale = 8
	windowMin   = 4
)

// servedOpts is the option list a request with no options runs with, and
// servedKey its options hash.
var (
	servedOpts = []core.Option{core.WithBisection(geometry.BisectRegulaFalsi)}
	servedKey  = core.OptionsKey(servedOpts...)
)

// served derives a request's plan key options hash and the options a miss
// computes it with: the request's options behind the regula-falsi rule, so
// a rule the request names still wins. A request naming tangents therefore
// keys and computes as the paper's default. buf is storage the run options
// may use; a request with no options needs none, and its key is a constant.
func served(buf, opts []core.Option) (uint64, []core.Option) {
	if len(opts) == 0 {
		return servedKey, servedOpts
	}
	run := append(append(buf[:0], servedOpts...), opts...)
	return core.OptionsKey(run...), run
}

// key identifies one plan.
type key struct {
	model uint64 // the cluster model's fingerprint
	n     int64
	algo  core.Algorithm
	opts  uint64 // core.OptionsKey of the option list a miss runs with (see served)
}

// hash mixes the key fields into a shard/index hash (splitmix64 over the
// xor-fold of the fields).
func (k key) hash() uint64 {
	x := k.model ^ uint64(k.n)*0x9e3779b97f4a7c15 ^ uint64(k.algo)<<32 ^ k.opts
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// entry is one cached plan in a shard's LRU list.
type entry struct {
	k          key
	res        core.Result
	enc        Encoding
	prev, next *entry
}

// call is an in-flight computation other requests can wait on. done is
// created lazily, under the shard lock, by the first waiter — the common
// uncontended miss never allocates a channel — and the computing goroutine
// closes it only if it exists. A call that attracted no waiter is recycled
// through the call pool; one that did is abandoned to its waiters (they
// read res/enc/err at their leisure after done closes).
type call struct {
	done chan struct{}
	res  core.Result
	enc  Encoding
	err  error
}

// doorkeeper is a two-generation membership filter implementing the cache
// admission policy: a plan is only inserted once its key has missed before,
// so one-shot sizes never displace resident plans. Generations rotate when
// the current one fills, bounding memory while keeping recent history.
type doorkeeper struct {
	cap       int
	cur, prev map[uint64]struct{}
}

func (d *doorkeeper) seen(h uint64) bool {
	if _, ok := d.cur[h]; ok {
		return true
	}
	_, ok := d.prev[h]
	return ok
}

func (d *doorkeeper) remember(h uint64) {
	if len(d.cur) >= d.cap {
		d.prev, d.cur = d.cur, make(map[uint64]struct{}, d.cap)
	}
	d.cur[h] = struct{}{}
}

// window is a shard's admission window, the A1in queue of 2Q (Johnson and
// Shasha, VLDB 1994): a fixed-size FIFO of the first-miss plans the
// doorkeeper kept out of the LRU. A second ask takes its plan from here
// and admits it instead of partitioning again. A full window overwrites
// its own oldest slot, never an LRU resident.
type window struct {
	slots []winSlot
	index map[key]int // key -> its slot
	next  int         // the slot the next push overwrites
}

type winSlot struct {
	k    key
	res  core.Result
	enc  Encoding
	used bool
}

func (w *window) push(k key, res core.Result, enc Encoding) {
	s := &w.slots[w.next]
	if s.used {
		delete(w.index, s.k)
	}
	*s = winSlot{k: k, res: res, enc: enc, used: true}
	w.index[k] = w.next
	w.next = (w.next + 1) % len(w.slots)
}

// take removes k's plan and its encoding from the window.
func (w *window) take(k key) (core.Result, Encoding, bool) {
	i, ok := w.index[k]
	if !ok {
		return core.Result{}, Encoding{}, false
	}
	s := w.slots[i]
	delete(w.index, k)
	w.slots[i] = winSlot{}
	return s.res, s.enc, true
}

// dropModel empties the slots holding plans of one model.
func (w *window) dropModel(model uint64) {
	for i := range w.slots {
		if s := &w.slots[i]; s.used && s.k.model == model {
			delete(w.index, s.k)
			*s = winSlot{}
		}
	}
}

func (w *window) reset() {
	clear(w.slots)
	clear(w.index)
	w.next = 0
}

// shard is an independently locked slice of the cache.
type shard struct {
	mu       sync.Mutex
	entries  map[key]*entry
	inflight map[key]*call
	// Intrusive LRU list: head is most recent, tail least.
	head, tail *entry
	cap        int
	// door and win are nil unless the admission policy is enabled.
	door *doorkeeper
	win  *window
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits          uint64 // exact hits: served from the LRU or admitted from the admission window
	Misses        uint64 // plans computed
	Shared        uint64 // requests that waited on another's computation
	Evictions     uint64 // entries dropped by LRU pressure
	Invalidations uint64 // entries dropped by InvalidateFingerprint
	Admitted      uint64 // computed plans inserted into the LRU
	Rejected      uint64 // first-miss plans the doorkeeper kept out of the LRU; they wait in the admission window

	// Delta-refresh counters (see Refresh): a one-processor model refresh
	// re-keys the plans whose allocation provably cannot change and drops
	// only the rest, instead of invalidating the whole model.
	Refreshes      uint64 // model refreshes applied through the delta path
	RefreshKept    uint64 // plans that survived refreshes (re-keyed, not recomputed)
	RefreshDropped uint64 // plans a refresh invalidated (allocation could change)

	Size     int  // entries currently cached
	ReadOnly bool // admission suspended (replica mirroring a primary)
}

// Config tunes a Cache built with NewWithConfig.
type Config struct {
	// Capacity is the total number of cached plans (DefaultCapacity when
	// <= 0).
	Capacity int
	// Doorkeeper enables the admission policy: a plan is only inserted on
	// its second ask, so one-shot sizes pass through without evicting
	// anything. The first miss's plan waits in a per-shard admission window
	// (perShard/8 slots, at least 4) and the second ask admits it as a hit,
	// without computing again.
	Doorkeeper bool
}

// Cache is a sharded LRU of partition plans. The zero value is not usable;
// call New.
type Cache struct {
	shards [numShards]shard

	hits           atomic.Uint64
	misses         atomic.Uint64
	shared         atomic.Uint64
	evictions      atomic.Uint64
	invalidations  atomic.Uint64
	admitted       atomic.Uint64
	rejected       atomic.Uint64
	refreshes      atomic.Uint64
	refreshKept    atomic.Uint64
	refreshDropped atomic.Uint64

	// insertTap observes admitted insertions (see SetInsertTap) and
	// encoder formats plans (see SetEncoder); loaded atomically so both can
	// be installed before traffic without locking the hot path.
	insertTap atomic.Pointer[func(PlanRecord)]
	encoder   atomic.Pointer[func(core.Result) Encoding]

	// readOnly suspends admission: misses still compute and return, but
	// nothing is inserted, no doorkeeper state advances and no tap fires.
	// Import, Refresh and InvalidateFingerprint are unaffected — they ARE
	// the write path while a replica mirrors its primary.
	readOnly atomic.Bool

	// partitioners pools the miss path's core.Partitioners; calls pools
	// singleflight call structs that never attracted a waiter. Together
	// they keep the miss path at a couple of allocations per computed plan.
	partitioners sync.Pool
	calls        sync.Pool
}

// New returns a cache holding up to capacity plans (DefaultCapacity when
// capacity <= 0), spread over the shards, with the admission policy off —
// every computed plan is inserted, the behavior embedded callers expect.
func New(capacity int) *Cache {
	return NewWithConfig(Config{Capacity: capacity})
}

// NewWithConfig returns a cache tuned by cfg.
func NewWithConfig(cfg Config) *Cache {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	perShard := capacity / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[key]*entry)
		c.shards[i].inflight = make(map[key]*call)
		c.shards[i].cap = perShard
		if cfg.Doorkeeper {
			dcap := perShard * doorkeeperScale
			if dcap < 64 {
				dcap = 64
			}
			c.shards[i].door = &doorkeeper{
				cap: dcap,
				cur: make(map[uint64]struct{}),
			}
			slots := max(perShard/windowScale, windowMin)
			c.shards[i].win = &window{slots: make([]winSlot, slots), index: make(map[key]int, slots)}
		}
	}
	c.partitioners.New = func() any { return core.NewPartitioner() }
	c.calls.New = func() any { return new(call) }
	return c
}

// Tier classifies how a request was served.
type Tier uint8

const (
	// TierMiss means the plan was computed.
	TierMiss Tier = iota
	// TierHit means the plan was served from the LRU.
	TierHit
	// TierShared means the request waited on another's in-flight computation.
	TierShared
)

// Encoding is a plan's reply bytes as the cache's encoder formatted them
// (see SetEncoder): an answer is Bytes[:Cut], the answer's own bytes, then
// Bytes[Cut:]. An encoding is never written once made — a reused entry gets
// a fresh one, as it gets a fresh Alloc — so callers read it outside any
// lock.
type Encoding struct {
	Bytes []byte
	Cut   int
}

// SetEncoder installs fn to format the plans the cache holds. A computed
// plan is formatted once, by the request that computed it, before it is
// admitted or parked in the admission window; a plan Import, Replace or
// Offer installs without an encoding is formatted on its first hit. fn
// runs outside every shard lock and returns a slice no one else holds.
// Install it before serving traffic; without one, encodings are empty.
func (c *Cache) SetEncoder(fn func(core.Result) Encoding) { c.encoder.Store(&fn) }

// encode formats res with the installed encoder, if any.
func (c *Cache) encode(res core.Result) Encoding {
	if fn := c.encoder.Load(); fn != nil {
		return (*fn)(res)
	}
	return Encoding{}
}

// Peek probes for an exact hit without computing on a miss. On a hit it
// returns the plan's encoding, which it neither copies nor (once made)
// formats, and refreshes the entry in the LRU, indistinguishable from a
// GetTier hit; on a miss nothing changes — no doorkeeper state, no
// counters — so a caller falling back to GetEncoded costs one extra map
// lookup, not skewed stats.
func (c *Cache) Peek(m *speed.Model, algo core.Algorithm, n int64, opts ...core.Option) (Encoding, bool) {
	var buf [4]core.Option
	optsKey, _ := served(buf[:0], opts)
	k := key{model: m.Fingerprint(), n: n, algo: algo, opts: optsKey}
	sh := &c.shards[k.hash()&(numShards-1)]

	sh.mu.Lock()
	e, ok := sh.entries[k]
	if !ok {
		sh.mu.Unlock()
		return Encoding{}, false
	}
	_, enc := c.hit(sh, k, e)
	return enc, true
}

// Get returns the plan for running algo over n elements on the cluster
// model m with the given options, computing and caching it on a miss. The
// returned Result owns its Alloc — callers may mutate it freely. A nil or
// empty model answers core.ErrNoProcessors.
func (c *Cache) Get(algo core.Algorithm, n int64, m *speed.Model, opts ...core.Option) (core.Result, error) {
	res, _, err := c.GetTier(algo, n, m, opts...)
	return res, err
}

// GetTier is Get plus the serving tier of this particular request, for
// callers keeping their own hit-rate accounting (the daemon counts each
// tenant's tiers from it).
func (c *Cache) GetTier(algo core.Algorithm, n int64, m *speed.Model, opts ...core.Option) (core.Result, Tier, error) {
	var buf [4]core.Option
	optsKey, runOpts := served(buf[:0], opts)
	res, _, tier, err := c.get(key{model: m.Fingerprint(), n: n, algo: algo, opts: optsKey}, m, runOpts)
	if err != nil {
		return core.Result{}, tier, err
	}
	return copyResult(res), tier, nil
}

// GetEncoded is GetTier for a caller that answers with the plan's encoding
// and reads nothing else of it: it copies no allocation.
func (c *Cache) GetEncoded(algo core.Algorithm, n int64, m *speed.Model, opts ...core.Option) (Encoding, Tier, error) {
	var buf [4]core.Option
	optsKey, runOpts := served(buf[:0], opts)
	_, enc, tier, err := c.get(key{model: m.Fingerprint(), n: n, algo: algo, opts: optsKey}, m, runOpts)
	return enc, tier, err
}

// get serves the plan for k, computing it with runOpts on a miss. The
// Result it returns is the cache's own, which no one may write.
func (c *Cache) get(k key, m *speed.Model, runOpts []core.Option) (core.Result, Encoding, Tier, error) {
	h := k.hash()
	sh := &c.shards[h&(numShards-1)]

	sh.mu.Lock()
	if e, ok := sh.entries[k]; ok {
		res, enc := c.hit(sh, k, e)
		return res, enc, TierHit, nil
	}
	if sh.win != nil && !c.readOnly.Load() {
		if res, enc, ok := sh.win.take(k); ok {
			// The second ask admits the plan, and the encoding, the first
			// miss made.
			evicted, inserted := sh.insert(k, res, enc)
			sh.mu.Unlock()
			c.evictions.Add(evicted)
			c.hits.Add(1)
			if inserted {
				c.admit(k, res)
			}
			return res, enc, TierHit, nil
		}
	}
	if cl, ok := sh.inflight[k]; ok {
		if cl.done == nil {
			cl.done = make(chan struct{})
		}
		done := cl.done
		sh.mu.Unlock()
		<-done
		c.shared.Add(1)
		if cl.err != nil {
			return core.Result{}, Encoding{}, TierShared, cl.err
		}
		return cl.res, cl.enc, TierShared, nil
	}
	cl := c.calls.Get().(*call)
	sh.inflight[k] = cl
	sh.mu.Unlock()

	// The plan is formatted here, once, outside the lock. The computing
	// caller, the waiters and the entry or window slot share res and enc,
	// which no one writes again.
	res, err := c.compute(k, m, runOpts)
	var enc Encoding
	if err == nil {
		enc = c.encode(res)
	}
	readOnly := c.readOnly.Load()
	var inserted, windowed bool
	sh.mu.Lock()
	delete(sh.inflight, k)
	done := cl.done
	if err == nil && !readOnly {
		if sh.door == nil || sh.door.seen(h) {
			var evicted uint64
			evicted, inserted = sh.insert(k, res, enc)
			c.evictions.Add(evicted)
		} else {
			sh.door.remember(h)
			sh.win.push(k, res, enc)
			windowed = true
		}
	}
	sh.mu.Unlock()
	if done != nil {
		// Waiters hold the call; closing hands it to them for good. They
		// read res/enc/err only after done closes.
		cl.res, cl.enc, cl.err = res, enc, err
		close(done)
	} else {
		// No waiter ever saw this call (none can after the inflight
		// delete), and its fields were never set: recycle it.
		c.calls.Put(cl)
	}
	c.misses.Add(1)
	if err != nil {
		return core.Result{}, Encoding{}, TierMiss, err
	}
	if inserted {
		c.admit(k, res)
	} else if windowed {
		c.rejected.Add(1)
	}
	return res, enc, TierMiss, nil
}

// hit serves e, k's resident entry, with sh.mu held: it refreshes e in the
// LRU, releases the lock and returns e's plan and encoding. A plan
// installed without an encoding is formatted outside the lock, and the
// encoding kept if e still holds that plan.
func (c *Cache) hit(sh *shard, k key, e *entry) (core.Result, Encoding) {
	sh.moveToFront(e)
	res, enc := e.res, e.enc
	sh.mu.Unlock()
	c.hits.Add(1)
	if enc.Bytes == nil && len(res.Alloc) > 0 {
		if enc = c.encode(res); enc.Bytes != nil {
			sh.mu.Lock()
			if sh.entries[k] == e && e.enc.Bytes == nil && &e.res.Alloc[0] == &res.Alloc[0] {
				e.enc = enc
			}
			sh.mu.Unlock()
		}
	}
	return res, enc
}

// Offer admits a plan this cache did not compute: res is the plan another
// holder of a model with m's fingerprint served for (algo, n, opts). A plan
// is a pure function of its key, so the copy is the plan a miss here would
// compute. Offers pass the doorkeeper as misses do — the first offer of a
// key only remembers it, a later one inserts it — but take no admission
// window slot and fire no insert tap, so nothing is logged. A read-only
// cache, and a plan whose allocation does not have one share per processor
// of m summing to n, insert nothing. It reports whether the plan went in.
// enc, when not empty, is res's encoding, kept as the plan's; without one
// the plan is formatted on its first hit.
func (c *Cache) Offer(m *speed.Model, algo core.Algorithm, n int64, res core.Result, enc Encoding, opts ...core.Option) bool {
	if c.readOnly.Load() || len(res.Alloc) != len(m.Fns()) || !(PlanRecord{N: n, Alloc: res.Alloc}).Valid() {
		return false
	}
	var buf [4]core.Option
	optsKey, _ := served(buf[:0], opts)
	k := key{model: m.Fingerprint(), n: n, algo: algo, opts: optsKey}
	h := k.hash()
	sh := &c.shards[h&(numShards-1)]
	owned := copyResult(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.door != nil && !sh.door.seen(h) {
		sh.door.remember(h)
		return false
	}
	evicted, inserted := sh.insert(k, owned, enc)
	c.evictions.Add(evicted)
	return inserted
}

// admit counts a plan's admission into the LRU and hands the insert tap a
// private copy of it, on the admitting goroutine, so a WAL append completes
// before the plan is returned.
func (c *Cache) admit(k key, res core.Result) {
	c.admitted.Add(1)
	if tap := c.insertTap.Load(); tap != nil {
		(*tap)(PlanRecord{
			Model: k.model, N: k.n, Algo: k.algo, OptsKey: k.opts,
			Slope: res.Slope, Alloc: append(core.Allocation(nil), res.Alloc...),
			Stats: res.Stats,
		})
	}
}

// compute runs the partitioner for a miss over the model's packed table.
func (c *Cache) compute(k key, m *speed.Model, opts []core.Option) (core.Result, error) {
	p := c.partitioners.Get().(*core.Partitioner)
	res, err := p.PartitionModelInto(make(core.Allocation, len(m.Fns())), k.algo, k.n, m, opts...)
	c.partitioners.Put(p)
	return res, err
}

// InvalidateFingerprint drops every cached plan for the cluster model
// with the given fingerprint, and the model's plans waiting
// in the admission windows; it returns how many cached plans it dropped.
// Call it when a model is replaced, or when speed.Drift (or any other
// monitor) flags it as stale; in-flight computations for the old model are
// left to finish and their results are still installed — callers race with
// them anyway, and the next invalidation sweeps them out. It takes a
// fingerprint, not a handle, because the store's invalidation records
// carry only the fingerprint.
func (c *Cache) InvalidateFingerprint(model uint64) int {
	var dropped int
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.model == model {
				sh.unlink(e)
				delete(sh.entries, k)
				dropped++
			}
		}
		if sh.win != nil {
			sh.win.dropModel(model)
		}
		sh.mu.Unlock()
	}
	c.invalidations.Add(uint64(dropped))
	return dropped
}

// Replace swaps the cache's contents for plans — the mirror-rebuild
// primitive a replica uses after a snapshot handoff replaced its store's
// state wholesale. Each shard's new entry map and LRU list are built
// outside the locks and swapped in under them, so a plan present both
// before and after the swap never misses for
// a concurrent reader. Plans install as Import installs them (invalid
// records skipped, later records more recent); no tap fires and no
// invalidation is counted. The admission windows are emptied. In-flight
// computations are left to finish and insert into the new contents. It
// returns how many plans were installed.
func (c *Cache) Replace(plans []PlanRecord) int {
	var fresh [numShards]shard
	for i := range fresh {
		fresh[i].entries = make(map[key]*entry)
		fresh[i].cap = c.shards[i].cap
	}
	var installed int
	var evicted uint64
	for _, r := range plans {
		if !r.Valid() {
			continue
		}
		k, res := r.entry()
		ev, inserted := fresh[k.hash()&(numShards-1)].insert(k, res, Encoding{})
		evicted += ev
		if inserted {
			installed++
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries, sh.head, sh.tail = fresh[i].entries, fresh[i].head, fresh[i].tail
		if sh.win != nil {
			sh.win.reset()
		}
		sh.mu.Unlock()
	}
	c.evictions.Add(evicted)
	return installed
}

// SetReadOnly toggles read-only admission. While set, misses still compute
// and return correct plans, but the cache's contents change only through
// Import, Refresh and InvalidateFingerprint — the replication feed — so a
// replica's cache stays a faithful mirror of its primary's instead of
// diverging on local traffic. Promotion flips it back off.
func (c *Cache) SetReadOnly(ro bool) { c.readOnly.Store(ro) }

// ReadOnly reports whether admission is suspended.
func (c *Cache) ReadOnly() bool { return c.readOnly.Load() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Shared:        c.shared.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Admitted:      c.admitted.Load(),
		Rejected:      c.rejected.Load(),
		ReadOnly:      c.readOnly.Load(),

		Refreshes:      c.refreshes.Load(),
		RefreshKept:    c.refreshKept.Load(),
		RefreshDropped: c.refreshDropped.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Size += len(sh.entries)
		sh.mu.Unlock()
	}
	return s
}

// insert adds a fresh entry at the front, evicting from the tail when the
// shard is full; it returns the number of evictions and whether a new entry
// actually went in. Callers hold mu.
func (sh *shard) insert(k key, res core.Result, enc Encoding) (uint64, bool) {
	if e, ok := sh.entries[k]; ok {
		// A concurrent computation of the same key finished first; results
		// are identical, keep the resident entry.
		sh.moveToFront(e)
		return 0, false
	}
	var evicted uint64
	var free *entry
	for len(sh.entries) >= sh.cap && sh.tail != nil {
		old := sh.tail
		sh.unlink(old)
		delete(sh.entries, old.k)
		free = old
		evicted++
	}
	// Reuse an evicted entry struct: once the shard is full, the steady
	// state inserts without allocating.
	e := free
	if e == nil {
		e = &entry{}
	}
	e.k, e.res, e.enc = k, res, enc
	sh.entries[k] = e
	sh.pushFront(e)
	return evicted, true
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// copyResult deep-copies the allocation so cached plans are immune to
// caller mutation.
func copyResult(r core.Result) core.Result {
	out := r
	out.Alloc = append(core.Allocation(nil), r.Alloc...)
	return out
}
