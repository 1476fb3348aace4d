// Package serve runs partition requests as a service. The Engine accepts
// requests over a channel, collects whatever has queued up into a batch,
// coalesces requests for the same plan into one computation, fans the
// distinct plans of a batch out over a worker pool, and answers every
// request with a plan served through the partition cache (exact hit,
// shared in-flight computation, or computed miss — see plancache).
//
// Batching exists for the same reason it does in any serving system: under
// load, many requests arrive while one is being computed, and the marginal
// cost of answering a duplicate inside a batch is zero. The adaptive
// executors re-partition on drift, a grid of simulations asks for the same
// handful of plans, and the daemon serves every client's requests — all
// through one Engine whose counters expose throughput, latency, batch
// shape, and cache hit rates.
package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/pool"
	"heteropart/internal/speed"
)

// ErrClosed is returned for requests submitted to (or stranded in) a
// closed engine.
var ErrClosed = errors.New("serve: engine closed")

// Request asks for one partition plan. Model is the cluster model's
// handle, built once by the caller (speed.NewModel, or the store's
// catalog), so no request rehashes its speed functions; a nil Model
// answers core.ErrNoProcessors.
type Request struct {
	Algo  core.Algorithm
	N     int64
	Model *speed.Model
	Opts  []core.Option
}

// Response carries the plan (or the partitioner's error) back to the
// submitter. Tier reports how the cache served it; requests coalesced into
// another request's computation inherit that computation's tier.
type Response struct {
	Result core.Result
	Tier   plancache.Tier
	Err    error
}

// Config tunes an Engine. The zero value is usable: a fresh default cache,
// the shared process pool, and default batch/queue sizes.
type Config struct {
	// Cache serves the plans; nil creates a private default-capacity cache.
	Cache *plancache.Cache
	// Pool fans batches out; nil uses pool.Shared().
	Pool *pool.Pool
	// MaxBatch caps how many queued requests one dispatch cycle drains
	// (default 256).
	MaxBatch int
	// QueueDepth is the request channel's buffer (default 1024).
	QueueDepth int
}

// Metrics is a snapshot of the engine counters.
type Metrics struct {
	Requests   uint64        // requests answered
	Batches    uint64        // dispatch cycles executed
	Coalesced  uint64        // requests answered by another request's computation in the same batch
	MaxBatch   int           // largest batch observed
	AvgBatch   float64       // mean requests per batch
	AvgLatency time.Duration // mean submit→answer latency
	Cache      plancache.Stats
	// ByAlgo breaks request outcomes down per algorithm (keyed by
	// core.Algorithm.String()), so a mixed request stream shows which
	// algorithms the cache absorbs and which still compute.
	ByAlgo map[string]AlgoTiers
}

// AlgoTiers counts how one algorithm's requests were served.
type AlgoTiers struct {
	Requests uint64 `json:"requests"`
	Hits     uint64 `json:"hits"`   // exact cache hits
	Shared   uint64 `json:"shared"` // joined an in-flight computation
	Misses   uint64 `json:"misses"` // computed
}

// HitRate is the fraction of requests answered without computing.
func (a AlgoTiers) HitRate() float64 {
	if a.Requests == 0 {
		return 0
	}
	return float64(a.Hits+a.Shared) / float64(a.Requests)
}

type pending struct {
	req   Request
	reply chan Response
	start time.Time
}

// Engine is the batched partition server. Construct with New; Close
// releases the dispatcher.
type Engine struct {
	cache *plancache.Cache
	pool  *pool.Pool
	queue chan *pending
	done  chan struct{}

	// mu orders Submit against Close: once closed is set no request can
	// enter the queue, so the dispatcher's final drain leaves nothing
	// stranded.
	mu     sync.RWMutex
	closed bool

	maxBatch int

	requests   atomic.Uint64
	batches    atomic.Uint64
	coalesced  atomic.Uint64
	maxSeen    atomic.Int64
	latencyNs  atomic.Int64
	batchedReq atomic.Uint64

	// algoTiers[algo][tier] counts answered requests: rows are the three
	// algorithms plus a spillover row, columns follow plancache.Tier.
	algoTiers [4][3]atomic.Uint64
}

// algoRow maps an algorithm onto its counter row.
func algoRow(a core.Algorithm) int {
	if a >= 0 && int(a) < 3 {
		return int(a)
	}
	return 3
}

// New starts an engine with one dispatcher goroutine.
func New(cfg Config) *Engine {
	if cfg.Cache == nil {
		cfg.Cache = plancache.New(0)
	}
	if cfg.Pool == nil {
		cfg.Pool = pool.Shared()
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	e := &Engine{
		cache:    cfg.Cache,
		pool:     cfg.Pool,
		queue:    make(chan *pending, cfg.QueueDepth),
		done:     make(chan struct{}),
		maxBatch: cfg.MaxBatch,
	}
	go e.dispatch()
	return e
}

// Cache returns the cache the engine serves from.
func (e *Engine) Cache() *plancache.Cache { return e.cache }

// Submit enqueues a request and returns the channel its Response will be
// delivered on (buffered; the engine never blocks on it). Submitting to a
// closed engine answers ErrClosed immediately.
func (e *Engine) Submit(req Request) <-chan Response {
	p := &pending{req: req, reply: make(chan Response, 1), start: time.Now()}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		p.reply <- Response{Err: ErrClosed}
		return p.reply
	}
	// May block on a full queue; the dispatcher keeps draining until done
	// is closed, and done cannot close while this read lock is held.
	e.queue <- p
	e.mu.RUnlock()
	return p.reply
}

// TryHit answers a request synchronously when its plan is an exact cache
// hit, bypassing the dispatch queue — no pending struct, no channel, no
// context switch, which is most of a warm request's latency. The
// allocation is appended to dst (reused by the caller; sized to the
// model, the probe allocates nothing) and the Response's Alloc aliases
// dst's tail. A miss changes nothing and the caller falls back to Submit.
// Counters stay coherent: a TryHit answer counts as a request and an
// exact hit, same as the dispatcher would have recorded it.
func (e *Engine) TryHit(req Request, dst core.Allocation) (core.Allocation, Response, bool) {
	dst, res, ok := e.cache.PeekInto(dst, req.Model, req.Algo, req.N, req.Opts...)
	if !ok {
		return dst, Response{}, false
	}
	e.requests.Add(1)
	e.algoTiers[algoRow(req.Algo)][plancache.TierHit].Add(1)
	return dst, Response{Result: res, Tier: plancache.TierHit}, true
}

// Partition submits a request and waits for its plan.
func (e *Engine) Partition(req Request) (core.Result, error) {
	r := <-e.Submit(req)
	return r.Result, r.Err
}

// Repartition adapts an existing allocation to the updated model m as
// core.Repartition would, but serves the underlying optimal plan through
// the engine — the repartition loop of an adaptive executor hits the cache
// instead of recomputing the optimum every phase.
func (e *Engine) Repartition(old core.Allocation, m *speed.Model, slack float64, opts ...core.Option) (core.Allocation, int64, error) {
	fns := m.Fns()
	n := old.Sum()
	if n == 0 || len(old) != len(fns) || slack < 0 {
		// Degenerate and error cases carry no cacheable plan; delegate.
		return core.Repartition(old, fns, slack, opts...)
	}
	opt, err := e.Partition(Request{Algo: core.AlgoCombined, N: n, Model: m, Opts: opts})
	if err != nil {
		return nil, 0, err
	}
	return core.RepartitionWith(old, fns, slack, opt)
}

// Close stops the dispatcher. Requests already queued are answered
// ErrClosed; in-flight batches complete normally first.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.done)
}

// Metrics returns a snapshot of the counters.
func (e *Engine) Metrics() Metrics {
	m := Metrics{
		Requests:  e.requests.Load(),
		Batches:   e.batches.Load(),
		Coalesced: e.coalesced.Load(),
		MaxBatch:  int(e.maxSeen.Load()),
		Cache:     e.cache.Stats(),
	}
	if m.Requests > 0 {
		m.AvgLatency = time.Duration(e.latencyNs.Load() / int64(m.Requests))
	}
	if m.Batches > 0 {
		m.AvgBatch = float64(e.batchedReq.Load()) / float64(m.Batches)
	}
	m.ByAlgo = make(map[string]AlgoTiers, 4)
	for row := 0; row < 4; row++ {
		a := AlgoTiers{
			Misses: e.algoTiers[row][plancache.TierMiss].Load(),
			Hits:   e.algoTiers[row][plancache.TierHit].Load(),
			Shared: e.algoTiers[row][plancache.TierShared].Load(),
		}
		a.Requests = a.Misses + a.Hits + a.Shared
		if a.Requests == 0 {
			continue
		}
		name := core.Algorithm(row).String()
		m.ByAlgo[name] = a
	}
	return m
}

// dispatch is the engine's single consumer: block for one request, drain
// whatever else has queued (up to maxBatch), group the batch by plan, fan
// the distinct plans out over the pool, reply to everyone.
func (e *Engine) dispatch() {
	batch := make([]*pending, 0, e.maxBatch)
	for {
		batch = batch[:0]
		select {
		case <-e.done:
			e.drainClosed()
			return
		case p := <-e.queue:
			batch = append(batch, p)
		}
	drain:
		for len(batch) < e.maxBatch {
			select {
			case p := <-e.queue:
				batch = append(batch, p)
			default:
				break drain
			}
		}
		e.runBatch(batch)
	}
}

// drainClosed answers everything still queued after Close.
func (e *Engine) drainClosed() {
	for {
		select {
		case p := <-e.queue:
			p.reply <- Response{Err: ErrClosed}
		default:
			return
		}
	}
}

// groupKey identifies one distinct plan inside a batch; it mirrors the
// cache key, so two requests coalesced here would also have collided in
// the cache.
type groupKey struct {
	model uint64
	n     int64
	algo  core.Algorithm
	opts  uint64
}

// runBatch coalesces and executes one batch.
func (e *Engine) runBatch(batch []*pending) {
	e.batches.Add(1)
	e.batchedReq.Add(uint64(len(batch)))
	for {
		seen := e.maxSeen.Load()
		if int64(len(batch)) <= seen || e.maxSeen.CompareAndSwap(seen, int64(len(batch))) {
			break
		}
	}
	groups := make(map[groupKey][]*pending, len(batch))
	order := make([]groupKey, 0, len(batch))
	for _, p := range batch {
		k := groupKey{
			model: p.req.Model.Fingerprint(),
			n:     p.req.N,
			algo:  p.req.Algo,
			opts:  core.OptionsKey(p.req.Opts...),
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		} else {
			e.coalesced.Add(1)
		}
		groups[k] = append(groups[k], p)
	}
	e.pool.Run(len(order), func(i int) {
		members := groups[order[i]]
		first := members[0].req
		res, tier, err := e.cache.GetTier(first.Algo, first.N, first.Model, first.Opts...)
		if err == nil {
			e.algoTiers[algoRow(first.Algo)][tier].Add(uint64(len(members)))
		}
		// The cache's answer belongs to this group. Copy it for the other
		// members first: the first member gets the answer itself and may
		// write to it as soon as it is answered.
		for _, p := range members[1:] {
			resp := Response{Err: err, Tier: tier}
			if err == nil {
				resp.Result = copyResult(res)
			}
			e.answer(p, resp)
		}
		e.answer(members[0], Response{Result: res, Err: err, Tier: tier})
	})
}

func (e *Engine) answer(p *pending, resp Response) {
	e.requests.Add(1)
	e.latencyNs.Add(time.Since(p.start).Nanoseconds())
	p.reply <- resp
}

// copyResult gives a coalesced requester its own allocation; the cache
// already returned a private copy, so only members after the first need one.
func copyResult(r core.Result) core.Result {
	out := r
	out.Alloc = append(core.Allocation(nil), r.Alloc...)
	return out
}
