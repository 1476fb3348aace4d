package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
)

// key is one partition ask: a model and a problem size. Every ask uses
// the daemon's default algorithm, combined, the one Figure 21 times.
type key struct {
	model int
	n     int64
	hot   int // index into the hot set, -1 for a fresh size
}

// Where each parameter comes from; README.md lists the ones no document
// of the repository backs.
var (
	// hotProcs are the processor counts of the models the hot set runs on:
	// 8 as in BenchmarkDaemonThroughput's benchClusterDoc(8, 77), 12 as in
	// the paper's Table 2 network.
	hotProcs = []int{8, 12}
	// fig21Procs are Figure 21's processor counts, the scale at which the
	// paper times its partitioner.
	fig21Procs = []int{270, 540, 810, 1080}
)

const (
	// hotKeys is the size of the prewarmed hot set, drawn uniformly. Not
	// backed by any traffic record.
	hotKeys = 512
	// Hot sizes follow BenchmarkDaemonThroughput's batch16 spacing,
	// 5e6 + i·1e5 elements; fresh sizes span Figure 21's range,
	// [2.5e8, 2e9). i ↦ i·sizeStride mod freshSpan is a bijection (the
	// stride is a prime that does not divide the span), so fresh sizes
	// never repeat.
	hotBase    = 5_000_000
	hotStep    = 100_000
	freshBase  = 250_000_000
	freshSpan  = 1_750_000_000
	sizeStride = 1_000_003
	// probeBase offsets the fresh keys the layer probes use from those the
	// workloads use.
	probeBase = 1 << 30
	// batchSize is BenchmarkDaemonThroughput's batch16.
	batchSize = 16
)

// workload is one traffic mix.
type workload struct {
	members int   // daemons: 1, or the members of a sharded fabric
	procs   []int // processor counts of each tenant's models
	hot     bool  // whether set-up prewarms a hot set
	// fill appends the next request's keys to s.keys; more than one key
	// makes a batch request.
	fill func(s *stream)
}

// workloads are the traffic mixes; README.md gives the layers each one
// stresses.
var workloads = map[string]*workload{
	// The plan-cache hit path: BenchmarkDaemonThroughput's warm, over a
	// hot set rather than one key.
	"warm": {
		members: 1,
		procs:   hotProcs,
		hot:     true,
		fill:    func(s *stream) { s.keys = append(s.keys, s.hotKey()) },
	},
	// The compute path at Figure 21's scale: every size is new and asked
	// twice, so each plan is computed, rejected by the doorkeeper,
	// computed again, admitted and logged at the default fsync cadence.
	"cold": {
		members: 1,
		procs:   fig21Procs,
		fill: func(s *stream) {
			s.keys = append(s.keys, s.b.freshKey((s.b.seq.Add(1)-1)/2))
		},
	},
	// The batch path: BenchmarkDaemonThroughput's batch16, 16 hits per
	// request, parsed in one pass and streamed back.
	"batch": {
		members: 1,
		procs:   hotProcs,
		hot:     true,
		fill: func(s *stream) {
			for i := 0; i < batchSize; i++ {
				s.keys = append(s.keys, s.hotKey())
			}
		},
	},
	// Ownership and forwarding: warm's traffic over the three-member
	// fabric of the repository README's sharded quick-start, clients
	// spread over the members; about two thirds of the asks are forwarded.
	"fabric": {
		members: 3,
		procs:   hotProcs,
		hot:     true,
		fill:    func(s *stream) { s.keys = append(s.keys, s.hotKey()) },
	},
}

// bench is the seeded input of one run: models, the hot set, and the
// reference replies the checks compare against.
type bench struct {
	seed   int64
	wl     *workload
	models []*model
	hot    []key
	// seq numbers the fresh sizes handed out so far; freshOff is this
	// seed's offset into the fresh range.
	seq      atomic.Int64
	freshOff int64
	// refs holds, per hot key, the alloc and slope of its first cache
	// hit: every later hit must repeat them byte for byte, across
	// restarts and across fabric members.
	refs []atomic.Pointer[[]byte]
	// wrongPlans counts prewarm replies that failed their check, and
	// prewarmErr is the last such failure.
	wrongPlans int64
	prewarmErr error
}

func newBench(seed int64, wl *workload) *bench {
	rng := rand.New(rand.NewSource(seed))
	b := &bench{seed: seed, wl: wl, models: genModels(rng, wl.procs), freshOff: rng.Int63n(freshSpan)}
	if wl.hot {
		// Models go round-robin over the hot set, so every seed puts the
		// same traffic share on each model; seeds differ in speed
		// functions and request order.
		b.hot = make([]key, hotKeys)
		for i := range b.hot {
			b.hot[i] = key{model: i % len(b.models), n: hotBase + int64(i)*hotStep, hot: i}
		}
		b.refs = make([]atomic.Pointer[[]byte], hotKeys)
	}
	return b
}

// freshKey returns the i-th fresh size of this seed.
func (b *bench) freshKey(i int64) key {
	h := uint64(b.seed)*0x9e3779b97f4a7c15 ^ uint64(i)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return key{
		model: int(h % uint64(len(b.models))),
		n:     freshBase + (i*sizeStride+b.freshOff)%freshSpan,
		hot:   -1,
	}
}

func (b *bench) resetRefs() {
	for i := range b.refs {
		b.refs[i].Store(nil)
	}
}

// stream is one connection's request generator and reply checker.
type stream struct {
	b     *bench
	rng   *rand.Rand
	keys  []key
	body  []byte
	req   []byte // the framed HTTP request for keys
	reply reply
}

func (b *bench) newStream(id int64) *stream {
	return &stream{b: b, rng: rand.New(rand.NewSource(b.seed*1_000_003 + id))}
}

func (s *stream) hotKey() key { return s.b.hot[s.rng.Intn(len(s.b.hot))] }

// next draws the workload's next request.
func (s *stream) next() {
	s.keys = s.keys[:0]
	s.b.wl.fill(s)
	s.frame()
}

// frame encodes s.keys as a single request or a batch.
func (s *stream) frame() {
	s.body = s.body[:0]
	if len(s.keys) == 1 {
		s.body = s.appendKey(s.body, s.keys[0])
	} else {
		s.body = append(s.body, `{"requests":[`...)
		for i, k := range s.keys {
			if i > 0 {
				s.body = append(s.body, ',')
			}
			s.body = s.appendKey(s.body, k)
		}
		s.body = append(s.body, `]}`...)
	}
	s.req = appendPost(s.req[:0], "/v1/partition", s.body)
}

func (s *stream) appendKey(dst []byte, k key) []byte {
	dst = append(dst, `{"model":"`...)
	dst = append(dst, s.b.models[k.model].label...)
	dst = append(dst, `","n":`...)
	dst = strconv.AppendInt(dst, k.n, 10)
	return append(dst, '}')
}

// check verifies a response to s.keys.
func (s *stream) check(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	if len(s.keys) == 1 {
		return s.checkPlan(s.keys[0], bytes.TrimSuffix(body, []byte("\n")))
	}
	rest, ok := bytes.CutPrefix(body, []byte(`{"responses":[`))
	if !ok {
		return fmt.Errorf("not a batch reply: %.200s", body)
	}
	for i, k := range s.keys {
		if i > 0 {
			if rest, ok = bytes.CutPrefix(rest, []byte(",")); !ok {
				return fmt.Errorf("batch reply ends after %d of %d plans", i, len(s.keys))
			}
		}
		obj, tail, err := splitObject(rest)
		if err != nil {
			return err
		}
		if err := s.checkPlan(k, obj); err != nil {
			return fmt.Errorf("batch element %d: %w", i, err)
		}
		rest = tail
	}
	if !bytes.Equal(rest, []byte("]}\n")) {
		return fmt.Errorf("batch reply has trailing %.40q", rest)
	}
	return nil
}

// checkPlan verifies one plan. A cache hit of a hot key must repeat the
// key's reference reply byte for byte; any other plan must pass the
// optimality check against the speed functions.
func (s *stream) checkPlan(k key, obj []byte) error {
	if k.hot >= 0 {
		// The common case, a hit repeating its reference, is two compares.
		if ref := s.b.refs[k.hot].Load(); ref != nil && bytes.HasPrefix(obj, *ref) &&
			bytes.HasPrefix(obj[len(*ref):], []byte(`,"tier":"hit"`)) {
			return nil
		}
	}
	r := &s.reply
	if err := parseReply(obj, r); err != nil {
		return err
	}
	m := s.b.models[k.model]
	if !r.hit || k.hot < 0 {
		return checkBalance(m, k.n, r.alloc, r.slope)
	}
	ref := s.b.refs[k.hot].Load()
	if ref == nil {
		own := append([]byte(nil), r.content...)
		if s.b.refs[k.hot].CompareAndSwap(nil, &own) {
			return checkBalance(m, k.n, r.alloc, r.slope)
		}
		ref = s.b.refs[k.hot].Load()
	}
	if bytes.Equal(*ref, r.content) {
		return nil
	}
	// An evicted plan is recomputed on its next misses, and a warm-started
	// recomputation may stop the bisection on a slightly different ray:
	// the slope may move in its last digits, the allocation may not.
	if !bytes.Equal(allocField(*ref), allocField(r.content)) {
		return fmt.Errorf("%s n=%d: cache hit %.120s differs from the first hit %.120s",
			m.label, k.n, r.content, *ref)
	}
	return checkBalance(m, k.n, r.alloc, r.slope)
}

// allocField cuts the alloc array from a reply's content.
func allocField(content []byte) []byte {
	if i := bytes.IndexByte(content, ']'); i >= 0 {
		return content[:i]
	}
	return content
}
