package fabric

import (
	"math"
	"sync"
	"time"
)

// Quotas is a per-tenant token-bucket admission controller: every tenant
// gets the same rate (tokens/second) and burst (bucket capacity). A nil
// *Quotas admits everything — the daemon's default — so the warm path
// pays nothing when no quota is configured.
//
// This lifts the plan cache's doorkeeper one level: the doorkeeper
// decides which *keys* earn a cache slot, quotas decide which *tenants'
// requests* are admitted at all, so one noisy tenant's miss storm cannot
// evict another tenant's warm plans or starve its compute.
type Quotas struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.RWMutex
	buckets map[string]*bucket
}

type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewQuotas builds the controller. qps <= 0 means unlimited and returns
// nil (nil receivers admit everything). burst <= 0 defaults to
// max(1, ceil(qps)) — one second's worth of headroom.
func NewQuotas(qps float64, burst int) *Quotas {
	if qps <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, math.Ceil(qps))
	}
	return &Quotas{rate: qps, burst: b, buckets: make(map[string]*bucket)}
}

// Allow charges one token to the tenant's bucket at the instant now, which
// the caller reads once per request (a batch charges all its elements at
// one instant). On refusal it returns the whole number of seconds after
// which one token will be available — the Retry-After value. The tenant
// key is []byte from the wire parser; the map probe with a string(tenant)
// key expression does not allocate, and the string copy is only made when
// a tenant's bucket is first created.
func (q *Quotas) Allow(tenant []byte, now time.Time) (ok bool, retryAfter int) {
	if q == nil {
		return true, 0
	}
	q.mu.RLock()
	b := q.buckets[string(tenant)]
	q.mu.RUnlock()
	if b == nil {
		q.mu.Lock()
		if b = q.buckets[string(tenant)]; b == nil {
			// New buckets start full: a tenant's first burst of
			// requests is admitted, throttling starts only past it.
			b = &bucket{tokens: q.burst, last: now}
			q.buckets[string(tenant)] = b
		}
		q.mu.Unlock()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(q.burst, b.tokens+dt*q.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	retry := int(math.Ceil((1 - b.tokens) / q.rate))
	if retry < 1 {
		retry = 1
	}
	return false, retry
}
