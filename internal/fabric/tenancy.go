package fabric

import (
	"sync"
	"sync/atomic"
	"time"
)

// TenantStats is one tenant's request accounting, updated with atomics
// on the serve path and snapshotted into /v1/stats.
type TenantStats struct {
	Requests   atomic.Uint64 // partition requests attributed to this tenant
	Hits       atomic.Uint64 // served from the warm plan cache
	Shared     atomic.Uint64 // coalesced onto another request's computation
	Misses     atomic.Uint64 // computed fresh
	Errors     atomic.Uint64 // per-element errors (bad doc, unknown model, ...)
	Forwarded  atomic.Uint64 // relayed to the owning member
	RemoteHits atomic.Uint64 // forwarded and answered from the owner's warm cache
	Rejected   atomic.Uint64 // refused by the tenant's token bucket (429)
}

// TenantSnapshot is the JSON shape of one tenant's stats tier.
type TenantSnapshot struct {
	Requests   uint64 `json:"requests"`
	Hits       uint64 `json:"hits"`
	Shared     uint64 `json:"shared"`
	Misses     uint64 `json:"misses"`
	Errors     uint64 `json:"errors,omitempty"`
	Forwarded  uint64 `json:"forwarded,omitempty"`
	RemoteHits uint64 `json:"remoteHits,omitempty"`
	Rejected   uint64 `json:"rejected,omitempty"`
}

// Tenancy is the per-tenant layer of the daemon: stats registry plus the
// optional quota controller. It is always constructed (quota may be nil),
// so handlers never branch on its presence.
type Tenancy struct {
	quota *Quotas

	mu    sync.RWMutex
	stats map[string]*TenantStats
}

// NewTenancy builds the registry; qps <= 0 disables quotas.
func NewTenancy(qps float64, burst int) *Tenancy {
	return &Tenancy{quota: NewQuotas(qps, burst), stats: make(map[string]*TenantStats)}
}

// Stats returns the tenant's counter block, creating it on first sight.
// The read-lock probe with a string(tenant) map key does not allocate, so
// the warm path stays allocation-free for known tenants.
func (t *Tenancy) Stats(tenant []byte) *TenantStats {
	t.mu.RLock()
	ts := t.stats[string(tenant)]
	t.mu.RUnlock()
	if ts != nil {
		return ts
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts = t.stats[string(tenant)]; ts == nil {
		ts = &TenantStats{}
		t.stats[string(tenant)] = ts
	}
	return ts
}

// Allow charges the tenant's token bucket at now (no-op without quotas).
func (t *Tenancy) Allow(tenant []byte, now time.Time) (ok bool, retryAfter int) {
	return t.quota.Allow(tenant, now)
}

// QuotaEnabled reports whether per-tenant admission is configured.
func (t *Tenancy) QuotaEnabled() bool { return t.quota != nil }

// Snapshot copies every tenant's counters for /v1/stats.
func (t *Tenancy) Snapshot() map[string]TenantSnapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.stats) == 0 {
		return nil
	}
	out := make(map[string]TenantSnapshot, len(t.stats))
	for name, ts := range t.stats {
		out[name] = TenantSnapshot{
			Requests:   ts.Requests.Load(),
			Hits:       ts.Hits.Load(),
			Shared:     ts.Shared.Load(),
			Misses:     ts.Misses.Load(),
			Errors:     ts.Errors.Load(),
			Forwarded:  ts.Forwarded.Load(),
			RemoteHits: ts.RemoteHits.Load(),
			Rejected:   ts.Rejected.Load(),
		}
	}
	return out
}
