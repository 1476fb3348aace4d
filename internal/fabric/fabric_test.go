package fabric

import (
	"fmt"
	"testing"
	"time"
)

// TestFabricDeterministicOwnership: every member must compute the same
// owner for the same key regardless of the order its -peers list came in.
func TestFabricDeterministicOwnership(t *testing.T) {
	bases := []string{
		"http://127.0.0.1:7411",
		"http://127.0.0.1:7412",
		"http://127.0.0.1:7413",
	}
	// Each member sees itself as self and the others in a different order.
	fabs := make([]*Fabric, len(bases))
	for i := range bases {
		peers := []string{bases[(i+2)%3], bases[(i+1)%3]}
		f, err := New(bases[i], peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		fabs[i] = f
	}
	for i, f := range fabs {
		if got := f.Self(); got != bases[i] {
			t.Fatalf("member %d: Self() = %q, want %q", i, got, bases[i])
		}
		if len(f.Members()) != 3 {
			t.Fatalf("member %d: %d members, want 3", i, len(f.Members()))
		}
	}
	for n := int64(64); n <= 4096; n *= 2 {
		for _, model := range []string{"m", "acme/big", "acme/small", "beta/q"} {
			tenant, family := TenantSpan([]byte(model))
			want := fabs[0].OwnerIndex(tenant, family, n)
			for i := 1; i < len(fabs); i++ {
				if got := fabs[i].OwnerIndex(tenant, family, n); got != want {
					t.Fatalf("owner(%s, %d) disagrees: member 0 says %d, member %d says %d",
						model, n, want, i, got)
				}
			}
		}
	}
}

// Bare and default-qualified spellings of the same model must hash to the
// same owner (TenantSpan strips the default prefix into the same parts).
func TestOwnerBareVsQualified(t *testing.T) {
	f, err := New("http://a:1", []string{"http://b:1", "http://c:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n < 2000; n += 97 {
		t1, f1 := TenantSpan([]byte("m"))
		t2, f2 := TenantSpan([]byte("default/m"))
		if f.OwnerIndex(t1, f1, n) != f.OwnerIndex(t2, f2, n) {
			t.Fatalf("bare and qualified owners differ at n=%d", n)
		}
	}
}

func TestFabricDuplicatePeersCollapse(t *testing.T) {
	f, err := New("http://a:1", []string{"http://b:1", "http://b:1", "http://a:1", ""}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Members(); len(got) != 2 {
		t.Fatalf("members = %v, want 2 entries", got)
	}
	if _, err := New("", nil, 0); err == nil {
		t.Fatal("empty self accepted")
	}
}

// Jump hash must cover all buckets and stay roughly balanced.
func TestJumpHashBalance(t *testing.T) {
	const buckets = 5
	counts := make([]int, buckets)
	for i := 0; i < 100000; i++ {
		key := ownerKey([]byte("t"), []byte(fmt.Sprintf("model-%d", i)), int64(i))
		b := jumpHash(key, buckets)
		if b < 0 || b >= buckets {
			t.Fatalf("bucket %d out of range", b)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c < 15000 || c > 25000 {
			t.Fatalf("bucket %d has %d of 100000 keys (want ~20000): %v", b, c, counts)
		}
	}
	if jumpHash(12345, 1) != 0 {
		t.Fatal("single bucket must always win")
	}
}

// Moving from k to k+1 buckets must move only ~1/(k+1) of the keys — the
// consistency property that makes resharding cheap.
func TestJumpHashConsistency(t *testing.T) {
	const keys = 50000
	moved := 0
	for i := 0; i < keys; i++ {
		key := ownerKey([]byte("t"), []byte(fmt.Sprintf("k%d", i)), int64(i))
		if jumpHash(key, 4) != jumpHash(key, 5) {
			moved++
		}
	}
	// Expect keys/5 = 10000 moves; allow a generous band.
	if moved < 8000 || moved > 12000 {
		t.Fatalf("%d of %d keys moved adding a 5th bucket (want ~10000)", moved, keys)
	}
}

func TestQuotasAllow(t *testing.T) {
	if q := NewQuotas(0, 0); q != nil {
		t.Fatal("qps=0 must return nil (unlimited)")
	}
	var q *Quotas
	if ok, _ := q.Allow([]byte("a")); !ok {
		t.Fatal("nil Quotas must admit everything")
	}

	q = NewQuotas(10, 3)
	tenant := []byte("acme")
	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow(tenant); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := q.Allow(tenant)
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if retry < 1 {
		t.Fatalf("retryAfter = %d, want >= 1", retry)
	}
	// An unrelated tenant has its own full bucket.
	if ok, _ := q.Allow([]byte("beta")); !ok {
		t.Fatal("fresh tenant refused — buckets must be per-tenant")
	}
	// Refill: at 10 qps, 150ms restores at least one token.
	time.Sleep(150 * time.Millisecond)
	if ok, _ := q.Allow(tenant); !ok {
		t.Fatal("bucket did not refill")
	}
}

func TestQuotasDefaultBurst(t *testing.T) {
	q := NewQuotas(2.5, 0)
	if q.burst != 3 {
		t.Fatalf("default burst = %v, want ceil(qps) = 3", q.burst)
	}
	q = NewQuotas(0.5, 0)
	if q.burst != 1 {
		t.Fatalf("default burst = %v, want 1", q.burst)
	}
}

func TestTenancySnapshot(t *testing.T) {
	ten := NewTenancy(0, 0)
	if ten.QuotaEnabled() {
		t.Fatal("quota enabled with qps=0")
	}
	if got := ten.Snapshot(); got != nil {
		t.Fatalf("empty snapshot = %v, want nil", got)
	}
	a := ten.Stats([]byte("acme"))
	if a2 := ten.Stats([]byte("acme")); a2 != a {
		t.Fatal("Stats must return the same block for the same tenant")
	}
	a.Requests.Add(3)
	a.Hits.Add(2)
	a.Rejected.Add(1)
	ten.Stats([]byte("beta")).Requests.Add(1)
	snap := ten.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d tenants, want 2", len(snap))
	}
	if s := snap["acme"]; s.Requests != 3 || s.Hits != 2 || s.Rejected != 1 {
		t.Fatalf("acme snapshot = %+v", s)
	}
	if s := snap["beta"]; s.Requests != 1 {
		t.Fatalf("beta snapshot = %+v", s)
	}
}

func TestFabricStatus(t *testing.T) {
	f, err := New("http://b:1", []string{"http://a:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Forwarded.Add(4)
	f.RemoteHits.Add(3)
	f.ServedLocal.Add(7)
	s := f.Status()
	if s.Self != "http://b:1" || len(s.Members) != 2 {
		t.Fatalf("status = %+v", s)
	}
	if s.Forwarded != 4 || s.RemoteHits != 3 || s.ServedLocal != 7 {
		t.Fatalf("counters = %+v", s)
	}
}
