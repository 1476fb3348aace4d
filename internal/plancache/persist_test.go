package plancache

import (
	"math"
	"sync"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/speed"
)

func TestDoorkeeperAdmitsOnSecondMiss(t *testing.T) {
	c := NewWithConfig(Config{Doorkeeper: true})
	var taps []PlanRecord
	c.SetInsertTap(func(r PlanRecord) { taps = append(taps, r) })
	fns := testCluster(8, 21)
	m := speed.NewModel(fns)
	// First request: computed, kept out of the LRU, waiting in the window.
	first, tier, err := c.GetTier(core.AlgoCombined, 700_000, m)
	if err != nil || tier != TierMiss {
		t.Fatalf("first request: tier=%v err=%v", tier, err)
	}
	st := c.Stats()
	if st.Size != 0 || st.Rejected != 1 || st.Admitted != 0 || len(taps) != 0 {
		t.Fatalf("after first miss: %+v, %d taps; want rejected=1 size=0, no tap", st, len(taps))
	}
	// Second request: the window's plan is admitted and served as a hit,
	// without computing again.
	second, tier, err := c.GetTier(core.AlgoCombined, 700_000, m)
	if err != nil || tier != TierHit {
		t.Fatalf("second request: tier=%v err=%v", tier, err)
	}
	st = c.Stats()
	if st.Size != 1 || st.Admitted != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("after second ask: %+v, want admitted=1 size=1 misses=1 hits=1", st)
	}
	if len(taps) != 1 {
		t.Fatalf("insert tap fired %d times, want 1", len(taps))
	}
	// Third request: an exact LRU hit.
	third, tier, err := c.GetTier(core.AlgoCombined, 700_000, m)
	if err != nil || tier != TierHit {
		t.Fatalf("third request: tier=%v err=%v", tier, err)
	}
	// Every answer, and the plan logged, is the first answer bit for bit.
	rec := taps[0]
	logged := core.Result{Slope: rec.Slope, Alloc: rec.Alloc, Stats: rec.Stats}
	for name, got := range map[string]core.Result{"second": second, "third": third, "logged": logged} {
		if !sameResult(got, first) {
			t.Fatalf("%s plan %+v differs from the first answer %+v", name, got, first)
		}
	}
}

// sameResult reports whether two plans agree bit for bit: allocation,
// slope bits and Stats.
func sameResult(a, b core.Result) bool {
	if math.Float64bits(a.Slope) != math.Float64bits(b.Slope) || a.Stats != b.Stats || len(a.Alloc) != len(b.Alloc) {
		return false
	}
	for i := range a.Alloc {
		if a.Alloc[i] != b.Alloc[i] {
			return false
		}
	}
	return true
}

func TestDoorkeeperGenerationsRotate(t *testing.T) {
	d := &doorkeeper{cap: 4, cur: make(map[uint64]struct{})}
	for h := uint64(0); h < 8; h++ {
		d.remember(h)
	}
	// cap 4: after 8 inserts one rotation happened; the last 8 keys must
	// still be remembered across cur+prev.
	for h := uint64(0); h < 8; h++ {
		if !d.seen(h) {
			t.Fatalf("key %d forgotten too early", h)
		}
	}
	for h := uint64(8); h < 16; h++ {
		d.remember(h)
	}
	if d.seen(0) {
		t.Fatal("key 0 survived two generations")
	}
}

// TestExportImportRoundTrip imports the plans a cache's insert tap
// exported into a fresh cache, which must serve them as hits bit for bit.
func TestExportImportRoundTrip(t *testing.T) {
	c := New(0)
	var plans []PlanRecord
	c.SetInsertTap(func(r PlanRecord) { plans = append(plans, r) })
	fns := testCluster(10, 23)
	m := speed.NewModel(fns)
	sizes := []int64{200_000, 300_000, 400_000, 500_000}
	want := make(map[int64]core.Result)
	for _, n := range sizes {
		res, err := c.Get(core.AlgoCombined, n, m)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res
	}
	if len(plans) != len(sizes) {
		t.Fatalf("exported %d plans, want %d", len(plans), len(sizes))
	}

	fresh := New(0)
	if got := fresh.Import(plans); got != len(sizes) {
		t.Fatalf("imported %d plans, want %d", got, len(sizes))
	}
	for _, n := range sizes {
		got, tier, err := fresh.GetTier(core.AlgoCombined, n, m)
		if err != nil {
			t.Fatal(err)
		}
		if tier != TierHit {
			t.Fatalf("n=%d not served from imported cache (tier %v)", n, tier)
		}
		if got.Slope != want[n].Slope || got.Stats != want[n].Stats {
			t.Fatalf("n=%d: slope/stats differ after import", n)
		}
		for i := range want[n].Alloc {
			if got.Alloc[i] != want[n].Alloc[i] {
				t.Fatalf("n=%d proc %d: %d != %d", n, i, got.Alloc[i], want[n].Alloc[i])
			}
		}
	}
}

func TestImportRejectsInvalidRecords(t *testing.T) {
	c := New(0)
	good := PlanRecord{Model: 7, N: 10, Algo: core.AlgoCombined, Slope: 1, Alloc: core.Allocation{4, 6}}
	bad := []PlanRecord{
		{Model: 7, N: 10, Alloc: core.Allocation{4, 7}},   // sum mismatch
		{Model: 7, N: 10, Alloc: nil},                     // empty alloc
		{Model: 7, N: 10, Alloc: core.Allocation{-1, 11}}, // negative share
		// shares that wrap int64 around to N
		{Model: 7, N: 6, Alloc: core.Allocation{math.MaxInt64, math.MaxInt64, 8}},
	}
	if got := c.Import(append(bad, good)); got != 1 {
		t.Fatalf("imported %d records, want only the valid one", got)
	}
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("size %d after import, want 1", st.Size)
	}
}

func TestInsertTapSeesAdmittedPlans(t *testing.T) {
	c := New(0)
	fns := testCluster(6, 24)
	m := speed.NewModel(fns)
	var mu sync.Mutex
	var tapped []PlanRecord
	c.SetInsertTap(func(r PlanRecord) {
		mu.Lock()
		tapped = append(tapped, r)
		mu.Unlock()
	})
	res, err := c.Get(core.AlgoCombined, 600_000, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(core.AlgoCombined, 600_000, m); err != nil { // hit: no tap
		t.Fatal(err)
	}
	mu.Lock()
	if len(tapped) != 1 {
		mu.Unlock()
		t.Fatalf("tap fired %d times, want 1", len(tapped))
	}
	rec := tapped[0]
	mu.Unlock()
	if rec.Model != speed.Fingerprint(fns) || rec.N != 600_000 || !rec.Valid() {
		t.Fatalf("tap record wrong: %+v", rec)
	}
	for i := range res.Alloc {
		if rec.Alloc[i] != res.Alloc[i] {
			t.Fatalf("tap alloc differs at %d", i)
		}
	}
	// Mutating the tapped record must not corrupt the cache.
	rec.Alloc[0] = -5
	again, _ := c.Get(core.AlgoCombined, 600_000, m)
	if again.Alloc[0] != res.Alloc[0] {
		t.Fatal("tap record aliases the cached plan")
	}

	// Removing the tap stops the callbacks.
	c.SetInsertTap(nil)
	if _, err := c.Get(core.AlgoCombined, 601_000, m); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(tapped) != 1 {
		t.Fatalf("tap fired after removal: %d", len(tapped))
	}
}
