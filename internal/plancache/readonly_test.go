package plancache

import (
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/speed"
)

func TestReadOnlySuspendsAdmissionButNotCorrectness(t *testing.T) {
	c := New(0)
	c.SetReadOnly(true)
	fns := testCluster(8, 41)
	m := speed.NewModel(fns)

	res, tier, err := c.GetTier(core.AlgoCombined, 1_000_000, m)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierMiss {
		t.Fatalf("tier %v, want miss", tier)
	}
	if got := res.Alloc.Sum(); got != 1_000_000 {
		t.Fatalf("read-only miss returned a wrong plan: sum %d", got)
	}
	// Nothing was admitted: the same ask misses again.
	_, tier2, err := c.GetTier(core.AlgoCombined, 1_000_000, m)
	if err != nil {
		t.Fatal(err)
	}
	if tier2 != TierMiss {
		t.Fatalf("read-only cache admitted a plan (second ask: %v)", tier2)
	}
	st := c.Stats()
	if st.Admitted != 0 || st.Size != 0 || !st.ReadOnly {
		t.Fatalf("read-only cache leaked state: %+v", st)
	}
}

func TestReadOnlyTapsNeverFire(t *testing.T) {
	c := New(0)
	var taps int
	c.SetInsertTap(func(PlanRecord) { taps++ })
	c.SetReadOnly(true)
	fns := testCluster(6, 42)
	if _, err := c.Get(core.AlgoCombined, 2_000_000, speed.NewModel(fns)); err != nil {
		t.Fatal(err)
	}
	if taps != 0 {
		t.Fatalf("insert tap fired %d times on a read-only cache", taps)
	}
}

func TestReadOnlyImportStillWrites(t *testing.T) {
	c := New(0)
	c.SetReadOnly(true)
	fns := testCluster(8, 43)
	fp := speed.Fingerprint(fns)

	// Import is the replication feed: it must admit records even when the
	// local miss path is sealed.
	res, err := core.Combined(3_000_000, fns)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Import([]PlanRecord{{
		Model: fp, N: 3_000_000, Algo: core.AlgoCombined, OptsKey: servedKey,
		Slope: res.Slope, Alloc: res.Alloc, Stats: res.Stats,
	}})
	if n != 1 {
		t.Fatalf("Import admitted %d, want 1", n)
	}
	got, tier, err := c.GetTier(core.AlgoCombined, 3_000_000, speed.NewModel(fns))
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierHit {
		t.Fatalf("imported plan not served as hit (tier %v)", tier)
	}
	for i := range got.Alloc {
		if got.Alloc[i] != res.Alloc[i] {
			t.Fatalf("hit not bit-identical at %d: %d vs %d", i, got.Alloc[i], res.Alloc[i])
		}
	}

	// Invalidate also still works — it is the other half of the feed.
	if dropped := c.InvalidateFingerprint(fp); dropped != 1 {
		t.Fatalf("InvalidateFingerprint dropped %d, want 1", dropped)
	}
}

func TestReplaceSwapsContentsSilently(t *testing.T) {
	c := New(0)
	fns := testCluster(8, 44)
	m := speed.NewModel(fns)
	if _, err := c.Get(core.AlgoCombined, 1_000_000, m); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Size == 0 {
		t.Fatal("nothing cached to replace")
	}
	if n := c.Replace(nil); n != 0 {
		t.Fatalf("Replace(nil) installed %d plans", n)
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("Replace left %d entries", st.Size)
	}
}

// TestReplaceNeverMissesResidentKey swaps the cache's contents over and
// over while a reader probes a plan that is present both before and after
// every swap: the reader must never miss. Emptying the cache and then
// re-importing it would open a window in which that plan is gone.
func TestReplaceNeverMissesResidentKey(t *testing.T) {
	c := New(0)
	m := speed.NewModel(testCluster(2, 45))
	model := m.Fingerprint()
	plans := make([]PlanRecord, 2000)
	for i := range plans {
		n := int64(1_000_000 + i)
		plans[i] = PlanRecord{
			Model: model, N: n, Algo: core.AlgoCombined, OptsKey: servedKey,
			Slope: 1, Alloc: core.Allocation{n / 2, n - n/2},
		}
	}
	probe := plans[len(plans)-1] // installed last on every swap
	c.Import(plans)

	stop := make(chan struct{})
	var probes, misses int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var ok bool
			_, ok = c.Peek(m, probe.Algo, probe.N)
			probes++
			if !ok {
				misses++
			}
		}
	}()
	for i := 0; i < 20; i++ {
		c.Replace(plans)
	}
	close(stop)
	<-done
	if misses != 0 {
		t.Fatalf("reader missed a resident plan %d times in %d probes across the swaps", misses, probes)
	}
}
