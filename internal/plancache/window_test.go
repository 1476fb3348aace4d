package plancache

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// askTier asks for a Combined plan and fails the test unless it is served
// at the wanted tier.
func askTier(t *testing.T, c *Cache, n int64, fns []speed.Function, want Tier) core.Result {
	t.Helper()
	res, tier, err := c.GetTier(core.AlgoCombined, n, speed.NewModel(fns))
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if tier != want {
		t.Fatalf("n=%d: tier %v, want %v", n, tier, want)
	}
	return res
}

func TestWindowDroppedByInvalidateAndRefresh(t *testing.T) {
	c := NewWithConfig(Config{Doorkeeper: true})
	fns := testCluster(8, 31)
	askTier(t, c, 700_000, fns, TierMiss)
	c.InvalidateFingerprint(speed.Fingerprint(fns))
	// The windowed plan is gone; the doorkeeper still remembers the key,
	// so the recomputed plan is admitted.
	askTier(t, c, 700_000, fns, TierMiss)
	if st := c.Stats(); st.Admitted != 1 || st.Size != 1 {
		t.Fatalf("after the recompute: %+v, want admitted=1 size=1", st)
	}

	drifted := append([]speed.Function(nil), fns...)
	drifted[3] = testCluster(8, 32)[3]
	askTier(t, c, 900_000, fns, TierMiss)
	c.Refresh(speed.NewModel(fns), speed.NewModel(drifted))
	askTier(t, c, 900_000, fns, TierMiss)
}

func TestWindowReadOnlyNeitherFillsNorConsults(t *testing.T) {
	c := NewWithConfig(Config{Doorkeeper: true})
	var taps int
	c.SetInsertTap(func(PlanRecord) { taps++ })
	fns := testCluster(8, 33)

	// Not filled: a read-only miss leaves nothing behind, so the first
	// writable ask computes again (and only then fills the window).
	c.SetReadOnly(true)
	askTier(t, c, 500_000, fns, TierMiss)
	c.SetReadOnly(false)
	askTier(t, c, 500_000, fns, TierMiss)
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("read-only miss advanced the doorkeeper: %+v", st)
	}

	// Not consulted: a windowed plan is invisible to a read-only ask, and
	// still waits in the window afterwards.
	askTier(t, c, 600_000, fns, TierMiss)
	c.SetReadOnly(true)
	askTier(t, c, 600_000, fns, TierMiss)
	if taps != 0 {
		t.Fatalf("insert tap fired %d times", taps)
	}
	c.SetReadOnly(false)
	askTier(t, c, 600_000, fns, TierHit)
	if st := c.Stats(); st.Admitted != 1 || taps != 1 {
		t.Fatalf("admitted %d, %d taps; want 1 and 1", st.Admitted, taps)
	}
}

func TestWindowNeverEvictsResidents(t *testing.T) {
	// Eight plans per shard, four window slots per shard.
	c := NewWithConfig(Config{Capacity: numShards * 8, Doorkeeper: true})
	fns := testCluster(6, 34)
	m := speed.NewModel(fns)
	fp := m.Fingerprint()
	sh := &c.shards[0]
	slots := len(sh.win.slots)
	// Sizes whose plans all live in shard 0.
	var sizes []int64
	for n := int64(300_000); len(sizes) < 4+3*slots; n += 1_000 {
		if (key{model: fp, n: n, algo: core.AlgoCombined, opts: servedKey}).hash()&(numShards-1) == 0 {
			sizes = append(sizes, n)
		}
	}
	residents, oneShots := sizes[:4], sizes[4:]
	for _, n := range residents {
		askTier(t, c, n, fns, TierMiss)
		askTier(t, c, n, fns, TierHit)
	}
	for _, n := range oneShots {
		askTier(t, c, n, fns, TierMiss)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Size != len(residents) {
		t.Fatalf("one-shot sizes displaced residents: %+v", st)
	}
	for _, n := range residents {
		if _, ok := c.Peek(m, core.AlgoCombined, n); !ok {
			t.Fatalf("resident n=%d evicted", n)
		}
	}
	// The window kept exactly the last one-shots, oldest first out.
	if len(sh.win.index) != slots {
		t.Fatalf("window holds %d plans, want %d", len(sh.win.index), slots)
	}
	last := oneShots[len(oneShots)-1]
	askTier(t, c, last, fns, TierHit)
	if len(sh.win.index) != slots-1 {
		t.Fatalf("promoted plan still holds a window slot (%d of %d used)", len(sh.win.index), slots)
	}
	askTier(t, c, oneShots[0], fns, TierMiss)
}

func TestWindowClearedByReplace(t *testing.T) {
	c := NewWithConfig(Config{Doorkeeper: true})
	fns := testCluster(8, 35)
	askTier(t, c, 800_000, fns, TierMiss)
	c.Replace(nil)
	askTier(t, c, 800_000, fns, TierMiss)
}

func TestWindowConcurrentSecondAsksAdmitOnce(t *testing.T) {
	c := NewWithConfig(Config{Doorkeeper: true})
	var mu sync.Mutex
	var taps []PlanRecord
	c.SetInsertTap(func(r PlanRecord) {
		mu.Lock()
		taps = append(taps, r)
		mu.Unlock()
	})
	fns := testCluster(12, 36)
	first := askTier(t, c, 1_200_000, fns, TierMiss)

	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]core.Result, goroutines)
	tiers := make([]Tier, goroutines)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			results[g], tiers[g], _ = c.GetTier(core.AlgoCombined, 1_200_000, speed.NewModel(fns))
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range results {
		if tiers[g] != TierHit || !sameResult(results[g], first) {
			t.Fatalf("goroutine %d: tier %v, plan %+v; want a hit on %+v", g, tiers[g], results[g], first)
		}
	}
	if st := c.Stats(); st.Admitted != 1 || st.Misses != 1 || st.Hits != goroutines {
		t.Fatalf("stats %+v, want admitted=1 misses=1 hits=%d", st, goroutines)
	}
	if len(taps) != 1 {
		t.Fatalf("insert tap fired %d times, want 1", len(taps))
	}
}

// gatedFn holds the first computation that evaluates it, once armed, until
// the gate opens, so other requests can join that computation. It wraps a
// function with an analytic IntersectRay and forwards it: hidden, the
// partitioner would intersect the gated model numerically, and the crossing
// sums the regula-falsi step interpolates would differ in their last bits
// from the raw model's.
type gatedFn struct {
	rayFunction
	g *gate
}

type rayFunction interface {
	speed.Function
	geometry.RayIntersector
}

type gate struct {
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{} // closed by the first armed Eval
	open    chan struct{}
}

func (f gatedFn) Eval(x float64) float64 {
	if f.g.armed.Load() {
		f.g.once.Do(func() { close(f.g.entered) })
		<-f.g.open
	}
	return f.rayFunction.Eval(x)
}

// TestSharedAnswersSurviveCallerMutation holds a computed miss in flight
// until another request has joined it, then lets the computing caller
// overwrite the allocation it got back: the joined requests must still be
// served the computed plan (and, under -race, never read the caller's).
func TestSharedAnswersSurviveCallerMutation(t *testing.T) {
	c := New(0)
	fns := testCluster(12, 37)
	const n = 2_000_000
	want, err := core.Combined(n, fns, core.WithBisection(geometry.BisectRegulaFalsi))
	if err != nil {
		t.Fatal(err)
	}
	g := &gate{entered: make(chan struct{}), open: make(chan struct{})}
	gated := make([]speed.Function, len(fns))
	for i, f := range fns {
		gated[i] = gatedFn{rayFunction: f.(rayFunction), g: g}
	}
	// The handle hashes the gated functions' Eval probes: build it before
	// the gate is armed.
	m := speed.NewModel(gated)
	k := key{model: m.Fingerprint(), n: n, algo: core.AlgoCombined, opts: servedKey}
	sh := &c.shards[k.hash()&(numShards-1)]
	g.armed.Store(true)

	const goroutines = 4
	var wg sync.WaitGroup
	results := make([]core.Result, goroutines)
	tiers := make([]Tier, goroutines)
	errs := make([]error, goroutines)
	ask := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], tiers[i], errs[i] = c.GetTier(core.AlgoCombined, n, m)
			if errs[i] == nil && tiers[i] == TierMiss {
				computed := copyResult(results[i])
				for j := range results[i].Alloc {
					results[i].Alloc[j] = -1
				}
				results[i] = computed
			}
		}()
	}
	ask(0)
	<-g.entered // the first ask is computing
	for i := 1; i < goroutines; i++ {
		ask(i)
	}
	for joined := false; !joined; {
		runtime.Gosched()
		sh.mu.Lock()
		cl := sh.inflight[k]
		joined = cl != nil && cl.done != nil
		sh.mu.Unlock()
	}
	close(g.open)
	wg.Wait()

	var shared int
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if tiers[i] == TierShared {
			shared++
		}
		if !sameResult(results[i], want) {
			t.Fatalf("ask %d (tier %v) served %+v, want the computed plan %+v", i, tiers[i], results[i], want)
		}
	}
	if shared == 0 {
		t.Fatal("no request joined the computation")
	}
}

// TestOfferDoorkeeper: a plan offered from outside passes the doorkeeper
// as a miss would — the first offer of a key only remembers it, the
// second inserts a private copy that then serves as an exact hit — with
// no window slot, no insert tap and no computation. A read-only cache
// and an allocation that is not one share per processor summing to n
// insert nothing.
func TestOfferDoorkeeper(t *testing.T) {
	fns := testCluster(8, 51)
	m := speed.NewModel(fns)
	const n = 1_300_000
	ref, err := New(0).Get(core.AlgoCombined, n, m)
	if err != nil {
		t.Fatal(err)
	}
	offer := func(c *Cache, alloc core.Allocation) bool {
		return c.Offer(m, core.AlgoCombined, n, core.Result{Alloc: alloc, Slope: ref.Slope, Stats: ref.Stats}, Encoding{})
	}
	c := NewWithConfig(Config{Doorkeeper: true})
	var taps int
	c.SetInsertTap(func(PlanRecord) { taps++ })

	mine := append(core.Allocation(nil), ref.Alloc...)
	if offer(c, mine) {
		t.Fatal("the first offer of a key was inserted")
	}
	if _, ok := c.Peek(m, core.AlgoCombined, n); ok {
		t.Fatal("the first offer of a key serves")
	}
	if !offer(c, mine) {
		t.Fatal("the second offer of a key was refused")
	}
	mine[0]++ // the cache must hold its own copy
	got := askTier(t, c, n, fns, TierHit)
	if !slices.Equal(got.Alloc, ref.Alloc) || got.Slope != ref.Slope || got.Stats != ref.Stats {
		t.Fatalf("offered plan served as %+v, want %+v", got, ref)
	}
	if st := c.Stats(); taps != 0 || st.Misses != 0 || st.Admitted != 0 || st.Rejected != 0 || st.Size != 1 {
		t.Fatalf("after two offers and a hit: %d taps, %+v; want no tap, miss, admission or window slot and one plan", taps, st)
	}
	if c.InvalidateFingerprint(m.Fingerprint()) != 1 {
		t.Fatal("InvalidateFingerprint did not drop the offered plan")
	}

	// A key the cache computed once is remembered: its first offer inserts.
	c = NewWithConfig(Config{Doorkeeper: true})
	askTier(t, c, n, fns, TierMiss)
	if !offer(c, ref.Alloc) {
		t.Fatal("an offer after a miss of the same key was refused")
	}

	// Read-only: refused, and the doorkeeper does not advance.
	c = NewWithConfig(Config{Doorkeeper: true})
	c.SetReadOnly(true)
	if offer(c, ref.Alloc) || offer(c, ref.Alloc) {
		t.Fatal("a read-only cache took an offer")
	}
	c.SetReadOnly(false)
	if offer(c, ref.Alloc) {
		t.Fatal("read-only offers advanced the doorkeeper")
	}

	// Wrong length or wrong sum: refused however often offered.
	short := append(core.Allocation{ref.Alloc[0] + ref.Alloc[1]}, ref.Alloc[2:]...)
	over := append(core.Allocation(nil), ref.Alloc...)
	over[0]++
	for _, bad := range []core.Allocation{short, over, nil} {
		c = NewWithConfig(Config{Doorkeeper: true})
		if offer(c, bad) || offer(c, bad) || c.Stats().Size != 0 {
			t.Fatalf("allocation %v (sum must be %d over %d processors) was inserted", bad, n, len(fns))
		}
	}
}
