package plancache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// testCluster builds PWL speed functions from sampled analytic curves so
// the cache exercises the analytic ray-intersection fast path.
func testCluster(p int, seed uint32) []speed.Function {
	fns := make([]speed.Function, p)
	s := seed
	for i := range fns {
		s = s*1664525 + 1013904223
		peak := 1e7 * (1 + float64(s%900)/100)
		s = s*1664525 + 1013904223
		paging := 1e7 * (1 + float64(s%50))
		a := &speed.Analytic{
			Peak: peak, HalfRise: 1e3, CacheEdge: 1e5, CacheDecay: 0.8,
			PagingPoint: paging, PagingWidth: paging / 5, PagingFloor: 0.02,
			Max: 2e9,
		}
		pts := make([]speed.Point, 0, 12)
		for x := 1e3; x < a.Max; x *= 8 {
			pts = append(pts, speed.Point{X: x, Y: a.Eval(x)})
		}
		pts = append(pts, speed.Point{X: a.Max, Y: a.Eval(a.Max)})
		fns[i] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))
	}
	return fns
}

func TestCacheHitReturnsIdenticalPlan(t *testing.T) {
	c := New(0)
	fns := testCluster(12, 1)
	m := speed.NewModel(fns)
	first, err := c.Get(core.AlgoCombined, 1_000_000, m)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Get(core.AlgoCombined, 1_000_000, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Alloc {
		if first.Alloc[i] != second.Alloc[i] {
			t.Fatalf("proc %d: %d != %d", i, first.Alloc[i], second.Alloc[i])
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
	// Mutating the returned plan must not corrupt the cache.
	second.Alloc[0] = -999
	third, err := c.Get(core.AlgoCombined, 1_000_000, m)
	if err != nil {
		t.Fatal(err)
	}
	if third.Alloc[0] != first.Alloc[0] {
		t.Fatal("cached plan was mutated through a returned copy")
	}
}

func TestCacheKeying(t *testing.T) {
	c := New(0)
	fns := testCluster(8, 2)
	m := speed.NewModel(fns)
	other := testCluster(8, 3)
	base, err := c.Get(core.AlgoCombined, 500_000, m)
	if err != nil {
		t.Fatal(err)
	}
	// Different n, algorithm, options, and model must all miss.
	if _, err := c.Get(core.AlgoCombined, 500_001, m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(core.AlgoBasic, 500_000, m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(core.AlgoCombined, 500_000, m, core.WithoutFineTune()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(core.AlgoCombined, 500_000, speed.NewModel(other)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 5 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 5 distinct misses", st)
	}
	// A rebuilt (value-identical) model slice must hit.
	rebuilt := testCluster(8, 2)
	again, err := c.Get(core.AlgoCombined, 500_000, speed.NewModel(rebuilt))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("rebuilt model missed: %+v", st)
	}
	for i := range base.Alloc {
		if base.Alloc[i] != again.Alloc[i] {
			t.Fatalf("proc %d differs after rebuild", i)
		}
	}
}

func TestSingleflightSharesComputation(t *testing.T) {
	c := New(0)
	fns := testCluster(32, 5)
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]core.Result, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = c.Get(core.AlgoCombined, 9_000_000, speed.NewModel(fns))
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range results[0].Alloc {
			if results[g].Alloc[i] != results[0].Alloc[i] {
				t.Fatalf("goroutine %d diverges at proc %d", g, i)
			}
		}
	}
	st := c.Stats()
	if st.Misses+st.Shared+st.Hits != goroutines {
		t.Fatalf("counters do not add up: %+v", st)
	}
	if st.Misses == goroutines {
		t.Fatalf("no sharing at all: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(numShards) // one entry per shard
	fns := testCluster(4, 6)
	for n := int64(10_000); n < 10_000+200; n++ {
		if _, err := c.Get(core.AlgoCombined, n, speed.NewModel(fns)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Size > numShards {
		t.Fatalf("size %d exceeds capacity %d", st.Size, numShards)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(0)
	fns := testCluster(8, 7)
	m := speed.NewModel(fns)
	other := testCluster(8, 8)
	mOther := speed.NewModel(other)
	for n := int64(100_000); n <= 400_000; n += 100_000 {
		if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(core.AlgoCombined, n, mOther); err != nil {
			t.Fatal(err)
		}
	}
	dropped := c.InvalidateFingerprint(speed.Fingerprint(fns))
	if dropped != 4 {
		t.Fatalf("dropped %d plans, want 4", dropped)
	}
	st := c.Stats()
	if st.Size != 4 {
		t.Fatalf("size %d after invalidate, want 4 (other model intact)", st.Size)
	}
	// The invalidated model recomputes; the other still hits.
	if _, err := c.Get(core.AlgoCombined, 100_000, m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(core.AlgoCombined, 100_000, mOther); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Hits != st.Hits+1 || after.Misses != st.Misses+1 {
		t.Fatalf("post-invalidate stats wrong: %+v -> %+v", st, after)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(0)
	fns := testCluster(4, 9)
	m := speed.NewModel(fns)
	// Infeasible n: errors must propagate and not poison the cache.
	if _, err := c.Get(core.AlgoCombined, 1<<62, m); err == nil {
		t.Fatal("expected infeasibility error")
	}
	if _, err := c.Get(core.AlgoCombined, 1<<62, m); err == nil {
		t.Fatal("expected infeasibility error on retry")
	}
	st := c.Stats()
	if st.Size != 0 {
		t.Fatalf("error cached: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("errors should recompute every time: %+v", st)
	}
	if _, err := c.Get(core.Algorithm(42), 100, m); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
}

// countingFn is a speed function of a type the fingerprint does not know,
// so hashing it falls back to Eval probes: its call count shows whether a
// path rehashed the model.
type countingFn struct {
	calls *atomic.Int64
}

func (f countingFn) Eval(float64) float64 { f.calls.Add(1); return 1e8 }
func (f countingFn) MaxSize() float64     { return 2e9 }

// TestHitsAndRefreshesDoNotHash builds a model handle once and then serves
// it through both hit paths and a refresh of another processor: none of
// them may evaluate the model's functions, so none rehashes it.
func TestHitsAndRefreshesDoNotHash(t *testing.T) {
	var calls atomic.Int64
	m := speed.NewModel([]speed.Function{
		countingFn{&calls}, speed.MustConstant(2e7, 2e9), speed.MustConstant(3e7, 2e9),
	})
	c := New(0)
	const n = 1_000_000
	if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
		t.Fatal(err)
	}
	check := func(path string) {
		t.Helper()
		if got := calls.Swap(0); got != 0 {
			t.Fatalf("%s evaluated the model %d times", path, got)
		}
	}
	calls.Store(0)

	if _, tier, err := c.GetTier(core.AlgoCombined, n, m); err != nil || tier != TierHit {
		t.Fatalf("GetTier: tier %v, err %v; want a hit", tier, err)
	}
	check("a GetTier hit")
	if _, ok := c.Peek(m, core.AlgoCombined, n); !ok {
		t.Fatal("Peek missed")
	}
	check("a Peek hit")
	next := m.WithProc(1, speed.MustConstant(2.5e7, 2e9))
	if kept, dropped := c.Refresh(m, next); kept+dropped != 1 {
		t.Fatalf("Refresh kept %d, dropped %d; want the one plan migrated", kept, dropped)
	}
	check("a Refresh of another processor")
}

// TestNilModelAnswersNoProcessors: a request without a model is an empty
// cluster, answered with core.ErrNoProcessors on every path, never a panic.
func TestNilModelAnswersNoProcessors(t *testing.T) {
	c := New(0)
	if _, ok := c.Peek(nil, core.AlgoCombined, 1000); ok {
		t.Fatal("Peek hit a nil model")
	}
	if _, err := c.Get(core.AlgoCombined, 1000, nil); !errors.Is(err, core.ErrNoProcessors) {
		t.Fatalf("Get(nil model) = %v, want ErrNoProcessors", err)
	}
	if _, _, err := c.GetTier(core.AlgoCombined, 1000, nil); !errors.Is(err, core.ErrNoProcessors) {
		t.Fatalf("GetTier(nil model) = %v, want ErrNoProcessors", err)
	}
}

// TestConcurrentHammer drives the cache from many goroutines across
// overlapping models, sizes, and invalidations, with admission off and on
// (the admission window included); run with -race.
func TestConcurrentHammer(t *testing.T) {
	hammer(t, New(64))
	hammer(t, NewWithConfig(Config{Capacity: 64, Doorkeeper: true}))
}

func hammer(t *testing.T, c *Cache) {
	models := [][]speed.Function{
		testCluster(6, 10), testCluster(6, 11), testCluster(6, 12),
	}
	colds := make(map[int]map[int64]core.Allocation)
	sizes := []int64{50_000, 60_000, 70_000, 80_000, 90_000}
	for mi, m := range models {
		colds[mi] = make(map[int64]core.Allocation)
		for _, n := range sizes {
			res, err := core.Combined(n, m)
			if err != nil {
				t.Fatal(err)
			}
			colds[mi][n] = res.Alloc
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint32(g + 1)
			for i := 0; i < 300; i++ {
				rng = rng*1664525 + 1013904223
				mi := int(rng % uint32(len(models)))
				rng = rng*1664525 + 1013904223
				n := sizes[rng%uint32(len(sizes))]
				if rng%97 == 0 {
					c.InvalidateFingerprint(speed.Fingerprint(models[mi]))
					continue
				}
				got, err := c.Get(core.AlgoCombined, n, speed.NewModel(models[mi]))
				if err != nil {
					t.Error(err)
					return
				}
				want := colds[mi][n]
				for j := range want {
					if got.Alloc[j] != want[j] {
						t.Errorf("model %d n=%d proc %d: %d != %d", mi, n, j, got.Alloc[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServedKeys pins the options hashes plans are keyed under: a request
// with no options keys the regula-falsi search, and one naming tangents
// keys what an older store holds its tangent-bisection plans under.
func TestServedKeys(t *testing.T) {
	if k, _ := served(nil, nil); k != core.OptionsKey(core.WithBisection(geometry.BisectRegulaFalsi)) || k == core.OptionsKey() {
		t.Fatalf("no-options key %#x", k)
	}
	k, run := served(nil, []core.Option{core.WithBisection(geometry.BisectTangents)})
	if k != core.OptionsKey() {
		t.Fatalf("tangents key %#x, want the default options key %#x", k, core.OptionsKey())
	}
	if len(run) != 2 {
		t.Fatalf("run options %d, want the served rule and the request's", len(run))
	}
	if k, _ := served(nil, []core.Option{core.WithMaxSteps(12)}); k != core.OptionsKey(core.WithBisection(geometry.BisectRegulaFalsi), core.WithMaxSteps(12)) {
		t.Fatalf("max-steps key %#x", k)
	}
}
