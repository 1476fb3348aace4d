package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// testCluster builds PWL speed functions from sampled analytic curves.
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

func TestEngineServesBitIdenticalPlans(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	fns := testCluster(16, 1)
	for _, n := range []int64{100_000, 1_000_000, 123_456} {
		cold, err := core.Combined(n, fns)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Partition(Request{Algo: core.AlgoCombined, N: n, Model: speed.NewModel(fns)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold.Alloc {
			if got.Alloc[i] != cold.Alloc[i] {
				t.Fatalf("n=%d proc %d: engine=%d cold=%d", n, i, got.Alloc[i], cold.Alloc[i])
			}
		}
	}
	if m := e.Metrics(); m.Requests != 3 || m.Batches == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestEngineErrorsPropagate(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	fns := testCluster(4, 2)
	m := speed.NewModel(fns)
	if _, err := e.Partition(Request{Algo: core.AlgoCombined, N: 1 << 62, Model: m}); err == nil {
		t.Fatal("expected infeasibility error")
	}
	if _, err := e.Partition(Request{Algo: core.Algorithm(42), N: 100, Model: m}); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
}

func TestEngineCoalescesDuplicates(t *testing.T) {
	e := New(Config{MaxBatch: 64, QueueDepth: 256})
	defer e.Close()
	fns := testCluster(24, 3)
	// Fire identical requests concurrently: between batching coalescing
	// and cache singleflight, far fewer computations than requests.
	const reqs = 64
	var wg sync.WaitGroup
	allocs := make([]core.Allocation, reqs)
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Partition(Request{Algo: core.AlgoCombined, N: 2_000_000, Model: speed.NewModel(fns)})
			if err != nil {
				t.Error(err)
				return
			}
			allocs[i] = res.Alloc
		}(i)
	}
	wg.Wait()
	for i := 1; i < reqs; i++ {
		for j := range allocs[0] {
			if allocs[i][j] != allocs[0][j] {
				t.Fatalf("request %d diverges at proc %d", i, j)
			}
		}
	}
	m := e.Metrics()
	if m.Requests != reqs {
		t.Fatalf("answered %d requests, want %d", m.Requests, reqs)
	}
	if m.Cache.Misses != 1 {
		t.Fatalf("computed %d plans for %d identical requests", m.Cache.Misses, reqs)
	}
	if m.Coalesced == 0 && m.Cache.Hits == 0 && m.Cache.Shared == 0 {
		t.Fatalf("no deduplication at all: %+v", m)
	}
	// Mutating one response must not affect another (each owns its alloc).
	allocs[0][0] = -1
	if allocs[1][0] == -1 {
		t.Fatal("responses share one allocation")
	}
}

// TestEngineCoalescedAnswersArePrivate has every requester of one plan
// overwrite its allocation the moment it arrives: the first member of a
// coalesced group gets the cache's answer itself, so the copies for the
// others must all be made before it is answered (-race checks the order).
func TestEngineCoalescedAnswersArePrivate(t *testing.T) {
	e := New(Config{MaxBatch: 64, QueueDepth: 256})
	defer e.Close()
	fns := testCluster(24, 4)
	want, err := core.Combined(3_000_000, fns)
	if err != nil {
		t.Fatal(err)
	}
	const reqs = 32
	replies := make([]<-chan Response, reqs)
	for i := range replies {
		replies[i] = e.Submit(Request{Algo: core.AlgoCombined, N: 3_000_000, Model: speed.NewModel(fns)})
	}
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(reply <-chan Response) {
			defer wg.Done()
			r := <-reply
			if r.Err != nil {
				t.Error(r.Err)
				return
			}
			for j := range r.Result.Alloc {
				if r.Result.Alloc[j] != want.Alloc[j] {
					t.Errorf("proc %d: served %d, want %d", j, r.Result.Alloc[j], want.Alloc[j])
					return
				}
				r.Result.Alloc[j] = -1
			}
		}(replies[i])
	}
	wg.Wait()
}

func TestEngineRepartitionMatchesCore(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	fns := testCluster(12, 4)
	old, err := core.Even(3_000_000, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, wantMoved, err := core.Repartition(old, fns, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // second pass served from cache
		got, gotMoved, err := e.Repartition(old, speed.NewModel(fns), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if gotMoved != wantMoved {
			t.Fatalf("pass %d: moved %d, want %d", pass, gotMoved, wantMoved)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d proc %d: %d != %d", pass, i, got[i], want[i])
			}
		}
	}
	if m := e.Metrics(); m.Cache.Hits == 0 {
		t.Fatalf("second repartition missed the cache: %+v", m)
	}
	// Degenerate inputs take the direct core path.
	if _, _, err := e.Repartition(core.Allocation{}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Repartition(old, speed.NewModel(fns), -1); err == nil {
		t.Fatal("expected negative-slack error")
	}
}

func TestEngineInvalidate(t *testing.T) {
	cache := plancache.New(0)
	e := New(Config{Cache: cache})
	defer e.Close()
	fns := testCluster(8, 5)
	if _, err := e.Partition(Request{Algo: core.AlgoCombined, N: 500_000, Model: speed.NewModel(fns)}); err != nil {
		t.Fatal(err)
	}
	if dropped := e.Cache().InvalidateFingerprint(speed.Fingerprint(fns)); dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	if st := cache.Stats(); st.Size != 0 {
		t.Fatalf("cache not empty after invalidate: %+v", st)
	}
}

func TestEngineClose(t *testing.T) {
	e := New(Config{})
	fns := testCluster(4, 6)
	m := speed.NewModel(fns)
	if _, err := e.Partition(Request{Algo: core.AlgoCombined, N: 10_000, Model: m}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Partition(Request{Algo: core.AlgoCombined, N: 10_000, Model: m}); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestEngineConcurrentHammer drives the engine from many goroutines with
// mixed sizes, models, and invalidations; run with -race.
func TestEngineConcurrentHammer(t *testing.T) {
	e := New(Config{MaxBatch: 32, QueueDepth: 64})
	defer e.Close()
	models := [][]speed.Function{testCluster(6, 7), testCluster(6, 8)}
	sizes := []int64{40_000, 50_000, 60_000}
	want := make([][]core.Allocation, len(models))
	for mi, m := range models {
		want[mi] = make([]core.Allocation, len(sizes))
		for si, n := range sizes {
			res, err := core.Combined(n, m)
			if err != nil {
				t.Fatal(err)
			}
			want[mi][si] = res.Alloc
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint32(g + 1)
			for i := 0; i < 200; i++ {
				rng = rng*1664525 + 1013904223
				mi := int(rng % uint32(len(models)))
				rng = rng*1664525 + 1013904223
				si := int(rng % uint32(len(sizes)))
				if rng%101 == 0 {
					e.Cache().InvalidateFingerprint(speed.Fingerprint(models[mi]))
					continue
				}
				res, err := e.Partition(Request{Algo: core.AlgoCombined, N: sizes[si], Model: speed.NewModel(models[mi])})
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want[mi][si] {
					if res.Alloc[j] != want[mi][si][j] {
						t.Errorf("model %d size %d proc %d: %d != %d", mi, si, j, res.Alloc[j], want[mi][si][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	m := e.Metrics()
	if m.Requests == 0 || m.AvgBatch < 1 {
		t.Fatalf("suspicious metrics: %+v", m)
	}
}

// TestEngineCloseUnderLoad races Close against submitters; every request
// must be answered (plan or ErrClosed), none stranded. Run with -race.
func TestEngineCloseUnderLoad(t *testing.T) {
	e := New(Config{QueueDepth: 4})
	fns := testCluster(4, 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := e.Partition(Request{Algo: core.AlgoCombined, N: int64(10_000 + i), Model: speed.NewModel(fns)})
				if err != nil && err != ErrClosed {
					t.Error(err)
					return
				}
			}
		}()
	}
	e.Close()
	wg.Wait() // hangs here if any request is stranded
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
// it through every hit path and a refresh of another processor: none of
// them may evaluate the model's functions, so none rehashes it.
func TestHitsAndRefreshesDoNotHash(t *testing.T) {
	var calls atomic.Int64
	m := speed.NewModel([]speed.Function{
		countingFn{&calls}, speed.MustConstant(2e7, 2e9), speed.MustConstant(3e7, 2e9),
	})
	cache := plancache.New(0)
	e := New(Config{Cache: cache})
	defer e.Close()
	req := Request{Algo: core.AlgoCombined, N: 1_000_000, Model: m}
	if _, err := e.Partition(req); err != nil {
		t.Fatal(err)
	}
	check := func(path string) {
		t.Helper()
		if n := calls.Swap(0); n != 0 {
			t.Fatalf("%s evaluated the model %d times", path, n)
		}
	}
	calls.Store(0)

	if _, tier, err := cache.GetTier(req.Algo, req.N, m); err != nil || tier != plancache.TierHit {
		t.Fatalf("GetTier: tier %v, err %v; want a hit", tier, err)
	}
	check("a Cache.GetTier hit")
	if _, _, ok := e.TryHit(req, nil); !ok {
		t.Fatal("TryHit missed")
	}
	check("an Engine.TryHit hit")
	if r := <-e.Submit(req); r.Err != nil || r.Tier != plancache.TierHit {
		t.Fatalf("Submit: tier %v, err %v; want a hit", r.Tier, r.Err)
	}
	check("a Submit hit")
	next := m.WithProc(1, speed.MustConstant(2.5e7, 2e9))
	if kept, dropped := cache.Refresh(m, next); kept+dropped != 1 {
		t.Fatalf("Refresh kept %d, dropped %d; want the one plan migrated", kept, dropped)
	}
	check("a Cache.Refresh of another processor")
}

// TestNilModelAnswersNoProcessors: a request without a model is an empty
// cluster, answered with core.ErrNoProcessors on every path, never a panic.
func TestNilModelAnswersNoProcessors(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	req := Request{Algo: core.AlgoCombined, N: 1000}
	if _, _, ok := e.TryHit(req, nil); ok {
		t.Fatal("TryHit hit a nil model")
	}
	if _, err := e.Partition(req); !errors.Is(err, core.ErrNoProcessors) {
		t.Fatalf("Partition(nil model) = %v, want ErrNoProcessors", err)
	}
	if _, err := e.Cache().Get(core.AlgoCombined, 1000, nil); !errors.Is(err, core.ErrNoProcessors) {
		t.Fatalf("Cache.Get(nil model) = %v, want ErrNoProcessors", err)
	}
	if _, _, err := e.Repartition(core.Allocation{500, 500}, nil, 0); err == nil {
		t.Fatal("Repartition onto a nil model succeeded")
	}
}
