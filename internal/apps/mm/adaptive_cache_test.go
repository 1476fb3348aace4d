package mm

import (
	"context"
	"math"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/faults"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// TestExecuteAdaptiveEngineNoFaults pins down that wiring a plan cache
// into a fault-free, drift-free run changes nothing: the cache path only
// activates at repartition points, and there are none.
func TestExecuteAdaptiveEngineNoFaults(t *testing.T) {
	plan, fns, a, b, want := supervisedFixture(t, 96)
	cache := plancache.New(0)
	acfg := AdaptiveConfig{Drift: &speed.Drift{Threshold: math.Inf(1)}, Cache: cache}
	c, rep, err := ExecuteAdaptive(context.Background(), plan, a, b, fns, nil, faults.Config{}, acfg)
	if err != nil {
		t.Fatalf("ExecuteAdaptive: %v", err)
	}
	if len(rep.Failed) != 0 || len(rep.Stale) != 0 {
		t.Errorf("fault-free report = %+v", rep)
	}
	if !bitEqual(c, want) {
		t.Error("cache-wired fault-free product differs from Execute")
	}
	if st := cache.Stats(); st.Hits+st.Misses+st.Shared != 0 {
		t.Errorf("a run without repartitions asked the cache: %+v", st)
	}
}

// TestExecuteAdaptiveEngineCrashRepartitions reruns the PR 1 acceptance
// scenario — a seeded crash of the fastest machine mid-run — with the
// repartition optima served through the plan cache. The executor's
// contract is unchanged (complete, bit-exact product via the survivors),
// and the cache counters prove the plan really was served, not computed
// directly.
func TestExecuteAdaptiveEngineCrashRepartitions(t *testing.T) {
	const n = 160
	plan, fns, a, b, want := supervisedFixture(t, n)
	fastest, best := -1, 0.0
	for i, f := range fns {
		if v := f.Eval(math.Min(3*float64(plan.Rows[i])*n, f.MaxSize())); v > best {
			fastest, best = i, v
		}
	}
	pln, err := faults.NewPlan(faults.Fault{Kind: faults.Crash, Proc: fastest, At: 5e-5})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(pln, len(fns), 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := plancache.New(0)
	acfg := AdaptiveConfig{Drift: &speed.Drift{Threshold: math.Inf(1)}, Cache: cache}
	cfg := faults.Config{MaxRetries: 1}
	c, rep, err := ExecuteAdaptive(context.Background(), plan, a, b, fns, inj, cfg, acfg)
	if err != nil {
		t.Fatalf("ExecuteAdaptive: %v", err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != fastest {
		t.Fatalf("failed = %v, want [%d]", rep.Failed, fastest)
	}
	if !bitEqual(c, want) {
		t.Error("cache-served recovery product is not bit-identical to the fault-free one")
	}
	if st := cache.Stats(); st.Misses == 0 {
		t.Fatalf("crash recovery repartitioned without touching the cache: %+v", st)
	}
}

// TestRepartitionCachedMatchesCore: the cached repartition returns
// core.Repartition's allocation and move count, its second pass is a
// cache hit, degenerate inputs go to core, and a negative slack or a nil
// model is an error.
func TestRepartitionCachedMatchesCore(t *testing.T) {
	cache := plancache.New(0)
	fns := table2Rates(t)
	old, err := core.Even(3_000_000, len(fns))
	if err != nil {
		t.Fatal(err)
	}
	want, wantMoved, err := core.Repartition(old, fns, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if wantMoved == 0 {
		t.Fatal("fixture moves nothing; pick one that repartitions")
	}
	for pass := 0; pass < 2; pass++ { // second pass served from cache
		got, gotMoved, err := repartitionCached(cache, old, speed.NewModel(fns), 0.05)
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
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("two repartitions over one model: %+v, want 1 miss and 1 hit", st)
	}
	// Degenerate inputs take the direct core path.
	if _, _, err := repartitionCached(cache, core.Allocation{}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repartitionCached(cache, old, speed.NewModel(fns), -1); err == nil {
		t.Fatal("expected negative-slack error")
	}
	if _, _, err := repartitionCached(cache, core.Allocation{500, 500}, nil, 0); err == nil {
		t.Fatal("repartition onto a nil model succeeded")
	}
}
