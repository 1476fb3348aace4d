package lu

import (
	"testing"

	"heteropart/internal/serve"
)

// A block-width sweep re-partitions the same trailing matrix sizes over
// and over; through a shared engine those partitions come from the plan
// cache instead of being recomputed, and the resulting distributions stay
// bit-identical to the direct path.
func TestVariableGroupBlockEngineMatchesDirect(t *testing.T) {
	fns := table2LURates(t)
	e := serve.New(serve.Config{})
	defer e.Close()

	const n = 1200
	for _, b := range []int{16, 32, 48, 64} {
		direct, err := VariableGroupBlock(n, b, fns)
		if err != nil {
			t.Fatalf("direct b=%d: %v", b, err)
		}
		viaEngine, err := VariableGroupBlockEngine(e, n, b, fns)
		if err != nil {
			t.Fatalf("engine b=%d: %v", b, err)
		}
		if len(viaEngine.Owners) != len(direct.Owners) {
			t.Fatalf("b=%d: %d owners vs %d", b, len(viaEngine.Owners), len(direct.Owners))
		}
		for k := range direct.Owners {
			if viaEngine.Owners[k] != direct.Owners[k] {
				t.Fatalf("b=%d: owner[%d] = %d via engine, %d direct", b, k, viaEngine.Owners[k], direct.Owners[k])
			}
		}
		for g := range direct.GroupSizes {
			if viaEngine.GroupSizes[g] != direct.GroupSizes[g] {
				t.Fatalf("b=%d: group %d sized %d via engine, %d direct", b, g, viaEngine.GroupSizes[g], direct.GroupSizes[g])
			}
		}
	}

	// Sweeping again over the same widths is served almost entirely from
	// the cache.
	before := e.Metrics()
	for _, b := range []int{16, 32, 48, 64} {
		if _, err := VariableGroupBlockEngine(e, n, b, fns); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Metrics()
	if hits := after.Cache.Hits - before.Cache.Hits; hits == 0 {
		t.Fatalf("repeat sweep hit the cache %d times: %+v", hits, after.Cache)
	}
	if after.Cache.Misses != before.Cache.Misses {
		t.Fatalf("repeat sweep recomputed plans: %+v vs %+v", after.Cache, before.Cache)
	}
	// A nil engine falls back to the direct path.
	fallback, err := VariableGroupBlockEngine(nil, n, 32, fns)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := VariableGroupBlock(n, 32, fns)
	for k := range direct.Owners {
		if fallback.Owners[k] != direct.Owners[k] {
			t.Fatalf("nil-engine fallback diverges at owner %d", k)
		}
	}
}
