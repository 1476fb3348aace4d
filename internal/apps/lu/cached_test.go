package lu

import (
	"testing"

	"heteropart/internal/plancache"
)

// A block-width sweep re-partitions the same trailing matrix sizes over
// and over; through a shared plan cache those partitions are served
// instead of being recomputed, and the resulting distributions stay
// bit-identical to the direct path.
func TestVariableGroupBlockEngineMatchesDirect(t *testing.T) {
	fns := table2LURates(t)
	cache := plancache.New(0)

	const n = 1200
	for _, b := range []int{16, 32, 48, 64} {
		direct, err := VariableGroupBlock(n, b, fns)
		if err != nil {
			t.Fatalf("direct b=%d: %v", b, err)
		}
		cached, err := VariableGroupBlockCached(cache, n, b, fns)
		if err != nil {
			t.Fatalf("cached b=%d: %v", b, err)
		}
		if len(cached.Owners) != len(direct.Owners) {
			t.Fatalf("b=%d: %d owners vs %d", b, len(cached.Owners), len(direct.Owners))
		}
		for k := range direct.Owners {
			if cached.Owners[k] != direct.Owners[k] {
				t.Fatalf("b=%d: owner[%d] = %d cached, %d direct", b, k, cached.Owners[k], direct.Owners[k])
			}
		}
		for g := range direct.GroupSizes {
			if cached.GroupSizes[g] != direct.GroupSizes[g] {
				t.Fatalf("b=%d: group %d sized %d cached, %d direct", b, g, cached.GroupSizes[g], direct.GroupSizes[g])
			}
		}
	}

	// Sweeping again over the same widths is served entirely from the
	// cache.
	before := cache.Stats()
	for _, b := range []int{16, 32, 48, 64} {
		if _, err := VariableGroupBlockCached(cache, n, b, fns); err != nil {
			t.Fatal(err)
		}
	}
	after := cache.Stats()
	if hits := after.Hits - before.Hits; hits == 0 {
		t.Fatalf("repeat sweep hit the cache %d times: %+v", hits, after)
	}
	if after.Misses != before.Misses {
		t.Fatalf("repeat sweep recomputed plans: %+v vs %+v", after, before)
	}
	// A nil cache falls back to the direct path.
	fallback, err := VariableGroupBlockCached(nil, n, 32, fns)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := VariableGroupBlock(n, 32, fns)
	for k := range direct.Owners {
		if fallback.Owners[k] != direct.Owners[k] {
			t.Fatalf("nil-cache fallback diverges at owner %d", k)
		}
	}
}
