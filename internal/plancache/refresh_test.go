package plancache

import (
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/speed"
)

// refreshCluster builds p piecewise linear processors with knots at fixed
// decades, so a tail-knot drift provably changes Eval only above 1e7 —
// small plans survive a refresh, billion-element ones cannot.
func refreshCluster(p int) []speed.Function {
	fns := make([]speed.Function, p)
	for i := range fns {
		base := 1e8 * (1 + 0.13*float64(i))
		fns[i] = speed.MustPiecewiseLinear(speed.EnforceShape([]speed.Point{
			{X: 1e3, Y: base},
			{X: 1e5, Y: base * 0.97},
			{X: 1e7, Y: base * 0.9},
			{X: 1e9, Y: base * 0.6},
		}))
	}
	return fns
}

// driftProc replaces one processor with a copy whose tail knot slowed down.
func driftProc(fns []speed.Function, proc int) []speed.Function {
	pts := append([]speed.Point(nil), fns[proc].(*speed.PiecewiseLinear).Points()...)
	pts[len(pts)-1].Y *= 0.5
	out := append([]speed.Function(nil), fns...)
	out[proc] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))
	return out
}

func TestDeltaRefreshSelectiveSurvival(t *testing.T) {
	fns := refreshCluster(8)
	m := speed.NewModel(fns)
	const proc = 3
	newFns := driftProc(fns, proc)
	mNew := speed.NewModel(newFns)
	sizes := []int64{40_000, 200_000, 1_000_000, 3_000_000, 900_000_000, 2_500_000_000, 6_000_000_000}

	c := New(0)
	allocs := make(map[int64]core.Allocation, len(sizes))
	for _, n := range sizes {
		res, err := c.Get(core.AlgoCombined, n, m)
		if err != nil {
			t.Fatalf("populate n=%d: %v", n, err)
		}
		allocs[n] = res.Alloc
	}
	wantSurvive := make(map[int64]bool, len(sizes))
	nSurvive := 0
	for n, a := range allocs {
		ok := SurvivesProc(a[proc], fns[proc], newFns[proc])
		wantSurvive[n] = ok
		if ok {
			nSurvive++
		}
	}
	if nSurvive == 0 || nSurvive == len(sizes) {
		t.Fatalf("degenerate drift scenario: %d/%d survive", nSurvive, len(sizes))
	}

	kept, dropped := c.Refresh(m, mNew)
	if kept != nSurvive || kept+dropped != len(sizes) {
		t.Fatalf("Refresh kept=%d dropped=%d, want kept=%d dropped=%d", kept, dropped, nSurvive, len(sizes)-nSurvive)
	}
	st := c.Stats()
	if st.Refreshes != 1 || st.RefreshKept != uint64(kept) || st.RefreshDropped != uint64(dropped) {
		t.Fatalf("refresh counters: %+v", st)
	}

	// Every size — survivor or not — must now serve the cold answer for
	// the NEW model bit-identically; survivors without recomputing.
	for _, n := range sizes {
		cold, err := core.Combined(n, newFns)
		if err != nil {
			t.Fatalf("cold Combined(n=%d, new): %v", n, err)
		}
		res, tier, err := c.GetTier(core.AlgoCombined, n, mNew)
		if err != nil {
			t.Fatalf("Get(n=%d, new): %v", n, err)
		}
		if wantSurvive[n] && tier != TierHit {
			t.Fatalf("n=%d survived the refresh but served as tier %d, want hit", n, tier)
		}
		if !wantSurvive[n] && tier != TierMiss {
			t.Fatalf("n=%d was dropped but served as tier %d, want miss", n, tier)
		}
		for i := range cold.Alloc {
			if res.Alloc[i] != cold.Alloc[i] {
				t.Fatalf("n=%d proc=%d: served %d, cold %d (survive=%v)", n, i, res.Alloc[i], cold.Alloc[i], wantSurvive[n])
			}
		}
	}
	// The old model's entries are gone.
	if _, tier, err := c.GetTier(core.AlgoCombined, sizes[0], m); err != nil || tier != TierMiss {
		t.Fatalf("old model still cached after refresh (tier %d, err %v)", tier, err)
	}
}

func TestDeltaRefreshLengthChangeInvalidatesAll(t *testing.T) {
	fns := refreshCluster(6)
	m := speed.NewModel(fns)
	sizes := []int64{100_000, 1_000_000}
	c := New(0)
	for _, n := range sizes {
		if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
			t.Fatal(err)
		}
	}
	kept, dropped := c.Refresh(m, speed.NewModel(refreshCluster(7)))
	if kept != 0 || dropped != len(sizes) {
		t.Fatalf("length change: kept=%d dropped=%d, want 0/%d", kept, dropped, len(sizes))
	}
	if _, tier, _ := c.GetTier(core.AlgoCombined, sizes[0], m); tier != TierMiss {
		t.Fatalf("old entries survived a processor-count change")
	}
}

func TestDeltaRefreshNoChange(t *testing.T) {
	fns := refreshCluster(5)
	m := speed.NewModel(fns)
	c := New(0)
	if _, err := c.Get(core.AlgoCombined, 1_000_000, m); err != nil {
		t.Fatal(err)
	}
	same := append([]speed.Function(nil), fns...)
	if kept, dropped := c.Refresh(m, speed.NewModel(same)); kept != 0 || dropped != 0 {
		t.Fatalf("identical model refresh moved plans: kept=%d dropped=%d", kept, dropped)
	}
	if st := c.Stats(); st.Refreshes != 0 {
		t.Fatalf("no-op refresh counted: %+v", st)
	}
	if _, tier, _ := c.GetTier(core.AlgoCombined, 1_000_000, m); tier != TierHit {
		t.Fatal("entry lost by no-op refresh")
	}
}

// TestDeltaRefreshReadOnly: a replica's cache is read-only, but Refresh is
// part of the replication write path (like Import) and must still migrate.
func TestDeltaRefreshReadOnly(t *testing.T) {
	fns := refreshCluster(8)
	m := speed.NewModel(fns)
	const proc = 3
	newFns := driftProc(fns, proc)
	mNew := speed.NewModel(newFns)
	sizes := []int64{40_000, 200_000, 6_000_000_000}

	c := New(0)
	for _, n := range sizes {
		if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
			t.Fatal(err)
		}
	}
	c.SetReadOnly(true)
	kept, dropped := c.Refresh(m, mNew)
	if kept == 0 || kept+dropped != len(sizes) {
		t.Fatalf("read-only refresh: kept=%d dropped=%d over %d plans", kept, dropped, len(sizes))
	}
	// A surviving plan serves as a hit under the new fingerprint even
	// though the cache admits nothing new.
	if _, tier, err := c.GetTier(core.AlgoCombined, 40_000, mNew); err != nil || tier != TierHit {
		t.Fatalf("survivor not served from read-only cache: tier=%d err=%v", tier, err)
	}
}

// FuzzDeltaRefreshBitIdentical is the refresh correctness contract: for a
// random cluster, a random one-processor perturbation and random sizes,
// every plan served after Refresh — kept or recomputed — must equal a cold
// compute under the new model bit for bit.
func FuzzDeltaRefreshBitIdentical(f *testing.F) {
	f.Add(uint32(1), uint8(4), uint8(0), uint8(40), uint32(100_000), uint32(900_000))
	f.Add(uint32(7), uint8(9), uint8(3), uint8(255), uint32(50_000), uint32(4_000_000))
	f.Add(uint32(42), uint8(16), uint8(12), uint8(128), uint32(1_000_000), uint32(1_000_001))
	f.Add(uint32(99), uint8(31), uint8(30), uint8(1), uint32(77_777), uint32(9_999_999))
	f.Add(uint32(1234), uint8(2), uint8(1), uint8(200), uint32(3_000_000), uint32(12))
	f.Fuzz(func(t *testing.T, seed uint32, pRaw, procRaw, scaleRaw uint8, n1Raw, n2Raw uint32) {
		p := 2 + int(pRaw%31)
		fns := randomPWLCluster(p, seed)
		proc := int(procRaw) % p

		// Perturb one knot of one processor by a fuzz-chosen factor; the
		// repaired shape may or may not actually change the fingerprint,
		// and may change caps — Refresh must cope with all of it.
		pts := append([]speed.Point(nil), fns[proc].(*speed.PiecewiseLinear).Points()...)
		factor := 0.3 + 1.4*float64(scaleRaw)/255
		pts[len(pts)-1].Y *= factor
		newFns := append([]speed.Function(nil), fns...)
		newFns[proc] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))

		var capacity int64
		for _, fn := range fns {
			capacity += int64(fn.MaxSize())
		}
		n1 := 1 + int64(n1Raw)%(capacity/2)
		n2 := 1 + int64(n2Raw)%(capacity/2)

		c := New(0)
		for _, n := range []int64{n1, n2} {
			if _, err := c.Get(core.AlgoCombined, n, speed.NewModel(fns)); err != nil {
				t.Skip() // degenerate random model
			}
		}
		c.Refresh(speed.NewModel(fns), speed.NewModel(newFns))
		for pass := 0; pass < 2; pass++ {
			for _, n := range []int64{n1, n2} {
				cold, err := core.Combined(n, newFns)
				if err != nil {
					t.Skip()
				}
				res, err := c.Get(core.AlgoCombined, n, speed.NewModel(newFns))
				if err != nil {
					t.Fatalf("Get after refresh failed where cold succeeded: %v", err)
				}
				for i := range cold.Alloc {
					if res.Alloc[i] != cold.Alloc[i] {
						t.Fatalf("refresh diverges: seed=%d p=%d proc=%d factor=%v n=%d pass=%d i=%d got=%d cold=%d",
							seed, p, proc, factor, n, pass, i, res.Alloc[i], cold.Alloc[i])
					}
				}
			}
		}
	})
}
