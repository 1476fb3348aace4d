package plancache

import (
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// randomPWLCluster builds p random piecewise-linear speed functions from
// the seed, repaired to the shape constraint. Knot positions and speeds
// come from an LCG, so the corpus is replayable byte-for-byte.
func randomPWLCluster(p int, seed uint32) []speed.Function {
	fns := make([]speed.Function, p)
	s := seed | 1
	next := func(mod uint32) float64 {
		s = s*1664525 + 1013904223
		return float64(s % mod)
	}
	for i := range fns {
		knots := 2 + int(next(9))
		pts := make([]speed.Point, 0, knots)
		x := 100 + next(10_000)
		for k := 0; k < knots; k++ {
			y := 1e5 * (1 + next(1000))
			pts = append(pts, speed.Point{X: x, Y: y})
			x *= 2 + next(8)
		}
		fns[i] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))
	}
	return fns
}

// FuzzPlanPurity asserts that a computed plan is a pure function of its
// key: for any random PWL cluster and any pair of problem sizes, the
// cache-served allocation for n2 equals tangent core.Combined's, and a
// cache that served n1 first returns for n2 the same bytes (allocation,
// slope bits and Stats) as a fresh cache asked only n2, which are
// core.Combined's under the regula-falsi rule.
func FuzzPlanPurity(f *testing.F) {
	f.Add(uint32(1), uint8(4), uint32(100_000), uint32(120_000))
	f.Add(uint32(7), uint8(2), uint32(50_000), uint32(51_000))
	f.Add(uint32(42), uint8(16), uint32(1_000_000), uint32(400_000))
	f.Add(uint32(99), uint8(9), uint32(77_777), uint32(77_777))
	f.Add(uint32(1234), uint8(31), uint32(3_000_000), uint32(2_999_999))
	f.Fuzz(func(t *testing.T, seed uint32, pRaw uint8, n1Raw, n2Raw uint32) {
		p := 2 + int(pRaw%63)
		fns := randomPWLCluster(p, seed)
		var capacity int64
		for _, fn := range fns {
			capacity += int64(fn.MaxSize())
		}
		n1 := 1 + int64(n1Raw)%(capacity/2)
		n2 := 1 + int64(n2Raw)%(capacity/2)

		tangent, err := core.Combined(n2, fns)
		if err != nil {
			t.Skip() // degenerate random model (e.g. all-zero speeds)
		}
		pure, err := core.Combined(n2, fns, core.WithBisection(geometry.BisectRegulaFalsi))
		if err != nil {
			t.Fatalf("regula-falsi failed where tangent bisection succeeded: %v", err)
		}
		fresh, err := New(0).Get(core.AlgoCombined, n2, speed.NewModel(fns))
		if err != nil {
			t.Fatalf("fresh cache Get(n2): %v", err)
		}
		for i := range tangent.Alloc {
			if fresh.Alloc[i] != tangent.Alloc[i] {
				t.Fatalf("cache-served allocation diverges from tangent bisection: seed=%d p=%d n2=%d proc=%d served=%d tangent=%d",
					seed, p, n2, i, fresh.Alloc[i], tangent.Alloc[i])
			}
		}
		if !sameResult(fresh, pure) {
			t.Fatalf("fresh cache served %+v for n2=%d, core.Combined computes %+v", fresh, n2, pure)
		}

		// A cache with a history: n1 first, then n2 twice (a miss, then an
		// exact hit).
		c := New(0)
		if _, err := c.Get(core.AlgoCombined, n1, speed.NewModel(fns)); err != nil {
			t.Fatalf("cache Get(n1): %v", err)
		}
		for pass := 0; pass < 2; pass++ {
			served, err := c.Get(core.AlgoCombined, n2, speed.NewModel(fns))
			if err != nil {
				t.Fatalf("cache Get(n2) pass %d: %v", pass, err)
			}
			if !sameResult(served, fresh) {
				t.Fatalf("pass %d: after n1=%d the cache served %+v for n2=%d, a fresh cache %+v (seed=%d p=%d)",
					pass, n1, served, n2, fresh, seed, p)
			}
		}
	})
}
