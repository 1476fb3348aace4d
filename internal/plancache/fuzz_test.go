package plancache

import (
	"testing"

	"heteropart/internal/core"
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

// FuzzWarmStartBitIdentical asserts the tentpole's correctness contract:
// for any random PWL cluster and any pair of problem sizes, a warm-started
// run and a cache-served run produce allocations bit-identical to a cold
// core.Combined run.
func FuzzWarmStartBitIdentical(f *testing.F) {
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

		cold1, err := core.Combined(n1, fns)
		if err != nil {
			t.Skip() // degenerate random model (e.g. all-zero speeds)
		}
		cold2, err := core.Combined(n2, fns)
		if err != nil {
			t.Skip()
		}

		// Warm-started directly with the other size's solution slope.
		pr := core.NewPartitioner()
		dst := make(core.Allocation, p)
		warm, err := pr.PartitionInto(dst, core.AlgoCombined, n2, fns,
			core.WithWarmStart(cold1.Slope, 0.25))
		if err != nil {
			t.Fatalf("warm run failed where cold succeeded: %v", err)
		}
		for i := range cold2.Alloc {
			if warm.Alloc[i] != cold2.Alloc[i] {
				t.Fatalf("warm-started allocation diverges: seed=%d p=%d n1=%d n2=%d proc=%d warm=%d cold=%d",
					seed, p, n1, n2, i, warm.Alloc[i], cold2.Alloc[i])
			}
		}

		// Cache-served: first Get seeds the warm index, second Get is
		// warm-started internally, third is an exact hit.
		c := New(0)
		if _, err := c.Get(core.AlgoCombined, n1, speed.NewModel(fns)); err != nil {
			t.Fatalf("cache Get(n1): %v", err)
		}
		for pass := 0; pass < 2; pass++ {
			served, err := c.Get(core.AlgoCombined, n2, speed.NewModel(fns))
			if err != nil {
				t.Fatalf("cache Get(n2) pass %d: %v", pass, err)
			}
			for i := range cold2.Alloc {
				if served.Alloc[i] != cold2.Alloc[i] {
					t.Fatalf("cache-served allocation diverges on pass %d: seed=%d p=%d n1=%d n2=%d proc=%d served=%d cold=%d",
						pass, seed, p, n1, n2, i, served.Alloc[i], cold2.Alloc[i])
				}
			}
		}
	})
}
