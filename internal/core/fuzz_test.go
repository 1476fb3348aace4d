package core

import (
	"fmt"
	"math"
	"testing"

	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// FuzzPartitionersAgainstExact differentially tests the paper's geometric
// algorithms against the Exact integer-optimal oracle on seed-generated
// clusters: every algorithm must return an allocation summing to n with a
// makespan within 2 % of the optimum.
func FuzzPartitionersAgainstExact(f *testing.F) {
	f.Add(uint32(1), uint32(1_000_000), uint8(3))
	f.Add(uint32(42), uint32(500_000_000), uint8(6))
	f.Add(uint32(99), uint32(123), uint8(2))
	f.Fuzz(func(t *testing.T, seed, nSeed uint32, pSeed uint8) {
		p := 2 + int(pSeed%6)
		n := int64(nSeed % 1_000_000_000)
		fns := testCluster(p, seed)
		exact, err := Exact(n, fns)
		if err != nil {
			t.Skip() // infeasible seeds are legitimate skips
		}
		ref := Makespan(exact.Alloc, fns)
		for name, part := range map[string]partitioner{
			"basic": Basic, "modified": Modified, "combined": Combined,
		} {
			res, err := part(n, fns)
			if err != nil {
				t.Fatalf("%s(n=%d, p=%d, seed=%d): %v", name, n, p, seed, err)
			}
			if res.Alloc.Sum() != n {
				t.Fatalf("%s: sum %d != %d", name, res.Alloc.Sum(), n)
			}
			if got := Makespan(res.Alloc, fns); got > ref*1.02 && got-ref > 1e-9 {
				t.Fatalf("%s: makespan %.6g vs exact %.6g (n=%d, p=%d, seed=%d)",
					name, got, ref, n, p, seed)
			}
		}
	})
}

// FuzzFineTuneInvariants checks that fine-tuning preserves the sum for
// arbitrary constant-speed clusters.
func FuzzFineTuneInvariants(f *testing.F) {
	f.Add(uint32(77), uint16(100), uint16(250), uint16(50))
	f.Fuzz(func(t *testing.T, nSeed uint32, s1, s2, s3 uint16) {
		n := int64(nSeed % 10_000_000)
		speeds := []float64{1 + float64(s1), 1 + float64(s2), 1 + float64(s3)}
		fns := constants(speeds, 1e12)
		res, err := Combined(n, fns)
		if err != nil {
			t.Fatalf("Combined: %v", err)
		}
		if res.Alloc.Sum() != n {
			t.Fatalf("sum %d != %d", res.Alloc.Sum(), n)
		}
		for i, x := range res.Alloc {
			if x < 0 {
				t.Fatalf("negative share %d at %d", x, i)
			}
		}
		_ = speed.Function(fns[0])
	})
}

// opaquePWL hides a piecewise-linear function's concrete type from the
// partitioner, which then runs its generic interface path. That path still
// intersects through the function's own IntersectRay, so it is the
// reference the fast path must match bit for bit.
type opaquePWL struct{ *speed.PiecewiseLinear }

// Shape bits of FuzzPWLFastPathMatchesGeneric's clusters.
const (
	// shapeUnequalDomains ends processor i's domain at 2e9·2^-k for a
	// seeded k in 0..11, so some domains clamp before others.
	shapeUnequalDomains = 1 << iota
	// shapeIdentical gives every processor processor 0's function, so
	// the fine-tuning step meets exact ties.
	shapeIdentical
)

// fuzzPWLCluster samples testCluster's analytic functions into
// piecewise-linear knots the way benchPWLCluster does (fourfold from 1e3
// to the domain's end, shape enforced), shaped by the bits above.
func fuzzPWLCluster(p int, seed uint32, shape uint8) []*speed.PiecewiseLinear {
	analytic := testCluster(p, seed)
	out := make([]*speed.PiecewiseLinear, p)
	s := seed
	for i, f := range analytic {
		if shape&shapeIdentical != 0 && i > 0 {
			out[i] = out[0]
			continue
		}
		maxSize := f.MaxSize()
		if shape&shapeUnequalDomains != 0 {
			s = s*1664525 + 1013904223
			maxSize = math.Ldexp(maxSize, -int(s%12))
		}
		var pts []speed.Point
		for x := 1e3; x < maxSize; x *= 4 {
			pts = append(pts, speed.Point{X: x, Y: f.Eval(x)})
		}
		pts = append(pts, speed.Point{X: maxSize, Y: f.Eval(maxSize)})
		out[i] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))
	}
	return out
}

// knotSlope returns the slope of the ray through the knot of f whose
// ratio is closest to slope, so a warm-start hint there draws a ray
// exactly through a knot.
func knotSlope(f *speed.PiecewiseLinear, slope float64) float64 {
	best := math.Inf(1)
	for _, pt := range f.Points() {
		if r := pt.Y / pt.X; math.Abs(r-slope) < math.Abs(best-slope) {
			best = r
		}
	}
	return best
}

// optionMix is one named option list of FuzzPWLFastPathMatchesGeneric.
type optionMix struct {
	name string
	opts []Option
}

// FuzzPWLFastPathMatchesGeneric differentially tests the piecewise-linear
// fast path (bracketed crossing searches, hinted evaluations) against the
// generic interface path on the same functions: every algorithm and option
// mix must return the same allocation, the same slope bits and the same
// Stats counters. The seeds cover unequal domains (including the flat-ray
// fallback of openBounds), identical machines (exact ties), rays through
// knots, and crossings on the left and right constant extensions.
func FuzzPWLFastPathMatchesGeneric(f *testing.F) {
	f.Add(uint32(1), uint64(1_000_000), uint8(3), uint8(0))
	f.Add(uint32(42), uint64(2_500_000_000), uint8(6), uint8(0))
	// Unequal domains, with the even share past the shortest domain.
	f.Add(uint32(7), uint64(400_000_000), uint8(4), uint8(shapeUnequalDomains))
	f.Add(uint32(9), uint64(1_500_000_000), uint8(2), uint8(shapeUnequalDomains))
	// Identical machines: exact ties in fine-tuning.
	f.Add(uint32(5), uint64(1_000_003), uint8(1), uint8(shapeIdentical))
	// Identical machines with n = p·16000: the first rays pass exactly
	// through the knot at 16000.
	f.Add(uint32(11), uint64(4*16_000), uint8(2), uint8(shapeIdentical))
	// Left constant extension: every share below the first knot (1e3).
	f.Add(uint32(3), uint64(1_500), uint8(1), uint8(0))
	// Right constant extension: n one short of capacity, so shallow rays
	// cross past the last knot and clamp.
	f.Add(uint32(13), uint64(6_000_000_000-1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint32, nSeed uint64, pSeed uint8, shape uint8) {
		p := 2 + int(pSeed%6)
		pwl := fuzzPWLCluster(p, seed, shape)
		fast := make([]speed.Function, p)
		generic := make([]speed.Function, p)
		var capacity int64
		for i, fn := range pwl {
			fast[i] = fn
			generic[i] = opaquePWL{fn}
			capacity += int64(fn.MaxSize())
		}
		n := int64(nSeed % uint64(capacity+1))
		// One Partitioner serves both paths, so each run starts from the
		// scratch the other path left behind.
		pr := NewPartitioner()
		dst := make(Allocation, p)
		for _, algo := range []Algorithm{AlgoBasic, AlgoModified, AlgoCombined} {
			cold, err := pr.PartitionInto(dst, algo, n, fast)
			if err != nil {
				t.Fatalf("%v n=%d: %v", algo, n, err)
			}
			mixes := []optionMix{
				{"default", nil},
				{"warm", []Option{WithWarmStart(cold.Slope, 0.05)}},
				{"warm-knot", []Option{WithWarmStart(knotSlope(pwl[0], cold.Slope), 0)}},
				{"no-finetune", []Option{WithoutFineTune()}},
				{"angles", []Option{WithBisection(geometry.BisectAngles)}},
				{"max-steps", []Option{WithMaxSteps(12), WithoutFineTune()}},
				{"all", []Option{WithWarmStart(cold.Slope*1.3, 0.2), WithoutFineTune(), WithBisection(geometry.BisectAngles), WithMaxSteps(5)}},
			}
			if n <= 2_000_000 {
				// A step cap stops the search in a wide region, from which
				// fine-tuning hands out up to n units one at a time.
				mixes = append(mixes, optionMix{"max-steps-finetune", []Option{WithMaxSteps(4)}})
			}
			for _, mix := range mixes {
				want, wantErr := pr.PartitionInto(make(Allocation, p), algo, n, generic, mix.opts...)
				got, gotErr := pr.PartitionInto(dst, algo, n, fast, mix.opts...)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%v %s n=%d: fast path error %v, generic %v", algo, mix.name, n, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if math.Float64bits(got.Slope) != math.Float64bits(want.Slope) || got.Stats != want.Stats {
					t.Fatalf("%v %s n=%d: fast path slope %v %+v, generic %v %+v",
						algo, mix.name, n, got.Slope, got.Stats, want.Slope, want.Stats)
				}
				for i := range want.Alloc {
					if got.Alloc[i] != want.Alloc[i] {
						t.Fatalf("%v %s n=%d: fast path alloc %v, generic %v", algo, mix.name, n, got.Alloc, want.Alloc)
					}
				}
			}
		}
	})
}
