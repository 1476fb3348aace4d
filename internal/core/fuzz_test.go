package core

import (
	"fmt"
	"math"
	"testing"

	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// exactFuzzSeeds are FuzzPartitionersAgainstExact's seeds.
var exactFuzzSeeds = []struct {
	seed, nSeed uint32
	pSeed       uint8
}{{1, 1_000_000, 3}, {42, 500_000_000, 6}, {99, 123, 2}}

// exactFuzzCase builds FuzzPartitionersAgainstExact's input.
func exactFuzzCase(seed, nSeed uint32, pSeed uint8) (int64, []speed.Function) {
	return int64(nSeed % 1_000_000_000), testCluster(2+int(pSeed%6), seed)
}

// FuzzPartitionersAgainstExact differentially tests the paper's geometric
// algorithms against the Exact integer-optimal oracle on seed-generated
// clusters: every algorithm must return an allocation summing to n with a
// makespan within 2 % of the optimum, and the regula-falsi rule tangent
// bisection's allocation.
func FuzzPartitionersAgainstExact(f *testing.F) {
	for _, s := range exactFuzzSeeds {
		f.Add(s.seed, s.nSeed, s.pSeed)
	}
	f.Fuzz(func(t *testing.T, seed, nSeed uint32, pSeed uint8) {
		n, fns := exactFuzzCase(seed, nSeed, pSeed)
		p := len(fns)
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
		pr := NewPartitioner()
		for _, algo := range []Algorithm{AlgoBasic, AlgoCombined} {
			compareRules(t, fmt.Sprintf("%v n=%d p=%d seed=%d", algo, n, p, seed), pr, algo, n, fns)
		}
	})
}

// FuzzFineTuneInvariants checks that fine-tuning preserves the sum for
// arbitrary constant-speed clusters, and that the regula-falsi rule returns
// tangent bisection's allocation.
func FuzzFineTuneInvariants(f *testing.F) {
	for _, s := range fineTuneFuzzSeeds {
		f.Add(s.nSeed, s.s1, s.s2, s.s3)
	}
	f.Fuzz(func(t *testing.T, nSeed uint32, s1, s2, s3 uint16) {
		n, fns := fineTuneFuzzCase(nSeed, s1, s2, s3)
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
		compareRules(t, fmt.Sprintf("n=%d nSeed=%d speeds=%d,%d,%d", n, nSeed, s1, s2, s3), NewPartitioner(), AlgoCombined, n, fns)
	})
}

// fineTuneFuzzSeeds are FuzzFineTuneInvariants' seeds. Beside the first,
// each takes one of the fill's harder paths from the base its search
// converges to (see fillSelect).
var fineTuneFuzzSeeds = []struct {
	nSeed      uint32
	s1, s2, s3 uint16
}{
	{77, 100, 250, 50},
	// A partial tie: two of three candidates equal the second smallest,
	// so the heap's order decides.
	{192554050, 57020, 1322, 209},
	// A second unit: the fastest processor's next time is below the
	// deficit-th candidate.
	{13785172, 56953, 267, 41},
	// More units than candidates: four units over three processors.
	{231243701, 10617, 4024, 13},
}

// fineTuneFuzzCase builds FuzzFineTuneInvariants' input.
func fineTuneFuzzCase(nSeed uint32, s1, s2, s3 uint16) (int64, []speed.Function) {
	return int64(nSeed % 10_000_000), constants([]float64{1 + float64(s1), 1 + float64(s2), 1 + float64(s3)}, 1e12)
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

// pwlFuzzSeeds are FuzzPWLFastPathMatchesGeneric's seeds.
var pwlFuzzSeeds = []struct {
	seed         uint32
	nSeed        uint64
	pSeed, shape uint8
}{
	{1, 1_000_000, 3, 0},
	{42, 2_500_000_000, 6, 0},
	// Unequal domains, with the even share past the shortest domain.
	{7, 400_000_000, 4, shapeUnequalDomains},
	{9, 1_500_000_000, 2, shapeUnequalDomains},
	// Identical machines: exact ties in fine-tuning.
	{5, 1_000_003, 1, shapeIdentical},
	// Identical machines with n = p·16000: the first rays pass exactly
	// through the knot at 16000.
	{11, 4 * 16_000, 2, shapeIdentical},
	// Left constant extension: every share below the first knot (1e3).
	{3, 1_500, 1, 0},
	// Right constant extension: n one short of capacity, so shallow rays
	// cross past the last knot and clamp.
	{13, 6_000_000_000 - 1, 1, 0},
	// Figure 21's sizes (pwlFuzzProcs): hundreds of processors in one
	// segment beside searched ones on every ray.
	{17, 500_000_000_000, 159, 0},
	{19, 1_000_000_000, 255, shapeUnequalDomains},
}

// pwlFuzzProcs maps a fuzz input's pSeed to the processor count: 2..7
// below 128, so small clusters stay most of the input space, and
// 270·k/32 for k = pSeed − 127 above it, up to 1080 (pSeed 159 draws 270).
func pwlFuzzProcs(pSeed uint8) int {
	if pSeed < 128 {
		return 2 + int(pSeed%6)
	}
	return 270 * (int(pSeed) - 127) / 32
}

// pwlFuzzCase builds FuzzPWLFastPathMatchesGeneric's input: n, the
// cluster's functions, and the same functions behind opaquePWL.
func pwlFuzzCase(seed uint32, nSeed uint64, pSeed, shape uint8) (n int64, fast, generic []speed.Function) {
	pwl := fuzzPWLCluster(pwlFuzzProcs(pSeed), seed, shape)
	fast, generic = pwlFunctions(pwl)
	var capacity int64
	for _, fn := range pwl {
		capacity += int64(fn.MaxSize())
	}
	return int64(nSeed % uint64(capacity+1)), fast, generic
}

// pwlFunctions returns the functions as they are and behind opaquePWL.
func pwlFunctions(pwl []*speed.PiecewiseLinear) (fast, generic []speed.Function) {
	fast = make([]speed.Function, len(pwl))
	generic = make([]speed.Function, len(pwl))
	for i, fn := range pwl {
		fast[i], generic[i] = fn, opaquePWL{fn}
	}
	return fast, generic
}

// optionMix is one named option list of FuzzPWLFastPathMatchesGeneric.
type optionMix struct {
	name string
	opts []Option
}

// FuzzPWLFastPathMatchesGeneric differentially tests the piecewise-linear
// fast path (bracketed crossing searches, hinted evaluations) against the
// generic interface path on the same functions: every algorithm and option
// mix must return the same allocation, the same slope bits, the same Stats
// counters and the same final bracket, and the plan cache's regula-falsi
// rule must return tangent bisection's allocation. The seeds cover unequal
// domains (including the flat-ray fallback of openBounds), identical
// machines (exact ties), rays through knots, and crossings on the left and
// right constant extensions.
func FuzzPWLFastPathMatchesGeneric(f *testing.F) {
	for _, s := range pwlFuzzSeeds {
		f.Add(s.seed, s.nSeed, s.pSeed, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed uint32, nSeed uint64, pSeed uint8, shape uint8) {
		n, fast, generic := pwlFuzzCase(seed, nSeed, pSeed, shape)
		p := len(fast)
		// One Partitioner serves both paths, so each run starts from the
		// scratch the other path left behind.
		pr := NewPartitioner()
		dst := make(Allocation, p)
		for _, algo := range []Algorithm{AlgoBasic, AlgoModified, AlgoCombined} {
			mixes := []optionMix{
				{"default", nil},
				{"served", []Option{WithBisection(geometry.BisectRegulaFalsi)}},
				{"no-finetune", []Option{WithoutFineTune()}},
				{"angles", []Option{WithBisection(geometry.BisectAngles)}},
				{"max-steps", []Option{WithMaxSteps(12), WithoutFineTune()}},
				{"all", []Option{WithoutFineTune(), WithBisection(geometry.BisectAngles), WithMaxSteps(5)}},
			}
			if n <= 2_000_000 {
				// A step cap stops the search in a wide region, from which
				// fine-tuning hands out up to n units one at a time.
				mixes = append(mixes, optionMix{"max-steps-finetune", []Option{WithMaxSteps(4)}})
			}
			var tangent Result
			for _, mix := range mixes {
				want, wantErr := pr.PartitionInto(make(Allocation, p), algo, n, generic, mix.opts...)
				// The final bracket: with interpolation every ray depends on
				// the sums' values, so the paths must agree on them, not
				// only on the signs that steer bisection.
				b := &pr.st.b
				wantSteep := append([]float64(nil), b.xSteep...)
				wantShallow := append([]float64(nil), b.xShallow...)
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
					if math.Float64bits(b.xSteep[i]) != math.Float64bits(wantSteep[i]) ||
						math.Float64bits(b.xShallow[i]) != math.Float64bits(wantShallow[i]) {
						t.Fatalf("%v %s n=%d proc %d: fast path bracket [%v, %v], generic [%v, %v]",
							algo, mix.name, n, i, b.xSteep[i], b.xShallow[i], wantSteep[i], wantShallow[i])
					}
				}
				switch mix.name {
				case "default":
					tangent = got
					tangent.Alloc = append(Allocation(nil), got.Alloc...)
				case "served":
					sameAllocation(t, fmt.Sprintf("%v n=%d", algo, n), tangent, got)
				}
			}
		}
	})
}
