package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// testCluster builds a small heterogeneous set of analytic speed functions
// with distinct peaks and paging points, seeded deterministically.
func testCluster(p int, seed uint32) []speed.Function {
	fns := make([]speed.Function, p)
	s := seed
	for i := range fns {
		s = s*1664525 + 1013904223
		peak := 1e7 * (1 + float64(s%900)/100) // 1e7 … 1e8
		s = s*1664525 + 1013904223
		paging := 1e7 * (1 + float64(s%50)) // 1e7 … 5e8
		fns[i] = &speed.Analytic{
			Peak:        peak,
			HalfRise:    1e3,
			CacheEdge:   1e5,
			CacheDecay:  0.8,
			PagingPoint: paging,
			PagingWidth: paging / 5,
			PagingFloor: 0.02,
			Max:         2e9,
		}
	}
	return fns
}

// constants builds constant speed functions.
func constants(speeds []float64, maxSize float64) []speed.Function {
	fns := make([]speed.Function, len(speeds))
	for i, s := range speeds {
		fns[i] = speed.MustConstant(s, maxSize)
	}
	return fns
}

// timeSpread returns max/min execution time over processors with nonzero
// allocation (1 when fewer than two participate).
func timeSpread(alloc Allocation, fns []speed.Function) float64 {
	lo, hi := math.Inf(1), 0.0
	cnt := 0
	for i, x := range alloc {
		if x == 0 {
			continue
		}
		t := float64(x) / fns[i].Eval(float64(x))
		lo = math.Min(lo, t)
		hi = math.Max(hi, t)
		cnt++
	}
	if cnt < 2 {
		return 1
	}
	return hi / lo
}

type partitioner func(int64, []speed.Function, ...Option) (Result, error)

var partitioners = map[string]partitioner{
	"basic":    Basic,
	"modified": Modified,
	"combined": Combined,
}

func TestPartitionersSumToN(t *testing.T) {
	fns := testCluster(5, 42)
	for name, part := range partitioners {
		for _, n := range []int64{0, 1, 7, 1000, 123456, 50_000_000} {
			res, err := part(n, fns)
			if err != nil {
				t.Fatalf("%s(%d): %v", name, n, err)
			}
			if got := res.Alloc.Sum(); got != n {
				t.Errorf("%s(%d): allocation sums to %d", name, n, got)
			}
			if len(res.Alloc) != len(fns) {
				t.Errorf("%s(%d): %d shares for %d processors", name, n, len(res.Alloc), len(fns))
			}
		}
	}
}

func TestPartitionersEqualTime(t *testing.T) {
	// With large n, integer effects vanish and the equal-execution-time
	// property must hold tightly across all three algorithms.
	fns := testCluster(6, 7)
	for name, part := range partitioners {
		res, err := part(80_000_000, fns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spread := timeSpread(res.Alloc, fns); spread > 1.02 {
			t.Errorf("%s: execution time spread %.4f, want ≤ 1.02", name, spread)
		}
	}
}

func TestConstantSpeedsMatchSingleNumber(t *testing.T) {
	// With constant speed functions the functional model degenerates to
	// the single-number model; the allocations must agree in makespan.
	speeds := []float64{100, 250, 50, 400}
	fns := constants(speeds, 1e9)
	want, err := SingleNumber(123_457, speeds)
	if err != nil {
		t.Fatalf("SingleNumber: %v", err)
	}
	for name, part := range partitioners {
		res, err := part(123_457, fns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := Makespan(res.Alloc, fns)
		ref := Makespan(want, fns)
		if got > ref*1.001 {
			t.Errorf("%s: makespan %.6g vs single-number %.6g", name, got, ref)
		}
	}
}

func TestBasicNearBruteForceOptimum(t *testing.T) {
	// p = 2 lets us enumerate every allocation exactly.
	fns := []speed.Function{
		&speed.Analytic{Peak: 5e3, HalfRise: 50, CacheEdge: 500, CacheDecay: 0.6,
			PagingPoint: 1500, PagingWidth: 300, PagingFloor: 0.05, Max: 1e5},
		&speed.Analytic{Peak: 2e3, HalfRise: 20, Max: 1e5},
	}
	const n = 2000
	best := math.Inf(1)
	for x := int64(0); x <= n; x++ {
		if m := Makespan(Allocation{x, n - x}, fns); m < best {
			best = m
		}
	}
	for name, part := range partitioners {
		res, err := part(n, fns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := Makespan(res.Alloc, fns)
		if got > best*1.01 {
			t.Errorf("%s: makespan %.6g vs brute-force optimum %.6g", name, got, best)
		}
	}
}

func TestPagingProcessorGetsLess(t *testing.T) {
	// Two processors with the same peak; one pages at 1e6 elements, the
	// other at 1e8. For n beyond the first paging point the non-paging
	// processor must receive the (much) larger share.
	early := &speed.Analytic{Peak: 1e7, HalfRise: 100, PagingPoint: 1e6,
		PagingWidth: 2e5, PagingFloor: 0.01, Max: 1e9}
	late := &speed.Analytic{Peak: 1e7, HalfRise: 100, PagingPoint: 1e8,
		PagingWidth: 2e7, PagingFloor: 0.01, Max: 1e9}
	fns := []speed.Function{early, late}
	for name, part := range partitioners {
		res, err := part(40_000_000, fns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Alloc[1] < 4*res.Alloc[0] {
			t.Errorf("%s: paging processor got %d vs %d; want strong skew to the non-paging one",
				name, res.Alloc[0], res.Alloc[1])
		}
	}
}

func TestSmallNDegenerateCases(t *testing.T) {
	fns := testCluster(4, 3)
	for name, part := range partitioners {
		// Fewer elements than processors.
		res, err := part(2, fns)
		if err != nil {
			t.Fatalf("%s(2): %v", name, err)
		}
		if res.Alloc.Sum() != 2 {
			t.Errorf("%s(2): sum = %d", name, res.Alloc.Sum())
		}
		// Single processor.
		res, err = part(500, fns[:1])
		if err != nil {
			t.Fatalf("%s(1 proc): %v", name, err)
		}
		if len(res.Alloc) != 1 || res.Alloc[0] != 500 {
			t.Errorf("%s(1 proc): alloc = %v", name, res.Alloc)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	fns := testCluster(3, 1)
	for name, part := range partitioners {
		if _, err := part(100, nil); !errors.Is(err, ErrNoProcessors) {
			t.Errorf("%s(nil fns): err = %v, want ErrNoProcessors", name, err)
		}
		if _, err := part(-1, fns); !errors.Is(err, ErrBadN) {
			t.Errorf("%s(-1): err = %v, want ErrBadN", name, err)
		}
		if _, err := part(100, []speed.Function{nil}); err == nil {
			t.Errorf("%s(nil fn): want error", name)
		}
		// Capacity: three processors with MaxSize 1e3 cannot hold 1e7.
		small := constants([]float64{1, 1, 1}, 1e3)
		if _, err := part(10_000_000, small); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s(overflow): err = %v, want ErrInfeasible", name, err)
		}
		// All-zero speeds.
		zero := constants([]float64{0, 0}, 1e9)
		if _, err := part(100, zero); !errors.Is(err, ErrZeroSpeed) {
			t.Errorf("%s(zero speeds): err = %v, want ErrZeroSpeed", name, err)
		}
	}
}

func TestWithoutFineTuneSumsToN(t *testing.T) {
	fns := testCluster(5, 9)
	for name, part := range partitioners {
		res, err := part(1_000_003, fns, WithoutFineTune())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Alloc.Sum() != 1_000_003 {
			t.Errorf("%s: sum = %d, want 1000003", name, res.Alloc.Sum())
		}
		if res.Stats.FineTuneMoves != 0 {
			t.Errorf("%s: FineTuneMoves = %d with fine-tuning disabled", name, res.Stats.FineTuneMoves)
		}
	}
}

func TestWithMaxStepsStillValid(t *testing.T) {
	fns := testCluster(5, 11)
	res, err := Basic(10_000_000, fns, WithMaxSteps(3))
	if err != nil {
		t.Fatalf("Basic: %v", err)
	}
	if res.Alloc.Sum() != 10_000_000 {
		t.Errorf("sum = %d", res.Alloc.Sum())
	}
	if res.Stats.Steps > 3 {
		t.Errorf("Steps = %d, want ≤ 3", res.Stats.Steps)
	}
}

func TestAngleBisectionOption(t *testing.T) {
	fns := testCluster(4, 21)
	a, err := Basic(5_000_000, fns)
	if err != nil {
		t.Fatalf("Basic(tangents): %v", err)
	}
	b, err := Basic(5_000_000, fns, WithBisection(geometry.BisectAngles))
	if err != nil {
		t.Fatalf("Basic(angles): %v", err)
	}
	// Both rules must reach (nearly) the same optimum.
	ma, mb := Makespan(a.Alloc, fns), Makespan(b.Alloc, fns)
	if math.Abs(ma-mb) > 0.01*ma {
		t.Errorf("rule disagreement: tangents %.6g vs angles %.6g", ma, mb)
	}
}

func TestStatsAccounting(t *testing.T) {
	fns := testCluster(4, 33)
	res, err := Basic(10_000_000, fns)
	if err != nil {
		t.Fatalf("Basic: %v", err)
	}
	if res.Stats.Algorithm != "basic" {
		t.Errorf("Algorithm = %q", res.Stats.Algorithm)
	}
	if res.Stats.Steps == 0 {
		t.Error("Steps = 0; expected at least one bisection")
	}
	// Two initial rays plus one per step, p intersections each.
	wantIx := (res.Stats.Steps + 2) * len(fns)
	if res.Stats.Intersections != wantIx {
		t.Errorf("Intersections = %d, want %d", res.Stats.Intersections, wantIx)
	}
}

func TestMakespan(t *testing.T) {
	fns := constants([]float64{10, 20}, 1e6)
	if got := Makespan(Allocation{100, 400}, fns); got != 20 {
		t.Errorf("Makespan = %v, want 20", got)
	}
	if got := Makespan(Allocation{0, 0}, fns); got != 0 {
		t.Errorf("empty Makespan = %v, want 0", got)
	}
	zero := constants([]float64{0}, 1e6)
	if got := Makespan(Allocation{5}, zero); !math.IsInf(got, 1) {
		t.Errorf("zero-speed Makespan = %v, want +Inf", got)
	}
}

// Property: for random clusters and sizes, every algorithm returns an
// allocation that sums to n, stays within each processor's capacity, and
// achieves a makespan no worse than both baselines by more than 0.1 %.
func TestPartitionersProperty(t *testing.T) {
	check := func(seed uint32, nSeed uint32, pSeed uint8) bool {
		p := 2 + int(pSeed%6)
		n := int64(1000 + nSeed%200_000_000)
		fns := testCluster(p, seed)
		evenAlloc, _ := Even(n, p)
		for _, part := range partitioners {
			res, err := part(n, fns)
			if err != nil {
				return false
			}
			if res.Alloc.Sum() != n {
				return false
			}
			for i, x := range res.Alloc {
				if x < 0 || float64(x) > fns[i].MaxSize() {
					return false
				}
			}
			if Makespan(res.Alloc, fns) > Makespan(evenAlloc, fns)*1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMustSumHelper(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mustSum on mismatched allocation did not panic")
		}
	}()
	mustSum(Allocation{1, 2}, 5)
}

// mixedCluster combines all four speed-function representations in one
// partitioning problem: analytic, piecewise linear, step, and constant.
func mixedCluster(t *testing.T) []speed.Function {
	t.Helper()
	analytic := &speed.Analytic{Peak: 2e8, HalfRise: 1e3, PagingPoint: 5e7,
		PagingWidth: 1e7, PagingFloor: 0.1, Max: 1e9}
	pwl := speed.MustPiecewiseLinear([]speed.Point{
		{X: 1e4, Y: 1.5e8}, {X: 2e7, Y: 1.4e8}, {X: 1e9, Y: 1e6},
	})
	step := speed.MustStep([]speed.Level{
		{UpTo: 3e7, Y: 1e8}, {UpTo: 1e9, Y: 2e7},
	})
	constant := speed.MustConstant(5e7, 1e9)
	return []speed.Function{analytic, pwl, step, constant}
}

func TestPartitionersOnMixedRepresentations(t *testing.T) {
	fns := mixedCluster(t)
	const n = 150_000_000
	exact, err := Exact(n, fns)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	ref := Makespan(exact.Alloc, fns)
	for name, part := range partitioners {
		res, err := part(n, fns)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Alloc.Sum() != n {
			t.Errorf("%s: sum = %d", name, res.Alloc.Sum())
		}
		if got := Makespan(res.Alloc, fns); got > ref*1.02 {
			t.Errorf("%s on mixed cluster: makespan %.6g vs exact %.6g", name, got, ref)
		}
	}
}

// TestClampedDomainsInitialRays covers Figure 18's shallow ray when a
// domain ends below the even share n/p: that processor clamps short of the
// point (n/p, s_min), so the ray under-allocates, and the search must fall
// back to the flat ray instead of converging outside the optimum and
// leaving the whole deficit to fine-tuning. Both flat machines are built
// as constant functions (the generic path) and as piecewise-linear ones
// (the fast path); every algorithm must return Exact's allocation with no
// more than 2p fine-tuning moves.
func TestClampedDomainsInitialRays(t *testing.T) {
	flat := func(s, max float64) speed.Function {
		return speed.MustPiecewiseLinear([]speed.Point{{X: 1e3, Y: s}, {X: max, Y: s}})
	}
	models := map[string][]speed.Function{
		"constant": {speed.MustConstant(2e7, 1e9), speed.MustConstant(1e7, 1e11)},
		"pwl":      {flat(2e7, 1e9), flat(1e7, 1e11)},
	}
	for name, fns := range models {
		for _, n := range []int64{2_500_000_000, 30_000_000_000} {
			want, err := Exact(n, fns)
			if err != nil {
				t.Fatal(err)
			}
			for algo, part := range partitioners {
				res, err := part(n, fns)
				if err != nil {
					t.Fatalf("%s %s n=%d: %v", name, algo, n, err)
				}
				for i := range want.Alloc {
					if res.Alloc[i] != want.Alloc[i] {
						t.Fatalf("%s %s n=%d: alloc %v, Exact %v", name, algo, n, res.Alloc, want.Alloc)
					}
				}
				if res.Stats.FineTuneMoves > 2*len(fns) {
					t.Fatalf("%s %s n=%d: %d fine-tune moves, want ≤ %d", name, algo, n, res.Stats.FineTuneMoves, 2*len(fns))
				}
			}
		}
	}
}
