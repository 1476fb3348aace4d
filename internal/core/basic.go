package core

import (
	"fmt"

	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// Basic partitions n elements over the processors described by fns using
// the paper's simplest algorithm (Figures 7–8): bisection of the region
// between two rays through the origin. At every step the region between
// the under-allocating (steep) and over-allocating (shallow) ray is halved
// by a ray at the mean slope; the half containing the optimum is kept.
// The search stops when no processor's candidate interval contains a whole
// element (the paper's stopping criterion), after which fine-tuning picks
// the integer allocation.
//
// When the slope of the optimal line is a polynomial function of n the
// algorithm needs O(log₂ n) steps of O(p) intersections each; for graphs
// flattening exponentially it can degrade (the motivation for Modified).
func Basic(n int64, fns []speed.Function, opts ...Option) (Result, error) {
	return pooledPartition(AlgoBasic, n, fns, opts)
}

// bounds tracks the current search region between two rays.
type bounds struct {
	steep, shallow   geometry.Ray // steep under-allocates, shallow over-allocates
	xSteep, xShallow []float64    // cached intersections of the two rays
	// segSteep and segShallow are the knot segments of those intersections,
	// which only the piecewise-linear fast path fills and reads.
	segSteep, segShallow []int
}

// trivial handles n == 0 and p == 1 without any geometry. The allocation
// is written into the destination buffer prepared by reset.
func (s *state) trivial() (Result, bool) {
	if s.n == 0 {
		return Result{Alloc: s.dst, Stats: s.stats}, true
	}
	if len(s.fns) == 1 {
		s.dst[0] = int64(s.n)
		slope := 0.0
		if sp := s.fns[0].Eval(s.n); sp > 0 {
			slope = sp / s.n
		}
		return Result{Alloc: s.dst, Slope: slope, Stats: s.stats}, true
	}
	return Result{}, false
}

// openBounds establishes the initial rays of Figure 18 and their cached
// intersections in the reusable region s.b.
//
// A processor whose domain ends below n/p clamps short of the point
// (n/p, s_min), so the shallow ray can under-allocate, and the optimum
// then lies outside the region. Such a ray is replaced with the flat one
// (slope 0), on which every crossing clamps to its domain; it
// over-allocates because reset rejects any n above the total capacity.
// Without a clamp a shortfall is float rounding of crossings at n/p
// (identical machines put every crossing there), and the ray stays.
func (s *state) openBounds() error {
	steep, shallow, clamped, err := s.initialRays()
	if err != nil {
		return err
	}
	b := &s.b
	// Search the first rays over every knot segment.
	for i, f := range s.pwl {
		b.segSteep[i], b.segShallow[i] = 0, f.NumPoints()
	}
	if _, err := s.intersect(steep); err != nil {
		return err
	}
	b.steep = steep
	copy(b.xSteep, s.xs)
	copy(b.segSteep, s.segs)
	sum, err := s.intersect(shallow)
	if err != nil {
		return err
	}
	if clamped && sum < s.n {
		shallow = geometry.Ray{}
		if _, err := s.intersect(shallow); err != nil {
			return err
		}
	}
	b.shallow = shallow
	copy(b.xShallow, s.xs)
	copy(b.segShallow, s.segs)
	return nil
}

// replace installs the mid ray and its intersections as the new steep or
// shallow bound depending on the allocation sum at mid.
func (b *bounds) replace(mid geometry.Ray, xs []float64, segs []int, sum, n float64) {
	if sum < n {
		b.steep = mid
		copy(b.xSteep, xs)
		copy(b.segSteep, segs)
	} else {
		b.shallow = mid
		copy(b.xShallow, xs)
		copy(b.segShallow, segs)
	}
}

// runBasic executes ray bisection until the stopping criterion is met or
// the slope interval is numerically exhausted.
func (s *state) runBasic() error {
	b := &s.b
	for s.stats.Steps < s.cfg.maxSteps {
		if converged(b.xSteep, b.xShallow) {
			return nil
		}
		mid := s.cfg.rule.Bisect(b.shallow, b.steep)
		if !(mid.Slope() > b.shallow.Slope()) || !(mid.Slope() < b.steep.Slope()) {
			// The slope interval has collapsed to adjacent floats; the
			// remaining per-processor gaps cannot be narrowed by geometry.
			return nil
		}
		sum, err := s.intersect(mid)
		if err != nil {
			return err
		}
		s.stats.Steps++
		b.replace(mid, s.xs, s.segs, sum, s.n)
	}
	return nil
}

// finalize converts the final region into the integer result.
func (s *state) finalize() Result {
	b := &s.b
	var alloc Allocation
	if s.cfg.fineTune {
		alloc = s.fineTune(b.xSteep)
	} else {
		alloc = s.roundLargestRemainder(b.xShallow)
	}
	return Result{
		Alloc: alloc,
		Slope: (b.steep.Slope() + b.shallow.Slope()) / 2,
		Stats: s.stats,
	}
}

// mustSum panics when an allocation does not sum to n; used in internal
// consistency checks during testing.
func mustSum(alloc Allocation, n int64) {
	if alloc.Sum() != n {
		panic(fmt.Sprintf("core: allocation sums to %d, want %d", alloc.Sum(), n))
	}
}
