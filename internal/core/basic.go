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
	// gSteep and gShallow are the excess allocations Σx − n at the two
	// rays, the values the regula-falsi step interpolates.
	gSteep, gShallow float64
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
		if sp := s.eval(0, s.n, 0); sp > 0 {
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
	if s.t != nil {
		// Search the first rays over every knot segment.
		for i := range s.fns {
			b.segSteep[i], b.segShallow[i] = 0, s.t.NumPoints(i)
		}
	}
	sum, err := s.intersect(steep)
	if err != nil {
		return err
	}
	b.steep, b.gSteep = steep, sum-s.n
	copy(b.xSteep, s.xs)
	copy(b.segSteep, s.segs)
	// The first ray sought every processor's segment.
	s.crossed = s.t != nil
	if sum, err = s.intersect(shallow); err != nil {
		return err
	}
	if clamped && sum < s.n {
		shallow = geometry.Ray{}
		if sum, err = s.intersect(shallow); err != nil {
			return err
		}
	}
	b.shallow, b.gShallow = shallow, sum-s.n
	copy(b.xShallow, s.xs)
	copy(b.segShallow, s.segs)
	return nil
}

// replace installs the mid ray and its intersections as the new steep or
// shallow bound depending on the allocation sum at mid, and reports
// whether it replaced the steep one.
func (b *bounds) replace(mid geometry.Ray, xs []float64, segs []int, sum, n float64) (steep bool) {
	if sum < n {
		b.steep, b.gSteep = mid, sum-n
		copy(b.xSteep, xs)
		copy(b.segSteep, segs)
		return true
	}
	b.shallow, b.gShallow = mid, sum-n
	copy(b.xShallow, xs)
	copy(b.segShallow, segs)
	return false
}

// maxOneSided is the number of one-sided regula-falsi steps in a row
// after which runBasic draws the tangent midpoint instead.
const maxOneSided = 3

// runBasic draws rays between the bounds until the stopping criterion is
// met or the slope interval is numerically exhausted. A bisection rule
// halves the region at every step.
//
// Under geometry.BisectRegulaFalsi each ray is drawn where the chord
// through the bounds' excess allocations crosses zero: g(c) = Σx(c) − n is
// monotone in the slope c, so the chord needs no seed. A step that
// replaces the same bound as the step before is one-sided: it halves the
// retained bound's g (the Illinois step), and after maxOneSided of them in
// a row, or when the chord's slope is not strictly inside the bounds, the
// ray is the tangent midpoint. Both rules stop on the same test, and
// fine-tuning reaches the same integer allocation from any converged
// region (see stabilize).
func (s *state) runBasic() error {
	b := &s.b
	falsi := s.cfg.rule == geometry.BisectRegulaFalsi
	// last is the bound the previous step replaced: +1 steep, -1 shallow.
	oneSided, last := 0, 0
	for s.stats.Steps < s.cfg.maxSteps {
		if converged(b.xSteep, b.xShallow) {
			return nil
		}
		lo, hi := b.shallow.Slope(), b.steep.Slope()
		mid := s.cfg.rule.Bisect(b.shallow, b.steep)
		if falsi && oneSided < maxOneSided {
			if c := lo + b.gShallow*(hi-lo)/(b.gShallow-b.gSteep); c > lo && c < hi {
				// Strictly inside the bounds, so finite and positive.
				mid, _ = geometry.NewRay(c)
			}
		}
		if !(mid.Slope() > lo) || !(mid.Slope() < hi) {
			// The slope interval has collapsed to adjacent floats; the
			// remaining per-processor gaps cannot be narrowed by geometry.
			return nil
		}
		sum, err := s.intersect(mid)
		if err != nil {
			return err
		}
		s.stats.Steps++
		side := -1
		if b.replace(mid, s.xs, s.segs, sum, s.n) {
			side = 1
		}
		switch {
		case side != last:
			oneSided = 0
		case side > 0:
			oneSided++
			b.gShallow /= 2
		default:
			oneSided++
			b.gSteep /= 2
		}
		last = side
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
