package speed

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Point is one experimentally obtained (problem size, speed) pair.
type Point struct {
	X float64 `json:"size"`  // problem size, elements
	Y float64 `json:"speed"` // speed, elements/second
}

// PiecewiseLinear is the practical speed-function representation of §3.1:
// a piecewise linear interpolation through a small set of experimentally
// obtained points. Left of the first point the function is extended with
// the first speed (problems that fit in the top of the memory hierarchy all
// run at the same speed); right of the last point it is extended with the
// last speed.
type PiecewiseLinear struct {
	pts []Point
	// Precomputed monotone tables that make the partitioner hot path
	// allocation-free: ratios[i] = pts[i].Y / pts[i].X is strictly
	// decreasing (the shape constraint), so IntersectRay can binary-search
	// the crossing segment over ratios instead of scanning segments and
	// recomputing d_i = Y_i − slope·X_i per call. slopes[i] and icepts[i]
	// hold the slope and y-intercept of the segment ending at knot i
	// (index 0 unused), computed once with the same expressions the per-call
	// arithmetic used, so the intersection abscissas are bit-identical.
	ratios []float64
	slopes []float64
	icepts []float64
}

// NewPiecewiseLinear builds a piecewise linear speed function from the
// given points. The points are copied and sorted by size. Constraints:
// at least two points, strictly increasing sizes, non-negative finite
// speeds, and the shape assumption Y/X strictly decreasing across knots
// (which for piecewise linear functions is exactly equivalent to every ray
// through the origin crossing the graph at most once).
func NewPiecewiseLinear(points []Point) (*PiecewiseLinear, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("speed: piecewise linear needs ≥ 2 points, got %d", len(points))
	}
	pts := make([]Point, len(points))
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	for i, p := range pts {
		if !(p.X > 0) || math.IsInf(p.X, 0) || math.IsNaN(p.X) {
			return nil, fmt.Errorf("speed: point %d has invalid size %v", i, p.X)
		}
		if !(p.Y >= 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("speed: point %d has invalid speed %v", i, p.Y)
		}
		if i > 0 && pts[i-1].X == p.X {
			return nil, fmt.Errorf("speed: duplicate size %v", p.X)
		}
	}
	for i := 1; i < len(pts); i++ {
		if !(pts[i].Y/pts[i].X < pts[i-1].Y/pts[i-1].X) {
			return nil, fmt.Errorf("%w: knot %d (%.6g,%.6g) vs knot %d (%.6g,%.6g)",
				ErrShape, i-1, pts[i-1].X, pts[i-1].Y, i, pts[i].X, pts[i].Y)
		}
	}
	f := &PiecewiseLinear{pts: pts}
	f.precompute()
	return f, nil
}

// precompute fills the knot-ratio and per-segment slope/intercept tables.
func (f *PiecewiseLinear) precompute() {
	pts := f.pts
	f.ratios = make([]float64, len(pts))
	f.slopes = make([]float64, len(pts))
	f.icepts = make([]float64, len(pts))
	for i, p := range pts {
		f.ratios[i] = p.Y / p.X
		if i > 0 {
			a, b := pts[i-1], pts[i]
			m := (b.Y - a.Y) / (b.X - a.X)
			f.slopes[i] = m
			f.icepts[i] = a.Y - m*a.X
		}
	}
}

// MustPiecewiseLinear is like NewPiecewiseLinear but panics on error.
// It is intended for tests and static tables.
func MustPiecewiseLinear(points []Point) *PiecewiseLinear {
	f, err := NewPiecewiseLinear(points)
	if err != nil {
		panic(err)
	}
	return f
}

// EnforceShape returns a copy of points adjusted to satisfy the piecewise
// linear shape constraint: speeds are clamped so that Y/X is strictly
// decreasing across knots. Noisy measurements of a genuinely compliant
// function can transiently violate the constraint; this repairs them with
// the smallest downward speed adjustments. The input must be sorted by
// strictly increasing size with at least one point.
func EnforceShape(points []Point) []Point {
	out := make([]Point, len(points))
	copy(out, points)
	for i := 1; i < len(out); i++ {
		// Clamp strictly below the previous ratio's ray, with a relative
		// margin large enough to survive the rounding of later Y/X
		// divisions (a 1-ulp decrement can be erased by them).
		limit := out[i-1].Y / out[i-1].X * out[i].X * (1 - 1e-12)
		if out[i].Y >= limit {
			out[i].Y = limit
		}
	}
	return out
}

// Points returns a copy of the knots.
func (f *PiecewiseLinear) Points() []Point {
	out := make([]Point, len(f.pts))
	copy(out, f.pts)
	return out
}

// NumPoints returns the number of knots.
func (f *PiecewiseLinear) NumPoints() int { return len(f.pts) }

// Eval implements Function.
func (f *PiecewiseLinear) Eval(x float64) float64 { return f.EvalNear(x, 0) }

// EvalNear is Eval with a search hint: seg names the segment expected to
// hold x, numbered as IntersectRayIn numbers crossings, so a caller
// evaluating next to a known crossing passes that crossing's segment. A
// right hint skips the search; any other, such as 0, costs Eval's full
// search. The value is Eval's bit for bit whatever the hint: it depends
// only on the segment holding x, which is unique.
func (f *PiecewiseLinear) EvalNear(x float64, seg int) float64 {
	pts := f.pts
	if seg >= 1 && seg < len(pts) && pts[seg-1].X < x && x < pts[seg].X {
		return interpolate(pts[seg-1], pts[seg], x)
	}
	if x <= pts[0].X {
		return pts[0].Y
	}
	last := len(pts) - 1
	if x >= pts[last].X {
		return pts[last].Y
	}
	// Binary search for the segment containing x: smallest i with
	// pts[i].X >= x (an inlined sort.Search, closure-free).
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].X < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return interpolate(pts[lo-1], pts[lo], x)
}

// interpolate evaluates the line through a and b at x.
func interpolate(a, b Point, x float64) float64 {
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// MaxSize implements Function.
func (f *PiecewiseLinear) MaxSize() float64 { return f.pts[len(f.pts)-1].X }

// IntersectRay implements geometry.RayIntersector analytically. It returns
// the abscissa of the unique crossing of the graph with y = slope·x, or
// (MaxSize, false) when the ray stays above the graph only beyond the
// domain (shallow rays) — the caller treats that as a clamped intersection.
func (f *PiecewiseLinear) IntersectRay(slope float64) (float64, bool) {
	x, seg := f.IntersectRayIn(slope, 0, len(f.pts))
	return x, seg < len(f.pts)
}

// IntersectRayIn is IntersectRay searching only the segments lo..hi, and it
// also returns the segment of the crossing. Segment 0 is the left constant
// extension, segment k in 1..NumPoints()-1 the line ending at knot k, and
// NumPoints() the clamp to MaxSize (rays that would cross only past the
// last knot, and flat rays); 0..NumPoints() is the full range.
//
// The segment never increases as the slope grows, so a ray between two
// rays that crossed in segments lo and hi crosses in lo..hi, and the
// search may skip the rest: where lo == hi there is nothing to search.
// Bracketed this way, the result equals the full-range search's bit for
// bit, because both find the same segment and solve the same line.
func (f *PiecewiseLinear) IntersectRayIn(slope float64, lo, hi int) (float64, int) {
	pts := f.pts
	last := len(pts) - 1
	if slope <= 0 {
		return pts[last].X, last + 1
	}
	if lo == 0 {
		// Left constant extension: s(x) = pts[0].Y for x ≤ pts[0].X.
		if hi == 0 || slope*pts[0].X >= pts[0].Y {
			return pts[0].Y / slope, 0
		}
		lo = 1
	}
	// Find the first knot at or below the ray; the crossing is inside the
	// segment ending there. The knot ratios Y/X are strictly decreasing
	// (shape constraint), so "knot at or below the ray" (Y/X ≤ slope) is a
	// monotone predicate and the segment is found by binary search over the
	// precomputed ratio table; hi is the answer when no knot below it is.
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.ratios[mid] > slope {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > last {
		// Ray above the graph everywhere up to the last knot? Then it
		// crosses the right constant extension s = lastY at
		// x = lastY/slope > MaxSize.
		return pts[last].X, last + 1
	}
	a, b := pts[lo-1], pts[lo]
	// Solve a.Y + m(x − a.X) = slope·x with the precomputed segment slope
	// and intercept. The denominator cannot vanish: a sign change on the
	// segment forces m ≠ slope, but guard anyway.
	m := f.slopes[lo]
	den := slope - m
	if den == 0 {
		return b.X, lo
	}
	x := f.icepts[lo] / den
	// Numerical safety: keep the root inside the segment.
	return min(max(x, a.X), b.X), lo
}

// MarshalJSON implements json.Marshaler, emitting the knot list.
func (f *PiecewiseLinear) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.pts)
}

// UnmarshalJSON implements json.Unmarshaler, validating the knot list.
func (f *PiecewiseLinear) UnmarshalJSON(data []byte) error {
	var pts []Point
	if err := json.Unmarshal(data, &pts); err != nil {
		return err
	}
	g, err := NewPiecewiseLinear(pts)
	if err != nil {
		return err
	}
	*f = *g
	return nil
}

// String implements fmt.Stringer.
func (f *PiecewiseLinear) String() string {
	return fmt.Sprintf("PiecewiseLinear(%d points, max %.6g)", len(f.pts), f.MaxSize())
}
