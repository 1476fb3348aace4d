package speed

import (
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
	// ks are the knots with their precomputed columns, in the record
	// layout a model's packed Knots table copies (knots.go).
	ks []knot
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
	// Uploads and replays list their knots in order: strictly increasing
	// sizes are already the one order the sort could leave.
	for k := 1; k < len(pts); k++ {
		if !(pts[k-1].X < pts[k].X) {
			sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
			break
		}
	}
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
	return &PiecewiseLinear{ks: precompute(pts)}, nil
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
	out := make([]Point, len(f.ks))
	for i, k := range f.ks {
		out[i] = k.Point
	}
	return out
}

// NumPoints returns the number of knots.
func (f *PiecewiseLinear) NumPoints() int { return len(f.ks) }

// Eval implements Function.
func (f *PiecewiseLinear) Eval(x float64) float64 {
	v, _ := evalKnots(f.ks, x, 0)
	return v
}

// MaxSize implements Function.
func (f *PiecewiseLinear) MaxSize() float64 { return f.ks[len(f.ks)-1].X }

// IntersectRay implements geometry.RayIntersector analytically. It returns
// the abscissa of the unique crossing of the graph with y = slope·x, or
// (MaxSize, false) when the ray stays above the graph only beyond the
// domain (shallow rays) — the caller treats that as a clamped intersection.
func (f *PiecewiseLinear) IntersectRay(slope float64) (float64, bool) {
	var g Segment
	g.set(f.ks, seek(f.ks, slope, 0, len(f.ks), -1), math.Inf(1))
	return g.Cross(slope), g.k < len(f.ks)
}

// String implements fmt.Stringer.
func (f *PiecewiseLinear) String() string {
	return fmt.Sprintf("PiecewiseLinear(%d points, max %.6g)", len(f.ks), f.MaxSize())
}
