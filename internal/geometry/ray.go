// Package geometry provides the plane-geometric primitives underlying the
// functional-model data-partitioning algorithms: rays through the origin,
// the two bisection rules used by the paper (half-sum of tangents and
// half-sum of angles), and ray–curve intersection for speed graphs.
//
// The coordinate system is the one used throughout the paper: the x axis is
// the size of the problem (number of elements) and the y axis is absolute
// speed. A distribution proportional to processor speeds corresponds to a
// single ray through the origin intersecting every speed graph.
package geometry

import (
	"errors"
	"fmt"
	"math"
)

// Ray is a straight line through the origin with a non-negative slope,
// y = Slope·x. The zero value is the degenerate horizontal ray y = 0.
type Ray struct {
	slope float64
}

// NewRay returns the ray with the given slope (tangent form).
// The slope must be finite and non-negative.
func NewRay(slope float64) (Ray, error) {
	if math.IsNaN(slope) || math.IsInf(slope, 0) || slope < 0 {
		return Ray{}, fmt.Errorf("geometry: invalid ray slope %v", slope)
	}
	return Ray{slope: slope}, nil
}

// MustRay is like NewRay but panics on an invalid slope. It is intended for
// constants and tests.
func MustRay(slope float64) Ray {
	r, err := NewRay(slope)
	if err != nil {
		panic(err)
	}
	return r
}

// RayFromAngle returns the ray at the given angle (radians) above the x
// axis. The angle must lie in [0, π/2).
func RayFromAngle(theta float64) (Ray, error) {
	if math.IsNaN(theta) || theta < 0 || theta >= math.Pi/2 {
		return Ray{}, fmt.Errorf("geometry: invalid ray angle %v", theta)
	}
	return Ray{slope: math.Tan(theta)}, nil
}

// RayThrough returns the ray through the origin and the point (x, y).
// x must be positive and y non-negative.
func RayThrough(x, y float64) (Ray, error) {
	if !(x > 0) || y < 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		return Ray{}, fmt.Errorf("geometry: invalid point (%v, %v) for ray", x, y)
	}
	return Ray{slope: y / x}, nil
}

// Slope returns the tangent of the ray's angle.
func (r Ray) Slope() float64 { return r.slope }

// Angle returns the ray's angle above the x axis in radians.
func (r Ray) Angle() float64 { return math.Atan(r.slope) }

// Y returns the ray's height at abscissa x.
func (r Ray) Y(x float64) float64 { return r.slope * x }

// Steeper reports whether r has a strictly larger slope than s.
func (r Ray) Steeper(s Ray) bool { return r.slope > s.slope }

// String implements fmt.Stringer.
func (r Ray) String() string { return fmt.Sprintf("Ray(slope=%.6g)", r.slope) }

// BisectionRule selects how the region between two rays is halved.
type BisectionRule int

const (
	// BisectTangents draws the ray whose slope (tangent) is the arithmetic
	// mean of the two bounding slopes. This is the computationally cheap
	// rule the paper recommends for practical implementations.
	BisectTangents BisectionRule = iota
	// BisectAngles draws the ray whose angle is the arithmetic mean of the
	// two bounding angles, as in the paper's formal description (Figure 7).
	BisectAngles
	// BisectRegulaFalsi selects a safeguarded regula-falsi search on the
	// allocation sum (the partitioner draws each ray where the line through
	// the bounds' excess allocations crosses zero). Its Bisect, the step
	// the search falls back to, is the tangent mean.
	BisectRegulaFalsi
)

// String implements fmt.Stringer.
func (b BisectionRule) String() string {
	switch b {
	case BisectTangents:
		return "tangents"
	case BisectAngles:
		return "angles"
	case BisectRegulaFalsi:
		return "regula-falsi"
	default:
		return fmt.Sprintf("BisectionRule(%d)", int(b))
	}
}

// Bisect returns the ray halving the region between a and b under the rule.
func (b BisectionRule) Bisect(lo, hi Ray) Ray {
	switch b {
	case BisectAngles:
		return Ray{slope: math.Tan((lo.Angle() + hi.Angle()) / 2)}
	default:
		return Ray{slope: (lo.slope + hi.slope) / 2}
	}
}

// Curve is a continuous, non-negative function of problem size. Speed
// functions satisfy it. Implementations must be defined on (0, max] for
// some positive max and must guarantee the paper's shape assumption: any
// ray through the origin intersects the graph in at most one point, which
// is equivalent to Eval(x)/x being strictly decreasing.
type Curve interface {
	// Eval returns the curve's value at x ≥ 0.
	Eval(x float64) float64
}

// RayIntersector is an optional fast path for Curve implementations that
// can intersect a ray analytically (e.g. piecewise-linear speed functions).
type RayIntersector interface {
	// IntersectRay returns the abscissa of the unique intersection of the
	// graph with the ray y = slope·x, and true on success. When the ray
	// stays strictly above the graph over the whole domain it returns the
	// largest x for which the curve is defined and false.
	IntersectRay(slope float64) (float64, bool)
}

// ErrNoIntersection reports that a ray does not cross a curve inside the
// searched interval.
var ErrNoIntersection = errors.New("geometry: ray does not intersect curve in domain")

// intersectTol is the relative abscissa tolerance for the numeric fallback.
const intersectTol = 1e-12

// Intersect returns the abscissa x ∈ (0, hi] at which the ray crosses the
// curve, i.e. ray.Y(x) == c.Eval(x). It uses the curve's analytic fast path
// when available and falls back to bracketed bisection on
// g(x) = c.Eval(x) − ray.Y(x), relying on the shape assumption that g has a
// single sign change from + to − on (0, hi].
//
// When the ray is so shallow that it never rises above the curve on (0, hi]
// (g(hi) ≥ 0), Intersect returns hi: the intersection is clamped to the
// curve's domain. When the ray is so steep that it is above the curve
// already at tiny x, the intersection is near zero and 0 is returned.
func Intersect(c Curve, ray Ray, hi float64) (float64, error) {
	if !(hi > 0) || math.IsInf(hi, 0) || math.IsNaN(hi) {
		return 0, fmt.Errorf("geometry: invalid intersection bound %v", hi)
	}
	if ri, ok := c.(RayIntersector); ok {
		x, _ := ri.IntersectRay(ray.slope)
		if x > hi {
			x = hi
		}
		return x, nil
	}
	g := func(x float64) float64 { return c.Eval(x) - ray.Y(x) }
	if g(hi) >= 0 {
		// Ray below (or touching) the curve across the whole domain.
		return hi, nil
	}
	lo := 0.0
	// g(0+) = c.Eval(0+) ≥ 0 for non-negative curves; treat lo as the
	// non-crossing side even when c.Eval(0) == 0.
	for range maxBisectIter {
		mid := 0.5 * (lo + hi)
		if g(mid) >= 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= intersectTol*math.Max(1, hi) {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}

// maxBisectIter bounds the numeric bisection. 128 halvings exhaust the
// precision of float64 for any practical domain.
const maxBisectIter = 128
