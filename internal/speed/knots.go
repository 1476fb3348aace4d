package speed

import (
	"math"
	"slices"
)

// knot is one knot of a piecewise-linear function and the columns the
// partitioner reads beside it: ratio = Y/X, strictly decreasing across a
// function's knots (the shape constraint), so the segment a ray crosses
// is a search over ratios; and the slope and intercept of the segment
// ending at the knot (zero at the first), so solving it is one division.
type knot struct {
	Point
	ratio, slope, icept float64
}

// precompute builds the knot records of sorted, validated points. It is
// the only code that fills the columns: a packed table copies them.
func precompute(pts []Point) []knot {
	ks := make([]knot, len(pts))
	for i, p := range pts {
		ks[i] = knot{Point: p, ratio: p.Y / p.X}
		if i > 0 {
			a := pts[i-1]
			m := (p.Y - a.Y) / (p.X - a.X)
			ks[i].slope, ks[i].icept = m, a.Y-m*a.X
		}
	}
	return ks
}

// seek returns the segment in which the ray y = c·x crosses the graph
// with knots ks: 0 is the left constant extension, k in 1..len(ks)-1 the
// line ending at knot k, and len(ks) the clamp to the last knot (rays
// crossing only past it, and flat rays). It searches only segments
// lo..hi (0..len(ks) is the full range): the segment never increases with
// the slope, so a ray between rays that crossed in lo and hi crosses in
// lo..hi, and the bracketed result is the full range's. A guess inside
// the bracket that is right or next to it skips the search (-1 guesses
// nothing); the result does not depend on it.
func seek(ks []knot, c float64, lo, hi, guess int) int {
	if c <= 0 {
		return len(ks)
	}
	if lo == 0 {
		// Left constant extension: s(x) = ks[0].Y for x ≤ ks[0].X.
		if hi == 0 || c*ks[0].X >= ks[0].Y {
			return 0
		}
		lo = 1
	}
	// The crossing ends at the first knot of lo..hi-1 at or below the ray
	// (Y/X ≤ c, monotone over the knots), or in hi when none is. The
	// guess's neighbouring knots tell whether it is there, or left or
	// right of it and then whether it is the next segment over.
	if g := guess; lo <= g && g <= hi {
		switch {
		case g > lo && ks[g-1].ratio <= c:
			if hi = g - 1; hi == lo || ks[hi-1].ratio > c {
				lo = hi
			}
		case g < hi && !(ks[g].ratio <= c):
			if lo = g + 1; lo == hi || ks[lo].ratio <= c {
				hi = lo
			}
		default:
			lo, hi = g, g
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid].ratio > c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// evalKnots interpolates the graph with knots ks at x and returns the
// segment holding x, numbered as seek numbers them. A hint naming that
// segment skips the search; the value depends only on the segment, which
// is unique, so it is the same bit for bit whatever the hint.
func evalKnots(ks []knot, x float64, hint int) (float64, int) {
	if hint >= 1 && hint < len(ks) && ks[hint-1].X < x && x < ks[hint].X {
		return interpolate(ks[hint-1].Point, ks[hint].Point, x), hint
	}
	if x <= ks[0].X {
		return ks[0].Y, 0
	}
	last := len(ks) - 1
	if x >= ks[last].X {
		return ks[last].Y, last + 1
	}
	// The smallest lo with ks[lo].X ≥ x (an inlined sort.Search).
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid].X < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return interpolate(ks[lo-1].Point, ks[lo].Point, x), lo
}

// interpolate evaluates the line through a and b at x.
func interpolate(a, b Point, x float64) float64 {
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// Knots is a cluster model's piecewise-linear functions packed into one
// table, the partitioner's fast-path input: every processor's knot records
// (size, speed, ratio, segment slope and intercept; 40 bytes a knot) sit
// back to back at per-processor offsets, beside each domain end and the
// capacity, so a ray reads contiguous memory instead of following a
// pointer per processor to its function's own tables.
type Knots struct {
	ks       []knot
	off      []int // processor i's knots are ks[off[i]:off[i+1]]
	max      []float64
	capacity float64
}

// Pack fills t with fns' knot records when every function is a
// *PiecewiseLinear, reusing t's arrays, and reports whether it did;
// otherwise t is left as it was.
func (t *Knots) Pack(fns []Function) bool {
	total := 0
	for _, f := range fns {
		g, ok := f.(*PiecewiseLinear)
		if !ok {
			return false
		}
		total += len(g.ks)
	}
	t.ks = slices.Grow(t.ks[:0], total)
	t.off = append(slices.Grow(t.off[:0], len(fns)+1), 0)
	t.max, t.capacity = t.max[:0], 0
	for _, f := range fns {
		g := f.(*PiecewiseLinear)
		t.ks = append(t.ks, g.ks...)
		t.off = append(t.off, len(t.ks))
		t.max = append(t.max, g.MaxSize())
		t.capacity += math.Floor(g.MaxSize())
	}
	return true
}

func (t *Knots) row(i int) []knot { return t.ks[t.off[i]:t.off[i+1]] }

// NumPoints returns processor i's knot count.
func (t *Knots) NumPoints(i int) int { return t.off[i+1] - t.off[i] }

// MaxSize returns processor i's domain end.
func (t *Knots) MaxSize(i int) float64 { return t.max[i] }

// Capacity returns the sum of ⌊MaxSize(i)⌋ in processor order.
func (t *Knots) Capacity() float64 { return t.capacity }

// Eval returns processor i's speed at x, its function's Eval bit for bit,
// and the segment holding x; hint is a search hint (see evalKnots).
func (t *Knots) Eval(i int, x float64, hint int) (float64, int) {
	return evalKnots(t.row(i), x, hint)
}

// Seek sets g to the segment in which the ray y = c·x crosses processor
// i, searching only segments lo..hi unless guess is right or next to it
// (see seek). g.Cross(c) is then the crossing, clamped to the domain as
// geometry.Intersect clamps it.
func (t *Knots) Seek(i int, c float64, lo, hi, guess int, g *Segment) {
	ks := t.row(i)
	g.set(ks, seek(ks, c, lo, hi, guess), t.max[i])
}

// Segment is the segment of a graph that a ray crossed, kept so that
// later rays and evaluations near the crossing skip the search: the ray
// y = c·x crosses it at min(max(b/(c − m), lo), hi), or at hi when c = m,
// and it runs between knots of ratios rLo and rHi and speeds yLo and yHi.
type Segment struct {
	k                  int
	b, m, lo, hi       float64
	rLo, rHi, yLo, yHi float64
}

// set makes g segment k of the graph with knots ks; end caps a crossing on
// the left extension. It stores field by field: a record built whole and
// copied in stalls the next read of it.
func (g *Segment) set(ks []knot, k int, end float64) {
	g.k = k
	switch {
	case k == 0:
		g.b, g.m, g.lo, g.hi = ks[0].Y, 0, math.Inf(-1), end
		g.rLo, g.rHi = math.NaN(), math.NaN()
	case k < len(ks):
		a, z := &ks[k-1], &ks[k]
		g.b, g.m, g.lo, g.hi = z.icept, z.slope, a.X, z.X
		g.rLo, g.rHi, g.yLo, g.yHi = a.ratio, z.ratio, a.Y, z.Y
	default:
		a := &ks[k-1]
		g.b, g.m, g.lo, g.hi = 0, 0, a.X, a.X
		g.rLo, g.rHi = a.ratio, math.Inf(-1)
	}
}

// Seg returns the segment's number, as seek numbers them.
func (g *Segment) Seg() int { return g.k }

// Cross returns the abscissa at which the ray of slope c crosses g.
func (g *Segment) Cross(c float64) float64 {
	den := c - g.m
	if den == 0 {
		return g.hi
	}
	// min(max(x, lo), hi) bit for bit: the ends are knots, the domain's
	// end or infinite, never zero, so no signed zero tells them apart.
	x := g.b / den
	if x < g.lo {
		x = g.lo
	}
	if x > g.hi {
		x = g.hi
	}
	return x
}

// Crosses reports whether Seek, given the ray of slope c and the bracket
// lo..hi, would set g again, so that g.Cross(c) is the crossing. It is
// seek's own test: the knot before g is above the ray and the knot ending
// it is not. A bracket of one segment holds every crossing; one opening on
// the left extension, where seek tests c·X ≥ Y instead, and a flat ray
// take the search.
func (g *Segment) Crosses(c float64, lo, hi int) bool {
	return c > 0 && lo <= g.k && g.k <= hi && (lo == hi || lo >= 1 && g.rHi <= c && c < g.rLo)
}

// Eval returns the speed at x and true when x lies strictly inside g, a
// knot segment: Knots.Eval's value there. It returns false otherwise.
func (g *Segment) Eval(x float64) (float64, bool) {
	if g.k >= 1 && g.lo < x && x < g.hi {
		return interpolate(Point{g.lo, g.yLo}, Point{g.hi, g.yHi}, x), true
	}
	return 0, false
}
