package speed

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// validPts is a well-formed decreasing speed function: ratios y/x are
// 10, 4, 1, 0.005 — strictly decreasing.
var validPts = []Point{
	{X: 10, Y: 100},
	{X: 25, Y: 100},
	{X: 100, Y: 100},
	{X: 1000, Y: 5},
}

func TestNewPiecewiseLinearValid(t *testing.T) {
	f, err := NewPiecewiseLinear(validPts)
	if err != nil {
		t.Fatalf("NewPiecewiseLinear: %v", err)
	}
	if f.NumPoints() != 4 {
		t.Errorf("NumPoints = %d, want 4", f.NumPoints())
	}
	if f.MaxSize() != 1000 {
		t.Errorf("MaxSize = %v, want 1000", f.MaxSize())
	}
}

func TestNewPiecewiseLinearSortsInput(t *testing.T) {
	shuffled := []Point{validPts[2], validPts[0], validPts[3], validPts[1]}
	f, err := NewPiecewiseLinear(shuffled)
	if err != nil {
		t.Fatalf("NewPiecewiseLinear: %v", err)
	}
	pts := f.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("points not sorted: %v", pts)
		}
	}
}

// TestNewPiecewiseLinearSkipsSortedInput checks that knots already in
// strictly increasing size, which NewPiecewiseLinear does not sort, give
// what the same knots reversed, which it sorts, give: the same knots, or
// the same error naming the same knot index.
func TestNewPiecewiseLinearSkipsSortedInput(t *testing.T) {
	s := uint32(5)
	next := func(m int) int {
		s = s*1664525 + 1013904223
		return int(s>>8) % m
	}
	for trial := 0; trial < 3000; trial++ {
		pts := make([]Point, 2+next(6))
		x := float64(next(2)) // a first size of 0 is invalid
		for i := range pts {
			pts[i] = Point{X: x, Y: float64(100 - 10*i - next(12))}
			x += float64(1 + next(4))
		}
		if next(8) == 0 {
			pts[next(len(pts))].Y = math.Inf(1)
		}
		reversed := slices.Clone(pts)
		slices.Reverse(reversed)
		got, gotErr := NewPiecewiseLinear(pts)
		want, wantErr := NewPiecewiseLinear(reversed)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotErr == nil && !slices.Equal(got.Points(), want.Points()) {
			t.Fatalf("%v: got %v, %v; reversed gives %v, %v", pts, got, gotErr, want, wantErr)
		}
	}
}

func TestNewPiecewiseLinearRejects(t *testing.T) {
	cases := map[string][]Point{
		"too few":        {{X: 1, Y: 1}},
		"zero size":      {{X: 0, Y: 1}, {X: 1, Y: 0.1}},
		"negative speed": {{X: 1, Y: -1}, {X: 2, Y: 1}},
		"duplicate size": {{X: 1, Y: 2}, {X: 1, Y: 1}},
		"nan size":       {{X: math.NaN(), Y: 1}, {X: 2, Y: 1}},
		"inf speed":      {{X: 1, Y: math.Inf(1)}, {X: 2, Y: 1}},
		// y/x rises from 1 to 2: a steep ray crosses twice.
		"shape violation": {{X: 1, Y: 1}, {X: 2, Y: 4}},
		// equal ratios: a ray overlaps a whole segment.
		"equal ratios": {{X: 1, Y: 2}, {X: 2, Y: 4}},
	}
	for name, pts := range cases {
		if _, err := NewPiecewiseLinear(pts); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

func TestMustPiecewiseLinearPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPiecewiseLinear(nil) did not panic")
		}
	}()
	MustPiecewiseLinear(nil)
}

func TestPWLEval(t *testing.T) {
	f := MustPiecewiseLinear(validPts)
	cases := []struct{ x, want float64 }{
		{5, 100},    // left constant extension
		{10, 100},   // first knot
		{50, 100},   // flat plateau
		{100, 100},  // knot
		{550, 52.5}, // middle of decline: 100 + 0.5·(5−100)
		{1000, 5},   // last knot
		{2000, 5},   // right constant extension
	}
	for _, c := range cases {
		if got := f.Eval(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPWLIntersectRaySteep(t *testing.T) {
	f := MustPiecewiseLinear(validPts)
	// Slope 20: crosses inside the left constant extension at 100/20 = 5.
	x, hit := f.IntersectRay(20)
	if !hit || math.Abs(x-5) > 1e-9 {
		t.Errorf("IntersectRay(20) = (%v, %v), want (5, true)", x, hit)
	}
}

func TestPWLIntersectRayPlateau(t *testing.T) {
	f := MustPiecewiseLinear(validPts)
	// Slope 2: crosses the plateau y = 100 at x = 50.
	x, hit := f.IntersectRay(2)
	if !hit || math.Abs(x-50) > 1e-9 {
		t.Errorf("IntersectRay(2) = (%v, %v), want (50, true)", x, hit)
	}
}

func TestPWLIntersectRayDecline(t *testing.T) {
	f := MustPiecewiseLinear(validPts)
	// Slope 0.5: crossing in the declining segment (100,100)–(1000,5).
	// Segment: y = 100 − (95/900)(x−100); 0.5x = y → x ≈ 197.93.
	x, hit := f.IntersectRay(0.5)
	if !hit {
		t.Fatalf("IntersectRay(0.5): no hit")
	}
	if math.Abs(f.Eval(x)-0.5*x) > 1e-6 {
		t.Errorf("intersection mismatch: s(%v)=%v vs ray %v", x, f.Eval(x), 0.5*x)
	}
}

func TestPWLIntersectRayShallowClamps(t *testing.T) {
	f := MustPiecewiseLinear(validPts)
	// Slope below lastY/lastX = 0.005: ray stays below graph inside the
	// domain; clamped at MaxSize.
	x, hit := f.IntersectRay(0.001)
	if hit || x != 1000 {
		t.Errorf("IntersectRay(0.001) = (%v, %v), want (1000, false)", x, hit)
	}
	x, hit = f.IntersectRay(0)
	if hit || x != 1000 {
		t.Errorf("IntersectRay(0) = (%v, %v), want (1000, false)", x, hit)
	}
}

func TestEnforceShape(t *testing.T) {
	// Middle point too fast: ratio sequence 10, 12, 1 → repaired to
	// strictly decreasing.
	pts := []Point{{X: 1, Y: 10}, {X: 2, Y: 24}, {X: 10, Y: 10}}
	fixed := EnforceShape(pts)
	if _, err := NewPiecewiseLinear(fixed); err != nil {
		t.Errorf("EnforceShape result still invalid: %v", err)
	}
	if fixed[0].Y != 10 {
		t.Errorf("first point must be untouched, got %v", fixed[0].Y)
	}
	if fixed[1].Y > 20 {
		t.Errorf("second point not clamped: %v", fixed[1].Y)
	}
}

func TestEnforceShapeKeepsValidInput(t *testing.T) {
	fixed := EnforceShape(validPts)
	for i := range validPts {
		if fixed[i] != validPts[i] {
			t.Errorf("point %d changed: %v → %v", i, validPts[i], fixed[i])
		}
	}
}

// Property: for random compliant PWL functions and random positive slopes,
// IntersectRay returns a point on the ray and on the curve (or a clamp).
func TestPWLIntersectionProperty(t *testing.T) {
	check := func(seed uint32, slopeSeed uint16) bool {
		pts := genCompliantPoints(seed)
		f, err := NewPiecewiseLinear(pts)
		if err != nil {
			return false
		}
		slope := 1e-4 + float64(slopeSeed)/100
		x, hit := f.IntersectRay(slope)
		if !hit {
			// Clamped: ray must be below the curve at MaxSize.
			return slope*f.MaxSize() <= f.Eval(f.MaxSize())+1e-9
		}
		y1, y2 := f.Eval(x), slope*x
		return math.Abs(y1-y2) <= 1e-6*math.Max(1, math.Max(y1, y2))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// genCompliantPoints deterministically builds a shape-compliant point set
// from a seed: strictly increasing x, strictly decreasing y/x.
func genCompliantPoints(seed uint32) []Point {
	n := 2 + int(seed%6)
	x := 1.0 + float64(seed%97)
	ratio := 50.0 + float64(seed%31)
	pts := make([]Point, 0, n)
	s := seed
	for range n {
		pts = append(pts, Point{X: x, Y: ratio * x})
		s = s*1664525 + 1013904223
		x *= 1.5 + float64(s%100)/50
		ratio *= 0.3 + float64(s%50)/100 // shrink ratio each step
	}
	return pts
}

// refIntersectRay is the crossing computed straight from the knots, as
// the first analytic IntersectRay did it: scan for the first knot at or
// below the ray and solve that segment's line.
func refIntersectRay(f *PiecewiseLinear, slope float64) (float64, int) {
	pts := f.Points()
	last := len(pts) - 1
	if slope <= 0 {
		return pts[last].X, last + 1
	}
	if slope*pts[0].X >= pts[0].Y {
		return pts[0].Y / slope, 0
	}
	for k := 1; k <= last; k++ {
		if pts[k].Y/pts[k].X > slope {
			continue
		}
		a, b := pts[k-1], pts[k]
		m := (b.Y - a.Y) / (b.X - a.X)
		den := slope - m
		if den == 0 {
			return b.X, k
		}
		return math.Min(math.Max((a.Y-m*a.X)/den, a.X), b.X), k
	}
	return pts[last].X, last + 1
}

// pwlProbeSlopes returns ray slopes that exercise every case of the
// crossing search: flat, through each knot (exactly and one ulp either
// side), inside each segment, and on both constant extensions.
func pwlProbeSlopes(f *PiecewiseLinear) []float64 {
	out := []float64{0, 1e-300, math.MaxFloat64}
	ks := f.ks
	for i, k := range ks {
		r := k.ratio
		out = append(out, r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)))
		if i > 0 {
			out = append(out, (r+ks[i-1].ratio)/2)
		}
	}
	last := ks[len(ks)-1].ratio
	return append(out, last/2, last/1e6, ks[0].ratio*3)
}

// TestPWLBracketedIntersectMatchesFullRange checks the crossing search's
// contract on random functions, through a one-processor packed table:
// the full-range search reproduces the knot-scan reference bit for bit,
// and so does IntersectRay; any bracket taken from two rays on either
// side of the slope, with any guess, returns the same crossing and
// segment; and a segment of the bracket that Crosses claims the ray holds
// it, at the search's abscissa.
func TestPWLBracketedIntersectMatchesFullRange(t *testing.T) {
	for seed := uint32(0); seed < 200; seed++ {
		f, err := NewPiecewiseLinear(genCompliantPoints(seed))
		if err != nil {
			continue
		}
		var tab Knots
		if !tab.Pack([]Function{f}) {
			t.Fatal("Pack refused a piecewise-linear function")
		}
		slopes := pwlProbeSlopes(f)
		n := f.NumPoints()
		for _, c := range slopes {
			wantX, wantSeg := refIntersectRay(f, c)
			if rx, hit := f.IntersectRay(c); math.Float64bits(rx) != math.Float64bits(wantX) || hit != (wantSeg < n) {
				t.Fatalf("seed %d slope %v: IntersectRay (%v, %v), reference (%v, %d)", seed, c, rx, hit, wantX, wantSeg)
			}
			if wantSeg == 0 {
				wantX = min(wantX, f.MaxSize())
			}
			x, seg := packedCross(&tab, c, 0, n, -1)
			if math.Float64bits(x) != math.Float64bits(wantX) || seg != wantSeg {
				t.Fatalf("seed %d slope %v: full range (%v, %d), reference (%v, %d)", seed, c, x, seg, wantX, wantSeg)
			}
			for _, steep := range slopes {
				if steep < c {
					continue
				}
				_, lo := packedCross(&tab, steep, 0, n, -1)
				for _, shallow := range slopes {
					if shallow > c {
						continue
					}
					_, hi := packedCross(&tab, shallow, 0, n, -1)
					for guess := lo - 1; guess <= hi+1; guess++ {
						bx, bseg := packedCross(&tab, c, lo, hi, guess)
						if math.Float64bits(bx) != math.Float64bits(x) || bseg != seg {
							t.Fatalf("seed %d slope %v in [%d, %d] guess %d: (%v, %d), full range (%v, %d)", seed, c, lo, hi, guess, bx, bseg, x, seg)
						}
						if guess < lo || guess > hi {
							continue
						}
						var g Segment
						tab.Seek(0, 1, guess, guess, guess, &g)
						if g.Seg() != guess {
							t.Fatalf("seed %d: a bracket of segment %d seeks %d", seed, guess, g.Seg())
						}
						if g.Crosses(c, lo, hi) && (guess != seg || math.Float64bits(g.Cross(c)) != math.Float64bits(x)) {
							t.Fatalf("seed %d slope %v in [%d, %d]: segment %d claims the crossing at %v, search (%v, %d)", seed, c, lo, hi, guess, g.Cross(c), x, seg)
						}
					}
				}
			}
		}
	}
}

// packedCross seeks the crossing of the ray of slope c with processor 0
// of tab, searching segments lo..hi from guess, and returns it and its
// segment.
func packedCross(tab *Knots, c float64, lo, hi, guess int) (float64, int) {
	var g Segment
	tab.Seek(0, c, lo, hi, guess, &g)
	return g.Cross(c), g.Seg()
}

// refEval interpolates straight from the knots, scanning for the segment.
func refEval(f *PiecewiseLinear, x float64) float64 {
	pts := f.Points()
	last := len(pts) - 1
	if x <= pts[0].X {
		return pts[0].Y
	}
	if x >= pts[last].X {
		return pts[last].Y
	}
	k := 1
	for pts[k].X < x {
		k++
	}
	a, b := pts[k-1], pts[k]
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// TestPWLEvalNearMatchesEval checks that Eval matches the knot-scan
// reference and that the packed table's evaluation hint never changes a
// value: every hint, right, wrong or out of range, at knots, between them
// and on both constant extensions. The segment the table reports holds x,
// and a cached Segment that evaluates x returns the same value.
func TestPWLEvalNearMatchesEval(t *testing.T) {
	for seed := uint32(0); seed < 200; seed++ {
		f, err := NewPiecewiseLinear(genCompliantPoints(seed))
		if err != nil {
			continue
		}
		var tab Knots
		tab.Pack([]Function{f})
		pts, n := f.Points(), f.NumPoints()
		xs := []float64{0, pts[0].X / 2, f.MaxSize() * 2}
		for i, p := range pts {
			xs = append(xs, p.X, math.Nextafter(p.X, 0), math.Nextafter(p.X, math.Inf(1)))
			if i > 0 {
				xs = append(xs, (p.X+pts[i-1].X)/2)
			}
		}
		for _, x := range xs {
			want := refEval(f, x)
			if got := f.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: Eval(%v) = %v, reference %v", seed, x, got, want)
			}
			for hint := -1; hint <= f.NumPoints()+1; hint++ {
				got, seg := tab.Eval(0, x, hint)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d x %v hint %d: %v, Eval %v", seed, x, hint, got, want)
				}
				if seg >= 1 && seg < n && !(pts[seg-1].X < x && x <= pts[seg].X) {
					t.Fatalf("seed %d x %v hint %d: segment %d does not hold x", seed, x, hint, seg)
				}
			}
			for k := 0; k <= n; k++ {
				var g Segment
				tab.Seek(0, 1, k, k, k, &g)
				if got, ok := g.Eval(x); ok && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d x %v: segment %d evaluates %v, Eval %v", seed, x, k, got, want)
				}
			}
		}
	}
}
