package speed

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestQualityLow(t *testing.T) {
	cases := []struct {
		q      Quality
		target float64
		want   bool
	}{
		{Quality{}, 0.05, true},                                       // no samples at all
		{Quality{Samples: 1}, 0.05, false},                            // one clean sample
		{Quality{Samples: 3, TimedOut: true}, 0.05, true},             // deadline hit
		{Quality{Samples: 4, Rejected: 3}, 0.05, true},                // majority rejected
		{Quality{Samples: 4, Rejected: 2}, 0.05, false},               // half rejected is fine
		{Quality{Samples: 5, RelWidth: 0.2}, 0.05, true},              // too wide
		{Quality{Samples: 5, RelWidth: 0.02}, 0.05, false},            // narrow enough
		{Quality{Samples: 5, RelWidth: 0.2}, 0, false},                // no target, width ignored
		{Quality{Samples: 5, RelWidth: 0.2, TimedOut: true}, 0, true}, // timeout always low
	}
	for i, c := range cases {
		if got := c.q.Low(c.target); got != c.want {
			t.Errorf("case %d: %v.Low(%v) = %v, want %v", i, c.q, c.target, got, c.want)
		}
	}
}

// stepTruth is a shape-conforming synthetic speed function with a cache
// edge: fast below the edge, decaying above it.
func stepTruth(x float64) float64 {
	if x <= 300 {
		return 1000
	}
	return 1000 * 300 / x * 0.9
}

func TestBuildQRemeasuresLowQualityPoints(t *testing.T) {
	// The oracle reports every first measurement of a size as shaky
	// (relative width 0.5) and every repeat as solid; the builder must
	// spend re-measurements rather than recurse on the shaky answers.
	firstSeen := map[float64]bool{}
	var calls int
	oracle := func(x float64) (float64, Quality, error) {
		calls++
		if !firstSeen[x] {
			firstSeen[x] = true
			return stepTruth(x), Quality{Samples: 3, RelWidth: 0.5}, nil
		}
		return stepTruth(x), Quality{Samples: 6, RelWidth: 0.01}, nil
	}
	b := Builder{Eps: 0.05, MaxMeasurements: 256}
	f, stats, err := b.BuildQ(oracle, 100, 10000)
	if err != nil {
		t.Fatalf("BuildQ: %v", err)
	}
	if stats.Remeasured == 0 {
		t.Error("no re-measurements despite every first sample reporting RelWidth 0.5")
	}
	if stats.Measurements != calls {
		t.Errorf("stats.Measurements = %d, oracle saw %d calls", stats.Measurements, calls)
	}
	if len(stats.Qualities) == 0 {
		t.Fatal("no per-knot qualities reported")
	}
	for _, pq := range stats.Qualities {
		if pq.Quality.Low(b.Eps) {
			t.Errorf("knot at x=%g kept low quality %v after re-measurement", pq.X, pq.Quality)
		}
	}
	// The model still matches the truth within the band at the knots.
	for _, p := range f.Points() {
		if p.X >= f.MaxSize() {
			continue // pinned zero endpoint
		}
		truth := stepTruth(p.X)
		if math.Abs(p.Y-truth) > 0.1*truth {
			t.Errorf("knot (%g, %g) far from truth %g", p.X, p.Y, truth)
		}
	}
}

func TestBuildQQuarantinesShapeViolations(t *testing.T) {
	// A persistently wrong region: speeds jump ×5 for large sizes, which
	// violates s(x)/x strictly decreasing between the surrounding knots.
	// The build must repair-and-quarantine with diagnostics, not fail.
	oracle := func(x float64) (float64, Quality, error) {
		s := 100.0
		if x > 600 && x < 900 {
			s = 500
		}
		return s, Quality{Samples: 1}, nil
	}
	f, stats, err := Builder{MaxMeasurements: 64}.BuildQ(oracle, 100, 1000)
	if err != nil && err != ErrBudget {
		t.Fatalf("BuildQ: %v", err)
	}
	if f == nil {
		t.Fatal("no function returned")
	}
	if !stats.Repaired {
		t.Error("shape violation not repaired")
	}
	if len(stats.Quarantined) == 0 {
		t.Error("no knots quarantined")
	}
	if len(stats.Diagnostics) != len(stats.Quarantined) {
		t.Errorf("%d diagnostics for %d quarantined knots", len(stats.Diagnostics), len(stats.Quarantined))
	}
	// The repaired result must satisfy the shape invariant.
	if _, err := NewPiecewiseLinear(f.Points()); err != nil {
		t.Errorf("repaired model violates the invariant: %v", err)
	}
}

// TestObserveShapeInvariantProperty is the satellite property test: the
// model-maintenance path must preserve the shape invariant (s(x)/x
// strictly decreasing across knots) under an adversarial observation
// sequence — wild sizes, wild speeds, wild blend weights — for 1 000
// steps. Every intermediate model must be valid.
func TestObserveShapeInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	f := MustPiecewiseLinear([]Point{{X: 100, Y: 1000}, {X: 1000, Y: 800}, {X: 10000, Y: 100}})
	for step := 0; step < 1000; step++ {
		// Adversarial draws: sizes across (and beyond) the domain, speeds
		// from zero to far above the model, extreme blend weights.
		x := math.Exp(rng.Float64()*math.Log(1e6)) * 1e-1 // ∈ [0.1, 1e5)
		s := rng.Float64() * 5000
		if rng.IntN(10) == 0 {
			s = 0 // occasionally a dead-stop observation
		}
		alpha := rng.Float64()
		if alpha == 0 {
			alpha = 1
		}
		minGap := rng.Float64() * x * 0.5
		g, err := Observe(f, x, s, alpha, minGap)
		if err != nil {
			t.Fatalf("step %d: Observe(x=%g, s=%g, alpha=%g, minGap=%g): %v", step, x, s, alpha, minGap, err)
		}
		pts := g.Points()
		if len(pts) < 2 {
			t.Fatalf("step %d: model degenerated to %d knots", step, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			r0 := pts[i-1].Y / pts[i-1].X
			r1 := pts[i].Y / pts[i].X
			if !(r1 < r0) {
				t.Fatalf("step %d: shape invariant broken between knot %d (%g,%g) and %d (%g,%g)",
					step, i-1, pts[i-1].X, pts[i-1].Y, i, pts[i].X, pts[i].Y)
			}
		}
		// Re-validating through the constructor must agree.
		if _, err := NewPiecewiseLinear(pts); err != nil {
			t.Fatalf("step %d: constructor rejects Observe's output: %v", step, err)
		}
		f = g
	}
	if f.NumPoints() > 2000 {
		t.Errorf("model grew to %d knots over 1000 observations", f.NumPoints())
	}
}
