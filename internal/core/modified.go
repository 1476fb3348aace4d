package core

import (
	"math"

	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// Modified partitions n elements over the processors described by fns
// using the paper's modified algorithm (Figures 10–12), which bisects the
// space of solutions rather than the region between the rays. A candidate
// solution is a ray through an integer point of some speed graph; at each
// step the algorithm:
//
//  1. finds the processor whose graph carries the most candidate rays
//     inside the current region (the most integer abscissas between its
//     two bounding intersections), and
//  2. draws the ray through that graph's point at the middle integer,
//     splitting the candidates on that graph in half.
//
// After p such bisections the number of candidate solutions in the region
// provably drops by at least 50 %, so no more than p·log₂ n steps are ever
// needed — O(p²·log₂ n) in total, regardless of the shape of the graphs.
func Modified(n int64, fns []speed.Function, opts ...Option) (Result, error) {
	return pooledPartition(AlgoModified, n, fns, opts)
}

// integerSpan returns the number of integer abscissas strictly available
// on processor i's graph inside the current region, together with the
// middle one.
func integerSpan(lo, hi float64) (count int64, mid float64) {
	l := math.Ceil(lo)
	h := math.Floor(hi)
	if h < l {
		return 0, 0
	}
	return int64(h-l) + 1, math.Floor((l + h) / 2)
}

// runModified executes solution-space bisection until the stopping
// criterion is met.
func (s *state) runModified() error {
	b := &s.b
	for s.stats.Steps < s.cfg.maxSteps {
		if converged(b.xSteep, b.xShallow) {
			return nil
		}
		// Pick the graph with the most candidate solutions in the region.
		best, bestCount, bestMid := -1, int64(0), 0.0
		for i := range s.fns {
			c, m := integerSpan(b.xSteep[i], b.xShallow[i])
			if c > bestCount {
				best, bestCount, bestMid = i, c, m
			}
		}
		if best < 0 {
			// No integer candidates anywhere despite an unconverged region
			// (possible only through clamping artifacts); geometry is done.
			return nil
		}
		y := s.eval(best, bestMid, b.segSteep[best])
		mid, err := geometry.RayThrough(bestMid, y)
		if err != nil {
			return err
		}
		if !(mid.Slope() > b.shallow.Slope()) || !(mid.Slope() < b.steep.Slope()) {
			// The graph point does not define a ray strictly inside the
			// region (flat or clamped graph locally); fall back to one
			// plain bisection step to guarantee progress.
			mid = s.cfg.rule.Bisect(b.shallow, b.steep)
			if !(mid.Slope() > b.shallow.Slope()) || !(mid.Slope() < b.steep.Slope()) {
				return nil
			}
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

// Combined partitions n elements using the paper's practical combination
// (Figure 15): probe the region with the basic bisection rule and measure
// the local elasticity |d ln s / d ln x| of the speed graphs at the probe
// intersections. Where the graphs behave polynomially (bounded elasticity)
// the basic algorithm converges in O(p·log₂ n) and is used; where some
// graph is locally so steep that slope bisection stalls, the modified
// algorithm takes over.
func Combined(n int64, fns []speed.Function, opts ...Option) (Result, error) {
	return pooledPartition(AlgoCombined, n, fns, opts)
}

// runCombined executes Combined's probe-then-delegate strategy on an
// opened region.
func (s *state) runCombined() error {
	b := &s.b
	// Probe: one bisection of the region, as in the first step of Basic.
	probe := s.cfg.rule.Bisect(b.shallow, b.steep)
	useModified := false
	if probe.Slope() > b.shallow.Slope() && probe.Slope() < b.steep.Slope() {
		sum, err := s.intersect(probe)
		if err != nil {
			return err
		}
		s.stats.Steps++
		if s.maxElasticity() > s.cfg.elasticity {
			useModified = true
		}
		b.replace(probe, s.xs, s.segs, sum, s.n)
	}
	if useModified {
		s.stats.UsedModified = true
		return s.runModified()
	}
	return s.runBasic()
}

// maxElasticity estimates the largest |d ln s / d ln x| across processors
// at the intersections of the last ray (s.xs) by a forward log-difference,
// with the crossings' segments as evaluation hints. Zero or vanishing
// speeds count as infinitely steep. The log is monotone, so only the
// largest and smallest ratio s1/s0 are taken logs of.
func (s *state) maxElasticity() float64 {
	const h = 0.01
	lo, hi := 1.0, 1.0
	for i, x := range s.xs {
		if !(x > 0) {
			continue
		}
		s0 := s.eval(i, x, s.segs[i])
		s1 := s.eval(i, x*(1+h), s.segs[i])
		if s0 <= 0 || s1 <= 0 {
			return math.Inf(1)
		}
		r := s1 / s0
		lo, hi = min(lo, r), max(hi, r)
	}
	return math.Max(math.Abs(math.Log(hi)), math.Abs(math.Log(lo))) / math.Log(1+h)
}
