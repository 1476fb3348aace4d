// Package core implements the paper's primary contribution: algorithms that
// partition an n-element set over p heterogeneous processors whose speeds
// are continuous functions of problem size (the functional performance
// model), so that the number of elements assigned to each processor is
// proportional to its speed at that allocation — equivalently, all
// processors finish at the same time.
//
// The geometric idea (Figure 4): a proportional distribution corresponds to
// a straight line through the origin of the (problem size, absolute speed)
// plane intersecting every processor's speed graph; the partitioning
// problem is the search for the line whose intersection abscissas sum to n.
//
// Three searching algorithms are provided:
//
//   - Basic — bisection of the region between two rays (Figures 7–8);
//     best-case O(p·log₂ n), but sensitive to the shape of the graphs.
//   - Modified — bisection of the space of solutions, drawing each new ray
//     through an integer point of the graph carrying the most candidate
//     solutions (Figures 10–12); worst-case O(p²·log₂ n), insensitive to
//     shape.
//   - Combined — the paper's practical recipe (Figure 15): probe with the
//     basic rule and fall back to the modified algorithm when the curves
//     are locally too flat for slope bisection to make progress.
//
// All three finish with the fine-tuning step that converts the non-integer
// geometric optimum into an integer allocation: the paper's O(p·log₂ p)
// step, here a selection in expected O(p).
//
// The package also ships the baselines the paper compares against (the
// single-number model and the even distribution) and two extensions of the
// general partitioning problem from the paper's reference [20]: allocations
// with per-processor upper bounds, and weighted element sets.
package core

import (
	"errors"
	"fmt"
	"math"

	"heteropart/internal/geometry"
	"heteropart/internal/speed"
)

// Allocation is the number of elements assigned to each processor.
type Allocation []int64

// Sum returns the total number of allocated elements.
func (a Allocation) Sum() int64 {
	var s int64
	for _, x := range a {
		s += x
	}
	return s
}

// Stats reports the work done by a partitioning run.
type Stats struct {
	// Algorithm is the name of the algorithm that produced the result.
	Algorithm string
	// Steps is the number of bisection steps (rays drawn).
	Steps int
	// Intersections is the number of ray–graph intersections computed.
	Intersections int
	// FineTuneMoves is the number of unit adjustments made to convert the
	// geometric optimum into an integer allocation.
	FineTuneMoves int
	// UsedModified is set by Combined when it delegated to the modified
	// algorithm.
	UsedModified bool
}

// Result is the outcome of a partitioning run.
type Result struct {
	// Alloc sums exactly to the requested n.
	Alloc Allocation
	// Slope is the slope of the final ray (the geometric optimum).
	Slope float64
	// Stats describes the search effort.
	Stats Stats
}

// Errors returned by the partitioners.
var (
	// ErrNoProcessors reports an empty processor list.
	ErrNoProcessors = errors.New("core: no processors")
	// ErrBadN reports a negative problem size.
	ErrBadN = errors.New("core: negative problem size")
	// ErrInfeasible reports that the problem does not fit the combined
	// capacity of the processors (Σ MaxSize < n).
	ErrInfeasible = errors.New("core: problem exceeds total processor capacity")
	// ErrZeroSpeed reports that every processor has zero speed at the
	// probed size, so no proportional distribution exists.
	ErrZeroSpeed = errors.New("core: all processors have zero speed")
)

// Algorithm selects one of the paper's searching algorithms when running
// through a reusable Partitioner.
type Algorithm int

const (
	// AlgoBasic is ray bisection (Figures 7–8).
	AlgoBasic Algorithm = iota
	// AlgoModified is solution-space bisection (Figures 10–12).
	AlgoModified
	// AlgoCombined is the practical combination (Figure 15).
	AlgoCombined
)

// String implements fmt.Stringer; the names match Stats.Algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoBasic:
		return "basic"
	case AlgoModified:
		return "modified"
	case AlgoCombined:
		return "combined"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Option configures a partitioning run.
type Option func(*config)

type config struct {
	rule       geometry.BisectionRule
	fineTune   bool
	maxSteps   int
	elasticity float64 // Combined's flatness threshold
}

func defaultConfig() config {
	return config{
		rule:       geometry.BisectTangents,
		fineTune:   true,
		maxSteps:   256,
		elasticity: 50,
	}
}

// WithBisection selects the ray bisection rule (tangent mean by default;
// the paper's formal description uses the angle mean, and
// geometry.BisectRegulaFalsi interpolates on the allocation sum).
func WithBisection(rule geometry.BisectionRule) Option {
	return func(c *config) { c.rule = rule }
}

// WithoutFineTune skips the fine-tuning step; the geometric solution is
// rounded to integers by largest remainder instead. The paper suggests this
// relaxation when problem sizes are in the millions and all sub-optimal
// solutions are practically indistinguishable.
func WithoutFineTune() Option {
	return func(c *config) { c.fineTune = false }
}

// WithMaxSteps caps the number of bisection steps (default 256).
func WithMaxSteps(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxSteps = n
		}
	}
}

// WithElasticityThreshold tunes Combined's switch-over point: when the
// largest local elasticity |d ln s / d ln x| at the probe ray's
// intersections exceeds the threshold, the curves are considered too steep
// for plain slope bisection and the modified algorithm takes over.
func WithElasticityThreshold(e float64) Option {
	return func(c *config) {
		if e > 0 {
			c.elasticity = e
		}
	}
}

// OptionsKey returns a stable hash of the options, for keying partition
// plans in a cache. Two option lists with the same key produce identical
// results on the same model and n.
func OptionsKey(opts ...Option) uint64 {
	if len(opts) == 0 {
		// The empty list hashes the default config, a constant; skipping
		// the general path matters because passing &cfg to the option
		// functions below forces cfg onto the heap, and OptionsKey sits on
		// the per-request cache-key path.
		return defaultOptionsKey
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return optionsKeyOf(&cfg)
}

var defaultOptionsKey = func() uint64 {
	cfg := defaultConfig()
	return optionsKeyOf(&cfg)
}()

func optionsKeyOf(cfg *config) uint64 {
	const offset = 0xcbf29ce484222325
	h := uint64(offset)
	h = optionsMix(h, uint64(cfg.rule))
	if cfg.fineTune {
		h = optionsMix(h, 1)
	} else {
		h = optionsMix(h, 0)
	}
	h = optionsMix(h, uint64(cfg.maxSteps))
	h = optionsMix(h, math.Float64bits(cfg.elasticity))
	return h
}

// optionsMix folds v into an FNV-1a hash byte by byte. A plain function
// (not a closure over h) keeps OptionsKey allocation-free — it sits on
// the per-request cache-key path.
func optionsMix(h, v uint64) uint64 {
	const prime = 0x100000001b3
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// state carries one partitioning run. It is embedded in a Partitioner and
// reused across runs: every slice below is scratch that survives between
// calls, so a warm run allocates nothing.
type state struct {
	n     float64
	fns   []speed.Function
	cfg   config
	stats Stats
	// dst is the caller's allocation buffer the run writes into.
	dst Allocation
	// t is the packed knot table of fns when every one is a
	// *speed.PiecewiseLinear (the paper's practical representation, and
	// the one measured models reach hetpartd in), and nil otherwise. A
	// table selects the fast path, which reads nothing else; any other mix
	// of functions takes the generic interface path, which the fast path
	// matches bit for bit. own is the table PartitionInto packs into.
	t   *speed.Knots
	own speed.Knots
	// xs is a scratch buffer for intersection abscissas. On the fast path
	// segs holds their knot segments and seen the segments themselves,
	// which this run's rays fill once crossed is set.
	xs      []float64
	segs    []int
	seen    []speed.Segment
	crossed bool
	// b is the reusable search region between the two bounding rays.
	b bounds
	// caps, units, sel and ranges are the fine-tuning scratch buffers
	// (units is also the fallback fill's heap), donors and receivers
	// stabilize's.
	caps              []int64
	units             []unit
	sel               []float64
	ranges            []countRange
	donors, receivers tieHeap
}

// grow returns a slice of length n, reusing s's backing array when it is
// large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pack returns fns packed into s.own, or nil when one is not
// piecewise linear.
func (s *state) pack(fns []speed.Function) *speed.Knots {
	if s.own.Pack(fns) {
		return &s.own
	}
	return nil
}

// reset validates inputs and prepares the state for a run over fns (on
// the fast path when t is their table), reusing every scratch buffer that
// is already large enough.
func (s *state) reset(dst Allocation, n int64, fns []speed.Function, t *speed.Knots, algorithm string, opts []Option) error {
	if len(fns) == 0 {
		return ErrNoProcessors
	}
	if len(dst) != len(fns) {
		return fmt.Errorf("core: destination holds %d shares for %d processors", len(dst), len(fns))
	}
	if n < 0 {
		return fmt.Errorf("%w: %d", ErrBadN, n)
	}
	// Apply options onto the state's own config: a local escapes to the
	// heap through the option funcs, which would cost one allocation per
	// call on the warm path.
	s.cfg = defaultConfig()
	for _, o := range opts {
		o(&s.cfg)
	}
	var capacity float64
	if t != nil {
		capacity = t.Capacity()
	} else {
		for i, f := range fns {
			if f == nil {
				return fmt.Errorf("core: nil speed function for processor %d", i)
			}
			if !(f.MaxSize() > 0) {
				return fmt.Errorf("core: processor %d has non-positive MaxSize %v", i, f.MaxSize())
			}
			capacity += math.Floor(f.MaxSize())
		}
	}
	if float64(n) > capacity {
		return fmt.Errorf("%w: n=%d, capacity=%.0f", ErrInfeasible, n, capacity)
	}
	p := len(fns)
	s.n = float64(n)
	s.fns = fns
	s.t = t
	s.stats = Stats{Algorithm: algorithm}
	s.dst = dst
	for i := range dst {
		dst[i] = 0
	}
	s.xs = grow(s.xs, p)
	s.b.xSteep = grow(s.b.xSteep, p)
	s.b.xShallow = grow(s.b.xShallow, p)
	s.segs = grow(s.segs, p)
	s.b.segSteep = grow(s.b.segSteep, p)
	s.b.segShallow = grow(s.b.segShallow, p)
	s.seen = grow(s.seen, p)
	s.crossed = false
	return nil
}

// release drops the borrowed references so a pooled Partitioner does not
// pin the caller's speed functions, model or allocation between runs.
func (s *state) release() {
	s.fns = nil
	s.dst = nil
	s.t = nil
}

// intersect fills s.xs with the abscissas at which the ray crosses every
// speed graph, clamped to each graph's domain, and returns their sum.
//
// On the fast path it also fills s.segs with each crossing's knot segment,
// and it searches processor i's graph only from s.b.segSteep[i] to
// s.b.segShallow[i]. The segment never increases with the slope, so that
// bracket holds the crossing of any ray between the bounds, which is every
// ray the search draws; openBounds opens it to the whole graph for the
// first rays. The rays close in on the crossings, so most cross in the
// segment the last ray did (s.seen), which is tested first; the search
// runs only where that fails, and on the first ray.
func (s *state) intersect(ray geometry.Ray) (float64, error) {
	var sum float64
	if s.t == nil {
		for i, f := range s.fns {
			x, err := geometry.Intersect(f, ray, f.MaxSize())
			if err != nil {
				return 0, fmt.Errorf("core: intersecting processor %d: %w", i, err)
			}
			s.stats.Intersections++
			s.xs[i] = x
			sum += x
		}
		return sum, nil
	}
	c := ray.Slope()
	xs, segs := s.xs[:len(s.fns)], s.segs[:len(s.fns)]
	lo, hi, seen := s.b.segSteep[:len(xs)], s.b.segShallow[:len(xs)], s.seen[:len(xs)]
	for i := range xs {
		g := &seen[i]
		if !g.Crosses(c, lo[i], hi[i]) {
			s.t.Seek(i, c, lo[i], hi[i], segs[i], g)
			segs[i] = g.Seg()
		}
		x := g.Cross(c)
		xs[i] = x
		sum += x
	}
	s.stats.Intersections += len(xs)
	return sum, nil
}

// eval returns processor i's speed at x. On the fast path the segment the
// last ray crossed, or else a hint naming the segment holding x, skips
// the search; the value does not depend on either.
func (s *state) eval(i int, x float64, hint int) float64 {
	if s.t == nil {
		return s.fns[i].Eval(x)
	}
	if s.crossed {
		if v, ok := s.seen[i].Eval(x); ok {
			return v
		}
	}
	v, _ := s.t.Eval(i, x, hint)
	return v
}

// domain returns processor i's MaxSize.
func (s *state) domain(i int) float64 {
	if s.t != nil {
		return s.t.MaxSize(i)
	}
	return s.fns[i].MaxSize()
}

// initialRays computes the two starting rays of Figure 18: both pass
// through the origin and through the points (n/p, s_max) and (n/p, s_min),
// where s_max and s_min are the highest and lowest speeds at the even
// allocation n/p, probed inside each processor's own domain. The steep ray
// under-allocates (Σx ≤ n). The shallow ray over-allocates (Σx ≥ n, up to
// float rounding) unless clamped reports that some domain ends below n/p
// (see openBounds).
func (s *state) initialRays() (steep, shallow geometry.Ray, clamped bool, err error) {
	p := float64(len(s.fns))
	x0 := s.n / p
	sMax, sMin := math.Inf(-1), math.Inf(1)
	seg := 0
	for i := range s.fns {
		probe := x0
		if m := s.domain(i); m < x0 {
			probe, clamped = m, true
		}
		var v float64
		if s.t != nil {
			// The probe's segment hints the next processor's (knot sizes
			// are often shared) and guesses the first rays' crossings.
			v, seg = s.t.Eval(i, probe, seg)
			s.segs[i] = seg
		} else {
			v = s.fns[i].Eval(probe)
		}
		sMax, sMin = max(sMax, v), min(sMin, v)
	}
	if !(sMax > 0) {
		return steep, shallow, clamped, ErrZeroSpeed
	}
	steep, err = geometry.RayThrough(x0, sMax)
	if err != nil {
		return steep, shallow, clamped, err
	}
	// A zero minimum speed yields the flat ray, which over-allocates by
	// construction (every intersection clamps to the domain maximum).
	shallow, err = geometry.RayThrough(x0, math.Max(sMin, 0))
	if err != nil {
		return steep, shallow, clamped, err
	}
	return steep, shallow, clamped, nil
}

// converged reports the paper's stopping criterion: the region between the
// two rays contains no processor interval of width ≥ 1 element, i.e. for
// every processor the abscissas of its intersections with the bounding
// rays differ by less than one.
func converged(xSteep, xShallow []float64) bool {
	for i := range xSteep {
		if xShallow[i]-xSteep[i] >= 1 {
			return false
		}
	}
	return true
}

// Makespan returns the parallel execution time of an allocation under the
// given speed functions: max over processors of x_i / s_i(x_i). Processors
// with zero allocation contribute zero time. A processor with a positive
// allocation but zero speed yields +Inf.
func Makespan(alloc Allocation, fns []speed.Function) float64 {
	var worst float64
	for i, x := range alloc {
		if x == 0 {
			continue
		}
		s := fns[i].Eval(float64(x))
		if s <= 0 {
			return math.Inf(1)
		}
		worst = math.Max(worst, float64(x)/s)
	}
	return worst
}
