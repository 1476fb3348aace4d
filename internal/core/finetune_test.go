package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"heteropart/internal/geometry"
	"heteropart/internal/machine"
	"heteropart/internal/speed"
)

// fillCase is one plan of TestFineTuneFillMatchesHeap: its search runs to
// convergence, and both fills start from the base it leaves.
type fillCase struct {
	name string
	fns  []speed.Function
	n    int64
	algo Algorithm
	opts []Option
}

// fillCases returns the plans TestFineTuneFillMatchesHeap searches: the
// golden clusters, the seeds of the partitioners' fuzzers, identical
// machines, binding caps, Table 2, clamped domains and perfbench-shaped
// models at fresh sizes.
func fillCases(t *testing.T) []fillCase {
	var out []fillCase
	rules := []Option{WithBisection(geometry.BisectTangents), WithBisection(geometry.BisectAngles), WithBisection(geometry.BisectRegulaFalsi)}
	add := func(name string, fns []speed.Function, n int64, opts ...Option) {
		for _, algo := range []Algorithm{AlgoBasic, AlgoModified, AlgoCombined} {
			if len(opts) > 0 {
				out = append(out, fillCase{fmt.Sprintf("%s n=%d %v", name, n, algo), fns, n, algo, opts})
				continue
			}
			for r, rule := range rules {
				out = append(out, fillCase{fmt.Sprintf("%s n=%d %v rule %d", name, n, algo, r), fns, n, algo, []Option{rule}})
			}
		}
	}
	for _, c := range goldenClusters(t) {
		for _, n := range c.ns {
			add("golden "+c.name, c.fns, n)
		}
	}
	for _, s := range exactFuzzSeeds {
		n, fns := exactFuzzCase(s.seed, s.nSeed, s.pSeed)
		add(fmt.Sprintf("exact fuzz seed %d", s.seed), fns, n)
	}
	for _, s := range fineTuneFuzzSeeds {
		n, fns := fineTuneFuzzCase(s.nSeed, s.s1, s.s2, s.s3)
		add(fmt.Sprintf("fine-tune fuzz seed %d", s.nSeed), fns, n)
	}
	for _, s := range pwlFuzzSeeds {
		n, fast, generic := pwlFuzzCase(s.seed, s.nSeed, s.pSeed, s.shape)
		name := fmt.Sprintf("pwl fuzz seed %d", s.seed)
		add(name, fast, n)
		add(name+" generic", generic, n)
		if n <= 2_000_000 {
			add(name+" max-steps", fast, n, WithMaxSteps(4))
		}
	}
	pwl := func(p int, seed uint32, shape uint8) []speed.Function {
		fast, _ := pwlFunctions(fuzzPWLCluster(p, seed, shape))
		return fast
	}
	for _, n := range []int64{1_000_001, 96 * 250_000, 3_000_000_007} {
		add("identical", pwl(96, 21, shapeIdentical), n)
		add("unequal domains", pwl(40, 23, shapeUnequalDomains), n)
	}
	table2 := make([]speed.Function, 0, len(machine.Table2()))
	for _, m := range machine.Table2() {
		f, err := m.FlopRate(machine.MatrixMult)
		if err != nil {
			t.Fatal(err)
		}
		table2 = append(table2, f)
	}
	for _, n := range []int64{1_000_000, 77_777_777, 2_000_000_000} {
		add("table2", table2, n)
	}
	flat := func(s, max float64) speed.Function {
		return speed.MustPiecewiseLinear([]speed.Point{{X: 1e3, Y: s}, {X: max, Y: s}})
	}
	for _, n := range []int64{2_500_000_000, 30_000_000_000} {
		add("clamped constant", []speed.Function{speed.MustConstant(2e7, 1e9), speed.MustConstant(1e7, 1e11)}, n)
		add("clamped pwl", []speed.Function{flat(2e7, 1e9), flat(1e7, 1e11)}, n)
	}
	// Searches stopped early by WithMaxSteps leave deficits of up to n
	// units, which fineTune counts out (fillCount) instead of popping
	// them one at a time: on the fast path, on the generic path (the same
	// functions behind opaquePWL, and analytic ones), on pairs of
	// identical machines, whose ties can keep the heap, and on binding
	// caps.
	pwl12 := testPWLCluster(12, 5)
	opaque12, paired := make([]speed.Function, len(pwl12)), make([]speed.Function, len(pwl12))
	for i, f := range pwl12 {
		opaque12[i], paired[i] = opaquePWL{f.(*speed.PiecewiseLinear)}, pwl12[i/2]
	}
	capped := func(name string, fns []speed.Function, n int64, algo Algorithm, steps int) {
		out = append(out, fillCase{fmt.Sprintf("step-capped %d %s n=%d %v", steps, name, n, algo), fns, n, algo, []Option{WithMaxSteps(steps)}})
	}
	for steps := 1; steps <= 4; steps++ {
		for _, algo := range []Algorithm{AlgoBasic, AlgoModified, AlgoCombined} {
			capped("pwl", pwl12, 1_000_001, algo, steps)
		}
		capped("opaque pwl", opaque12, 1_000_001, AlgoCombined, steps)
		capped("analytic", testCluster(12, 5), 1_000_001, AlgoCombined, steps)
		capped("paired", paired, 1_000_001, AlgoCombined, steps)
		capped("unequal domains", pwl(40, 23, shapeUnequalDomains), 1_000_001, AlgoCombined, steps)
	}
	s := uint32(41)
	for _, p := range []int{270, 540, 810, 1080} {
		fns := perfbenchCluster(p, uint32(p)+1)
		for j := 0; j < 6; j++ {
			s = s*1664525 + 1013904223
			n := 250_000_000 + int64(s)%1_750_000_000
			out = append(out, fillCase{fmt.Sprintf("perfbench p=%d n=%d", p, n), fns, n, AlgoCombined,
				[]Option{WithBisection(geometry.BisectRegulaFalsi)}})
		}
	}
	return out
}

// search runs c's search on pr and stops before fine-tuning, leaving the
// converged bracket in pr.st. It reports false when the plan never
// reaches fine-tuning.
func (c fillCase) search(t *testing.T, pr *Partitioner) bool {
	s := &pr.st
	if err := s.reset(make(Allocation, len(c.fns)), c.n, c.fns, s.pack(c.fns), c.algo.String(), c.opts); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if _, done := s.trivial(); done {
		return false
	}
	err := s.openBounds()
	if err == nil {
		switch c.algo {
		case AlgoBasic:
			err = s.runBasic()
		case AlgoModified:
			err = s.runModified()
		default:
			err = s.runCombined()
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return true
}

// compareFills floors the steep intersections of s's bracket, runs
// fillSelect and then fillHeap from that same base, and requires the
// same allocation and FineTuneMoves wherever the selection filled; where
// it fell back it must have left the base as it was. It returns the
// selection's outcome, or filled with ok false when there was nothing to
// hand out. With count set (the functions keep the shape assumption),
// every fill the selection fell back on is also counted (fillCount), at
// any deficit: where the count fills, it must match the heap too, and
// where it gives up, leave the base and the fronts as they were; counted
// reports whether it filled.
func compareFills(t *testing.T, name string, s *state, count bool) (why fallback, counted, ok bool) {
	t.Helper()
	deficit := s.floorBase(s.b.xSteep)
	if deficit <= 0 {
		return filled, false, false
	}
	base := slices.Clone(s.dst)
	s.fronts(s.dst, s.caps)
	fronts := slices.Clone(s.units)
	sameFronts := func(fill string) {
		t.Helper()
		if !slices.EqualFunc(s.units, fronts, func(a, b unit) bool {
			return a.i == b.i && a.x == b.x && math.Float64bits(a.t) == math.Float64bits(b.t)
		}) {
			t.Fatalf("%s: the %s left candidates %v, not the fronts %v", name, fill, s.units, fronts)
		}
	}
	s.stats.FineTuneMoves = 0
	s.fillHeap(s.dst, s.caps, deficit)
	heap, heapMoves := slices.Clone(s.dst), s.stats.FineTuneMoves
	check := func(fill string, done bool) {
		t.Helper()
		want, wantMoves := heap, heapMoves
		if !done {
			want, wantMoves = base, 0
		}
		if !slices.Equal(s.dst, want) || s.stats.FineTuneMoves != wantMoves {
			t.Fatalf("%s: deficit %d, %s (done %v): %v (%d moves), want %v (%d moves)",
				name, deficit, fill, done, s.dst, s.stats.FineTuneMoves, want, wantMoves)
		}
	}
	copy(s.dst, base)
	s.fronts(s.dst, s.caps)
	s.stats.FineTuneMoves = 0
	why = s.fillSelect(s.dst, s.caps, deficit)
	sameFronts("selection")
	check("selection", why == filled)
	if count && why != filled {
		copy(s.dst, base)
		s.stats.FineTuneMoves = 0
		counted = s.fillCount(s.dst, s.caps, deficit)
		sameFronts("count")
		check("count", counted)
	}
	return why, counted, true
}

// stepUp is a speed function that breaks the shape constraint: its speed
// jumps from lo to hi at size at, so execution times fall there.
type stepUp struct{ lo, hi, at, max float64 }

func (f stepUp) Eval(x float64) float64 {
	if x < f.at {
		return f.lo
	}
	return f.hi
}

func (f stepUp) MaxSize() float64 { return f.max }

// nanAbove is a speed function whose speed is NaN from size at on.
type nanAbove struct{ s, at float64 }

func (f nanAbove) Eval(x float64) float64 {
	if x < f.at {
		return f.s
	}
	return math.NaN()
}

func (f nanAbove) MaxSize() float64 { return 1e12 }

// TestFineTuneFillMatchesHeap holds the selection fill to the heap fill
// it replaced: from the base every plan's search converges to, and from
// synthetic bases several units below the optimum on functions with
// equal speeds, binding caps, times that fall (stepUp) and NaN speeds,
// both fills must hand out the same allocation with the same
// FineTuneMoves, or the selection must fall back and leave the base
// untouched. Every fallback must occur, and the plans' fallback rate is
// logged.
func TestFineTuneFillMatchesHeap(t *testing.T) {
	pr := NewPartitioner()
	plans, capped := map[fallback]int{}, map[fallback]int{}
	// counted[step-capped][count filled] tallies the fallbacks.
	var counted [2][2]int
	for _, c := range fillCases(t) {
		if !c.search(t, pr) {
			continue
		}
		why, ok2, ok := compareFills(t, c.name, &pr.st, true)
		if !ok {
			continue
		}
		stepCapped := strings.HasPrefix(c.name, "step-capped")
		if stepCapped {
			capped[why]++
		} else {
			plans[why]++
		}
		if why != filled {
			counted[b2i(stepCapped)][b2i(ok2)]++
		}
	}
	synthetic := map[fallback]int{}
	s := uint32(3)
	next := func(m int) int {
		s = s*1664525 + 1013904223
		return int(s>>8) % m
	}
	for trial := 0; trial < 5000; trial++ {
		p := 2 + next(7)
		fns := make([]speed.Function, p)
		xs := make([]float64, p)
		// Every processor runs for about the same time at xs, the optimum
		// of constant speeds, unless its cap binds first.
		level := float64(1+next(2000)) / 1000
		var n, capacity int64
		monotone := true
		for i := range fns {
			// Speeds from a few classes, so that times tie, or spread.
			sp := float64(1000 * (1 + next(4)))
			if next(2) == 0 {
				sp = float64(1000 + next(9000))
			}
			// Speed jumps and NaNs start a few units from the optimum,
			// where the fill meets them.
			near := level*sp + float64(next(6)) - 1
			switch max := 1e12; next(8) {
			case 0:
				fns[i] = stepUp{lo: sp, hi: float64(1+next(4)) * sp, at: near, max: max}
				monotone = false
			case 1:
				fns[i] = nanAbove{s: sp, at: near}
				monotone = false
			default:
				if next(6) == 0 {
					max = float64(50 + next(5000))
				}
				fns[i] = speed.MustConstant(sp, max)
			}
			xs[i] = min(level*sp, fns[i].MaxSize())
			n += int64(xs[i])
			capacity += int64(fns[i].MaxSize())
		}
		n = min(n+int64(next(p)), capacity)
		st := &pr.st
		if err := st.reset(make(Allocation, p), n, fns, nil, "synthetic", nil); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			// Mostly a unit or two below it, sometimes more.
			below := next(3)
			if next(8) == 0 {
				below = next(12)
			}
			st.b.xSteep[i] = x - float64(below) - 0.5
			st.b.segSteep[i] = 0
		}
		if why, _, ok := compareFills(t, fmt.Sprintf("synthetic trial %d", trial), st, monotone); ok {
			synthetic[why]++
		}
	}
	t.Logf("plans: %d filled by selection, fallbacks: %d ties, %d out of order, %d over budget",
		plans[filled], plans[fallbackTie], plans[fallbackOrder], plans[fallbackBudget])
	t.Logf("step-capped plans: %d filled by selection, fallbacks: %d ties, %d out of order, %d over budget",
		capped[filled], capped[fallbackTie], capped[fallbackOrder], capped[fallbackBudget])
	t.Logf("fallbacks counted: %d of %d plans, %d of %d step-capped plans",
		counted[0][1], counted[0][0]+counted[0][1], counted[1][1], counted[1][0]+counted[1][1])
	t.Logf("synthetic bases: %d filled by selection, fallbacks: %d ties, %d out of order, %d over budget",
		synthetic[filled], synthetic[fallbackTie], synthetic[fallbackOrder], synthetic[fallbackBudget])
	for why := filled; why <= fallbackBudget; why++ {
		if plans[why]+synthetic[why] == 0 {
			t.Errorf("no case took outcome %d", why)
		}
	}
	if counted[1][0] == 0 || counted[1][1] == 0 {
		t.Errorf("the count filled %d step-capped fallbacks and gave up on %d; want both", counted[1][1], counted[1][0])
	}
	if plans[filled] < 4*(plans[fallbackTie]+plans[fallbackOrder]+plans[fallbackBudget]) {
		t.Errorf("selection filled only %d plans of %d", plans[filled], plans[filled]+plans[fallbackTie]+plans[fallbackOrder]+plans[fallbackBudget])
	}
}

// TestStepCappedFillIsFast pins two plans whose one-step search leaves
// tens and hundreds of millions of units to fine-tuning, as a client's
// "maxSteps": 1 can: the allocations and FineTuneMoves are those the
// one-unit-at-a-time heap fill recorded (it took 2.8 s and 35 s), and the
// counting fill must return them within 50 ms.
func TestStepCappedFillIsFast(t *testing.T) {
	for _, c := range []struct {
		n     int64
		alloc Allocation
		moves int
	}{
		{200_000_000, Allocation{17777325, 19145003, 10033734, 14283841, 20828108, 6874076, 15048769, 15620593, 22534533, 18724476, 23333339, 15796203}, 56828921},
		{2_000_000_000, Allocation{202079114, 217133491, 120089486, 148636671, 234162283, 67320670, 115237577, 126089441, 145433141, 202209190, 260444927, 161164009}, 672520497},
	} {
		start := time.Now()
		res, err := Combined(c.n, testPWLCluster(12, 5), WithMaxSteps(1))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Alloc, c.alloc) || res.Stats.FineTuneMoves != c.moves {
			t.Errorf("n=%d: %v (%d moves), want the heap's %v (%d moves)", c.n, res.Alloc, res.Stats.FineTuneMoves, c.alloc, c.moves)
		}
		if elapsed > 50*time.Millisecond {
			t.Errorf("n=%d: took %v, want under 50ms", c.n, elapsed)
		}
	}
}

// TestSelectKth checks the selection against a sort on random values
// with and without duplicates, and that it stays within its budget on
// inputs built against median-of-three pivots or all equal.
func TestSelectKth(t *testing.T) {
	s := uint32(9)
	next := func(m int) int {
		s = s*1664525 + 1013904223
		return int(s>>8) % m
	}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + next(300)
		a := make([]float64, n)
		distinct := 1 + next(n+1)
		for i := range a {
			a[i] = float64(next(distinct)) * 0.125
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		k := next(n)
		v, le, ok := selectKth(a, k)
		wantLE := k
		for wantLE < n && sorted[wantLE] == sorted[k] {
			wantLE++
		}
		if !ok || v != sorted[k] || le != wantLE {
			t.Fatalf("trial %d: selectKth(k=%d of %d) = (%v, %d, %v), want (%v, %d, true)", trial, k, n, v, le, ok, sorted[k], wantLE)
		}
		for i, x := range a {
			if (i < le) != (x <= v) {
				t.Fatalf("trial %d: a[%d] = %v on the wrong side of %v at %d", trial, i, x, v, le)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 1080} {
		a := make([]float64, n)
		if _, le, ok := selectKth(a, n/2); !ok || le != n {
			t.Fatalf("%d equal values: le %d ok %v", n, le, ok)
		}
	}
}
