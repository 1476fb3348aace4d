package core

import (
	"math"
	"sort"
)

// fineTune converts the non-integer geometric optimum into an integer
// allocation summing exactly to n. It starts from the floor of the
// under-allocating (steep-ray) intersections, hands out the remaining
// units to the processors whose execution times grow the least, and
// settles the result at the canonical fixed point (stabilize). Handing the
// units out is the paper's "keep the p best of the 2p candidate execution
// times" (see DESIGN.md for why this reading is used), which is a
// selection, not a sort: fillSelect finds the deficit-th smallest
// candidate time in expected O(p) and gives a unit to every candidate at
// or below it. Where that set is ambiguous (candidates tie across the
// deficit, a processor's times do not increase strictly, the selection
// runs past its budget), fillHeap hands the units out one at a time from
// the O(p + deficit·log p) heap every plan was recorded with, whose order
// among equal times decides, so every plan keeps its bytes. A large
// deficit, which a search stopped early leaves, is first counted out by
// makespan (fillCount), which gives what the heap gives unless times tie.
//
// The allocation is written into the caller's destination buffer and the
// candidates live in the state's scratch slices, so a warm run allocates
// nothing.
func (s *state) fineTune(xSteep []float64) Allocation {
	deficit := s.floorBase(xSteep)
	alloc, caps := s.dst, s.caps
	switch {
	case deficit < 0:
		// Flooring an under-allocation cannot overshoot, but guard against
		// callers with degenerate inputs: shave from the slowest.
		s.shave(alloc, -deficit)
	case deficit > 0:
		s.fronts(alloc, caps)
		if s.fillSelect(alloc, caps, deficit) != filled &&
			!(deficit > countFillMin*int64(len(alloc)) && s.fillCount(alloc, caps, deficit)) {
			s.fillHeap(alloc, caps, deficit)
		}
	}
	s.stabilize(alloc, caps)
	return alloc
}

// floorBase writes the floored, capped steep intersections into s.dst and
// the floored domain ends into s.caps, and returns n minus their sum, the
// units fine-tuning still has to hand out.
func (s *state) floorBase(xSteep []float64) int64 {
	alloc := s.dst
	s.caps = grow(s.caps, len(s.fns))
	caps := s.caps
	var total int64
	for i := range s.fns {
		caps[i] = int64(math.Floor(s.domain(i)))
		x := int64(math.Floor(xSteep[i]))
		if x < 0 {
			x = 0
		}
		if x > caps[i] {
			x = caps[i]
		}
		alloc[i] = x
		total += x
	}
	return int64(s.n) - total
}

// unit is a fill candidate: processor i's execution time t at allocation
// x, what giving it its x-th element would cost.
type unit struct {
	t float64
	i int
	x int64
}

// fronts fills s.units with every processor's first candidate, the time
// at one unit above its allocation, in processor order for the processors
// below their caps.
func (s *state) fronts(alloc Allocation, caps []int64) {
	units := s.units[:0]
	for i, x := range alloc {
		if x < caps[i] {
			units = append(units, unit{t: s.timeAt(i, x+1), i: i, x: x + 1})
		}
	}
	s.units = units
}

// fallback is why fillSelect left a fill to the heap; filled is none.
type fallback uint8

const (
	filled fallback = iota
	// fallbackTie: candidates equal to the deficit-th smallest time are
	// left out, so the heap's order among equal times decides.
	fallbackTie
	// fallbackOrder: a processor's times do not increase strictly, or a
	// time is NaN.
	fallbackOrder
	// fallbackBudget: the selection or the rounds ran out of budget.
	fallbackBudget
)

// maxFillRounds bounds fillSelect's selections: a processor that takes k
// units needs k rounds.
const maxFillRounds = 4

// fillSelect hands the deficit out by selection from the fronts in
// s.units, or reports why it would not reproduce fillHeap and leaves
// alloc and s.units as they were.
//
// Let T be the deficit-th smallest candidate time. When no candidate
// above that rank equals T, and every processor that takes its candidate
// either reaches its cap or has a next time above T, the heap's first
// deficit pops are exactly the candidates at or below T: while one is
// left the heap's minimum is at most T, and every time it pushes is above
// T. Which order they pop in does not matter, since all are taken. A
// taken processor whose next time is at or below T gets it as one more
// candidate, and T is selected again (with fewer candidates than units,
// every candidate is taken and T is infinite). A processor's times must
// increase strictly, so that its candidates at or below T are a prefix.
// maxFillRounds rounds of one selection each, and selectKth's work
// budget, bound what a fill that falls back to the heap wasted.
func (s *state) fillSelect(alloc Allocation, caps []int64, deficit int64) fallback {
	k := int(deficit) - 1
	units, m := s.units, len(s.units)
	// Keep the capacity the candidates grew to, and the fronts.
	defer func() { s.units = units[:m] }()
	for _, u := range units {
		if u.t != u.t {
			return fallbackOrder
		}
	}
	t := math.Inf(1)
	for round, from := 0, 0; ; round++ {
		if round == maxFillRounds {
			return fallbackBudget
		}
		if k < len(units) {
			sel := grow(s.sel, len(units))
			s.sel = sel
			for j, u := range units {
				sel[j] = u.t
			}
			var le int
			var ok bool
			if t, le, ok = selectKth(sel, k); !ok {
				return fallbackBudget
			}
			if le != k+1 {
				return fallbackTie
			}
		}
		// Only processors whose last candidate the previous round added
		// (every front, in the first) can take a further unit at T.
		to := len(units)
		for j := from; j < to; j++ {
			u := units[j]
			if !(u.t <= t) || u.x >= caps[u.i] {
				continue
			}
			next := s.timeAt(u.i, u.x+1)
			if next > t {
				continue
			}
			if !(next > u.t) {
				return fallbackOrder
			}
			units = append(units, unit{t: next, i: u.i, x: u.x + 1})
		}
		if len(units) == to && k < to {
			break
		}
		from = to
	}
	for _, u := range units {
		alloc[u.i] += int64(b2i(u.t <= t))
	}
	s.stats.FineTuneMoves += int(deficit)
	return filled
}

// countFillMin is the deficit per processor above which a fill the
// selection gave up on is counted (fillCount) before it is left to the
// heap, whose cost grows with the deficit: a search stopped early by
// WithMaxSteps, an option any client of the daemon may send, leaves up to
// n units.
const countFillMin = 64

// maxCountRounds bounds fillCount's search. Every third round bisects, so
// the bracket narrows to adjacent floats well within it.
const maxCountRounds = 200

// countRange is processor i's number of units above its allocation that
// cost at most fillCount's lower bracket end (lo), its upper end (hi), and
// the time it probes (mid).
type countRange struct{ lo, mid, hi int64 }

// fillCount hands the deficit out by counting, or reports false and
// leaves alloc as it was. It searches for a makespan T at which exactly
// deficit units above alloc cost at most T, and gives each processor its
// units up to T. Under the shape assumption a processor's times increase
// with its load, so its units at or below T are a prefix, which
// lastWithin counts by bisection. When exactly deficit units cost at most
// T, they are the heap's deficit pops: while one is left, the heap's
// minimum is at most T, since that processor's front comes no later.
//
// A bracket of makespans, with fewer units than the deficit at its lower
// end and more at its upper end, narrows by regula falsi on the count
// (Illinois, so neither end sticks) until the count at a probe is the
// deficit. No such T exists when units tie across the deficit's rank: the
// bracket closes to adjacent floats, and fillCount leaves the fill to the
// heap, as it does for times that are not finite.
func (s *state) fillCount(alloc Allocation, caps []int64, deficit int64) bool {
	s.ranges = grow(s.ranges, len(alloc))
	r := s.ranges
	var nHi int64
	for i, x := range alloc {
		// No processor takes more than the deficit.
		r[i] = countRange{hi: min(caps[i]-x, deficit)}
		nHi += r[i].hi
	}
	if nHi <= deficit {
		// Every unit is one of the heap's pops (the heap runs dry first
		// when there are fewer, which n within the caps rules out).
		for i := range alloc {
			alloc[i] += r[i].hi
		}
		s.stats.FineTuneMoves += int(nHi)
		return true
	}
	tLo, tHi := 0.0, 0.0
	for i, x := range alloc {
		if r[i].hi > 0 {
			tHi = max(tHi, s.timeAt(i, x+r[i].hi))
		}
	}
	if !(tHi < math.Inf(1)) {
		return false
	}
	wLo, wHi, side := float64(deficit), float64(nHi-deficit), 0
	for round := 0; round < maxCountRounds; round++ {
		t := tLo + (tHi-tLo)*(wLo/(wLo+wHi))
		if round%3 == 2 || !(tLo < t && t < tHi) {
			t = tLo + (tHi-tLo)/2
		}
		if !(tLo < t && t < tHi) {
			return false
		}
		var n int64
		for i, x := range alloc {
			last, _ := s.lastWithin(i, x+r[i].lo, x+r[i].hi+1, t)
			r[i].mid = last - x
			n += r[i].mid
		}
		switch {
		case n == deficit:
			for i := range alloc {
				alloc[i] += r[i].mid
			}
			s.stats.FineTuneMoves += int(deficit)
			return true
		case n < deficit:
			for i := range r {
				r[i].lo = r[i].mid
			}
			tLo, wLo = t, float64(deficit-n)
			if side < 0 {
				wHi /= 2
			}
			side = -1
		default:
			for i := range r {
				r[i].hi = r[i].mid
			}
			tHi, wHi = t, float64(n-deficit)
			if side > 0 {
				wLo /= 2
			}
			side = 1
		}
	}
	return false
}

// fillHeap hands the deficit out one unit at a time, each to the processor
// whose execution time grows the least, from a min-heap over the fronts in
// s.units that replicates container/heap's algorithm operation for
// operation, so its order among equal times is the one every plan was
// recorded with.
func (s *state) fillHeap(alloc Allocation, caps []int64, deficit int64) {
	h := s.units
	heapInit(h)
	for deficit > 0 && len(h) > 0 {
		i := h[0].i
		alloc[i]++
		deficit--
		s.stats.FineTuneMoves++
		if alloc[i] < caps[i] {
			h[0].t, h[0].x = s.timeAt(i, alloc[i]+1), alloc[i]+1
			heapFixTop(h)
		} else {
			h = heapPopTop(h)
		}
	}
}

// selectKth returns the k-th smallest value of a (from 0), reordering a,
// and the number of values at or below it. It is a quickselect with a
// median-of-three pivot whose three-way partition passes never branch on
// their comparisons. It gives up, reporting false, once its passes have
// read 8·len(a) values, which random orders practically never reach.
func selectKth(a []float64, k int) (v float64, le int, ok bool) {
	lo, hi := 0, len(a)
	for budget := 8 * len(a); ; {
		if budget -= hi - lo; budget < 0 {
			return 0, 0, false
		}
		pivot := median3(a[lo], a[int(uint(lo+hi)>>1)], a[hi-1])
		// a[lo:lt] < pivot ≤ a[lt:hi]: swap every value in, keep it
		// only when it is below.
		lt := lo
		for j := lo; j < hi; j++ {
			x := a[j]
			a[j] = a[lt]
			a[lt] = x
			lt += b2i(x < pivot)
		}
		if k < lt {
			hi = lt
			continue
		}
		// a[lt:eq] == pivot < a[eq:hi].
		eq := lt
		for j := lt; j < hi; j++ {
			x := a[j]
			a[j] = a[eq]
			a[eq] = x
			eq += b2i(x == pivot)
		}
		if k < eq {
			// Everything left of lt is below the pivot and everything
			// from eq on above it, as in every earlier round.
			return pivot, eq, true
		}
		lo = eq
	}
}

// median3 returns the median of a, b and c, none of them NaN.
func median3(a, b, c float64) float64 {
	return max(min(a, b), min(max(a, b), c))
}

// b2i is 1 for true and 0 for false, compiled to a flag read.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// stabilize drives the allocation to the canonical fixed point of
// fine-tuning: exchange single units from the processor with the largest
// execution time to the processor whose time grows least while that
// strictly reduces the maximum, then, at the critical level where the
// largest time exactly equals the smallest increment (an exact tie),
// migrate boundary units toward lower processor indices.
//
// The greedy fill above reaches a stable allocation already, but its
// starting base comes from the geometry of whatever region the search
// converged in, and different searches (tangent or angle bisection, the
// regula-falsi search, different step budgets) converge in different
// regions. Two failure
// modes of path independence remain:
//
//   - floating-point rounding at the region boundary can shift a unit
//     between two processors whose marginal times are within an ulp —
//     these allocations are not stable, and the strict exchange repairs
//     them (absent ties the stable allocation is unique: two stable
//     allocations force an equality chain through the strictly
//     increasing t_i);
//   - exact ties (commensurate speeds, physically identical machines)
//     admit several stable allocations that differ by which tied
//     processor holds a boundary unit. Stability implies any such tie
//     sits exactly at max time == min increment, so a deterministic rule
//     at that single level — the boundary unit belongs to the lowest
//     eligible index — picks one allocation out of the tied family.
//
// Together the two rules give every search path the same integer
// allocation bit for bit, which is why the plan cache may serve the
// regula-falsi search's plans as the paper's. All allocations involved
// have identical makespans, so the pass never trades quality for
// canonicality.
//
// The first round scans every processor, which is all the common case
// costs: no move fires. Once one does, later rounds read the donor and
// the receiver off two heaps that pick what the scans would, so the O(p)
// tie moves of identical machines cost O(log p) each, not two scans.
func (s *state) stabilize(alloc Allocation, caps []int64) {
	// Strict exchanges shrink the sorted time multiset lexicographically
	// and tie moves strictly decrease Σ i·alloc[i], so the loop
	// terminates; p·64 rounds is far beyond what a converged region needs
	// (typically zero or one).
	for iter := 0; iter < len(alloc)*64; iter++ {
		// Donor: the highest index attaining the maximum time. Receiver:
		// the lowest index attaining the minimum increment.
		imax, tmax, jmin, tmin := -1, 0.0, -1, math.Inf(1)
		if iter == 0 {
			for i, x := range alloc {
				if x <= 0 {
					continue
				}
				if t := s.timeAt(i, x); t >= tmax {
					imax, tmax = i, t
				}
			}
			for j := range alloc {
				if alloc[j] >= caps[j] {
					continue
				}
				if t := s.timeAt(j, alloc[j]+1); t < tmin {
					jmin, tmin = j, t
				}
			}
		} else {
			if e, ok := s.donors.top(alloc); ok {
				imax, tmax = e.i, -e.key
			}
			if e, ok := s.receivers.top(alloc); ok {
				jmin, tmin = e.i, e.key
			}
		}
		// t_j(x+1) > t_j(x) for every processor, so jmin ≠ imax whenever a
		// move fires: tmin < tmax rules it out directly, and in the tie
		// case equality of a processor's own time and increment is
		// impossible.
		if imax < 0 || jmin < 0 {
			return
		}
		if !(tmin < tmax) && !(tmin == tmax && jmin < imax) {
			return
		}
		alloc[imax]--
		alloc[jmin]++
		s.stats.FineTuneMoves++
		if iter == 0 {
			s.donors, s.receivers = s.donors[:0], s.receivers[:0]
			for i := range alloc {
				s.track(i, alloc, caps)
			}
		} else {
			s.track(imax, alloc, caps)
			s.track(jmin, alloc, caps)
		}
	}
}

// track pushes processor i's time onto the donor heap and its increment
// onto the receiver heap when the scans would consider them.
func (s *state) track(i int, alloc Allocation, caps []int64) {
	x := alloc[i]
	if x > 0 {
		if t := s.timeAt(i, x); t >= 0 {
			s.donors.push(tie{key: -t, ord: -i, i: i, x: x})
		}
	}
	if x < caps[i] {
		if t := s.timeAt(i, x+1); t < math.Inf(1) {
			s.receivers.push(tie{key: t, ord: i, i: i, x: x})
		}
	}
}

// tie is a stabilize heap entry: processor i's time (donors, negated) or
// increment (receivers) at allocation x, ordered by key and then by ord,
// the index (donors, negated), so one min-heap order serves both.
type tie struct {
	key    float64
	ord, i int
	x      int64
}

func (a tie) before(b tie) bool { return a.key < b.key || a.key == b.key && a.ord < b.ord }

// tieHeap is a binary min-heap of ties.
type tieHeap []tie

func (h *tieHeap) push(e tie) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0 && q[i].before(q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	*h = q
}

// top pops the entries whose processor moved since they were pushed and
// returns the first current one.
func (h *tieHeap) top(alloc Allocation) (tie, bool) {
	for q := *h; len(q) > 0; q = *h {
		if alloc[q[0].i] == q[0].x {
			return q[0], true
		}
		e, i := q[len(q)-1], 0
		for q = q[:len(q)-1]; 2*i+1 < len(q); {
			j := 2*i + 1
			if j+1 < len(q) && q[j+1].before(q[j]) {
				j++
			}
			if !q[j].before(e) {
				break
			}
			q[i], i = q[j], j
		}
		if len(q) > 0 {
			q[i] = e
		}
		*h = q
	}
	return tie{}, false
}

// timeAt is the execution time of processor i at allocation x. Fine-tuning
// evaluates next to the steep ray's crossings, so their segments are the
// search hints.
func (s *state) timeAt(i int, x int64) float64 {
	if x <= 0 {
		return 0
	}
	sp := s.eval(i, float64(x), s.b.segSteep[i])
	if sp <= 0 {
		return math.Inf(1)
	}
	return float64(x) / sp
}

// shave removes units from the processors with the largest current
// execution time, used only on degenerate inputs.
func (s *state) shave(alloc Allocation, excess int64) {
	for ; excess > 0; excess-- {
		worst, worstTime := -1, math.Inf(-1)
		for i, x := range alloc {
			if x == 0 {
				continue
			}
			if t := s.timeAt(i, x); t > worstTime {
				worst, worstTime = i, t
			}
		}
		if worst < 0 {
			return
		}
		alloc[worst]--
		s.stats.FineTuneMoves++
	}
}

// heapDown is container/heap's sift-down on a min-heap over t, limited
// to the first n elements. It moves the sifted element into its final
// slot once instead of swapping it down level by level; the comparisons,
// and so the resulting order, are container/heap's.
func heapDown(h []unit, i0, n int) {
	i, e := i0, h[i0]
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].t < h[j].t {
			j = j2
		}
		if !(h[j].t < e.t) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = e
}

// heapInit establishes the heap invariant (container/heap's Init).
func heapInit(h []unit) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(h, i, n)
	}
}

// heapFixTop restores the invariant after h[0] changed (container/heap's
// Fix at index 0, where sift-up is a no-op).
func heapFixTop(h []unit) {
	heapDown(h, 0, len(h))
}

// heapPopTop removes the minimum element (container/heap's Pop) and
// returns the shortened slice.
func heapPopTop(h []unit) []unit {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	heapDown(h, 0, n)
	return h[:n]
}

// roundLargestRemainder converts a continuous solution xs (whose sum may
// deviate slightly from n) into an integer allocation summing to n by
// proportional scaling and largest-remainder rounding, respecting domain
// capacities. It is used when fine-tuning is disabled; unlike the default
// path it still allocates (the remainder sort), which is acceptable off
// the hot path.
func (s *state) roundLargestRemainder(xs []float64) Allocation {
	p := len(xs)
	alloc := s.dst
	var sum float64
	for _, x := range xs {
		sum += x
	}
	n := int64(s.n)
	if sum <= 0 {
		// No information in the continuous solution; fall back to even.
		fillEven(alloc, n)
		return alloc
	}
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, p)
	var total int64
	s.caps = grow(s.caps, p)
	caps := s.caps
	for i, x := range xs {
		caps[i] = int64(math.Floor(s.domain(i)))
		t := x * s.n / sum
		fl := int64(math.Floor(t))
		if fl > caps[i] {
			fl = caps[i]
		}
		alloc[i] = fl
		total += fl
		fracs[i] = frac{idx: i, f: t - float64(fl)}
	}
	sort.Slice(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for d := n - total; d > 0; {
		progressed := false
		for _, fr := range fracs {
			if d == 0 {
				break
			}
			if alloc[fr.idx] < caps[fr.idx] {
				alloc[fr.idx]++
				d--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return alloc
}

// fillEven writes the even distribution of n over len(alloc) processors
// into alloc.
func fillEven(alloc Allocation, n int64) {
	p := int64(len(alloc))
	base := n / p
	rem := n % p
	for i := range alloc {
		alloc[i] = base
		if int64(i) < rem {
			alloc[i]++
		}
	}
}

// evenAllocation distributes n as evenly as possible over p processors.
func evenAllocation(n int64, p int) Allocation {
	alloc := make(Allocation, p)
	fillEven(alloc, n)
	return alloc
}
