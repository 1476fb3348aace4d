package core

import (
	"math"
	"sort"
)

// fineTune converts the non-integer geometric optimum into an integer
// allocation summing exactly to n. It starts from the floor of the
// under-allocating (steep-ray) intersections and hands out the remaining
// units one by one, each time to the processor whose execution time grows
// the least — the O(p·log₂ p) counterpart of the paper's "sort the 2p
// candidate execution times and keep the p best" (see DESIGN.md for why
// this reading is used).
//
// The allocation is written into the caller's destination buffer and the
// heap lives in the state's scratch slice, so a warm run allocates
// nothing. The heap helpers below replicate container/heap's algorithm
// operation for operation, so element movement — and therefore tie-breaking
// among equal times — is identical to the previous implementation.
func (s *state) fineTune(xSteep []float64) Allocation {
	p := len(s.fns)
	alloc := s.dst
	s.caps = grow(s.caps, p)
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
	deficit := int64(s.n) - total
	if deficit <= 0 {
		// Flooring an under-allocation cannot overshoot, but guard against
		// callers with degenerate inputs: shave from the slowest.
		s.shave(alloc, -deficit)
		s.stabilize(alloc, caps)
		return alloc
	}
	if cap(s.heap) < p {
		s.heap = make([]incrementCandidate, 0, p)
	}
	h := s.heap[:0]
	for i := range s.fns {
		if alloc[i] < caps[i] {
			h = append(h, incrementCandidate{idx: i, time: s.timeAt(i, alloc[i]+1)})
		}
	}
	heapInit(h)
	for deficit > 0 && len(h) > 0 {
		i := h[0].idx
		alloc[i]++
		deficit--
		s.stats.FineTuneMoves++
		if alloc[i] < caps[i] {
			h[0].time = s.timeAt(i, alloc[i]+1)
			heapFixTop(h)
		} else {
			h = heapPopTop(h)
		}
	}
	s.heap = h[:0]
	s.stabilize(alloc, caps)
	return alloc
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

type incrementCandidate struct {
	idx  int
	time float64
}

// heapDown is container/heap's sift-down on a min-heap over time, limited
// to the first n elements. It moves the sifted element into its final
// slot once instead of swapping it down level by level; the comparisons,
// and so the resulting order, are container/heap's.
func heapDown(h []incrementCandidate, i0, n int) {
	i, e := i0, h[i0]
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].time < h[j].time {
			j = j2
		}
		if !(h[j].time < e.time) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = e
}

// heapInit establishes the heap invariant (container/heap's Init).
func heapInit(h []incrementCandidate) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(h, i, n)
	}
}

// heapFixTop restores the invariant after h[0] changed (container/heap's
// Fix at index 0, where sift-up is a no-op).
func heapFixTop(h []incrementCandidate) {
	heapDown(h, 0, len(h))
}

// heapPopTop removes the minimum element (container/heap's Pop) and
// returns the shortened slice.
func heapPopTop(h []incrementCandidate) []incrementCandidate {
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
