package core

import (
	"fmt"
	"math"

	"heteropart/internal/speed"
)

// Exact computes a provably optimal integer allocation by parametric
// search on the makespan rather than on the geometric ray. It serves as
// the verification oracle for the paper's algorithms (they must match it
// to within integer granularity) and as an alternative solver with a
// complexity of O(p·log(n)·log(T-range)).
//
// The idea: under the shape assumption the execution time t_i(x) =
// x/s_i(x) is strictly increasing in x, so for a candidate makespan T
// each processor has a maximum feasible load cap_i(T) (found by integer
// bisection), caps are non-decreasing in T, and the smallest T with
// Σ cap_i(T) ≥ n is optimal. The returned allocation assigns each
// processor at most its cap at that T; surplus capacity is trimmed from
// the processors with the largest time first.
func Exact(n int64, fns []speed.Function, opts ...Option) (Result, error) {
	st := new(state)
	if err := st.reset(make(Allocation, len(fns)), n, fns, st.pack(fns), "exact", opts); err != nil {
		return Result{}, err
	}
	if res, done := st.trivial(); done {
		return res, nil
	}
	p := len(fns)
	caps := make([]int64, p)
	maxLoad := make([]int64, p)
	for i, f := range fns {
		maxLoad[i] = int64(math.Floor(f.MaxSize()))
	}
	// capAt fills caps for makespan T and returns their sum (saturating).
	capAt := func(t float64) int64 {
		var sum int64
		for i := range fns {
			caps[i] = maxLoadWithin(st, i, maxLoad[i], t)
			sum += caps[i]
		}
		return sum
	}
	// Bracket T upward from the even distribution's makespan (or, when
	// that is infinite because the even share exceeds some domain, from
	// the worst full-capacity time), doubling until the caps fit n.
	hiT := Makespan(evenAllocation(n, p), fns)
	if math.IsInf(hiT, 1) || !(hiT > 0) {
		hiT = 0
		for i := range fns {
			hiT = math.Max(hiT, st.timeAt(i, min(n, maxLoad[i])))
		}
		if !(hiT > 0) {
			hiT = 1
		}
	}
	for capAt(hiT) < n {
		hiT *= 2
		if math.IsInf(hiT, 1) {
			return Result{}, fmt.Errorf("%w: no finite makespan fits n=%d", ErrInfeasible, n)
		}
	}
	loT := 0.0
	for iter := 0; iter < 128 && hiT-loT > 1e-15*hiT; iter++ {
		mid := 0.5 * (loT + hiT)
		st.stats.Steps++
		if capAt(mid) >= n {
			hiT = mid
		} else {
			loT = mid
		}
	}
	if capAt(hiT) < n {
		return Result{}, fmt.Errorf("%w: n=%d", ErrInfeasible, n)
	}
	// Assign caps, then trim the surplus from the largest-time loads.
	alloc := make(Allocation, p)
	copy(alloc, caps)
	surplus := alloc.Sum() - n
	for surplus > 0 {
		worst, worstTime := -1, -1.0
		for i, x := range alloc {
			if x == 0 {
				continue
			}
			if tm := st.timeAt(i, x); tm > worstTime {
				worst, worstTime = i, tm
			}
		}
		if worst < 0 {
			break
		}
		// Drop the worst processor to the next-largest time bucket or by
		// the remaining surplus, whichever is smaller.
		step := surplus
		if step > alloc[worst]/8+1 {
			step = alloc[worst]/8 + 1
		}
		alloc[worst] -= step
		surplus -= step
		st.stats.FineTuneMoves++
	}
	return Result{Alloc: alloc, Stats: st.stats}, nil
}

// maxLoadWithin finds the largest integer load ≤ bound whose execution
// time on processor i is at most t, by integer bisection (t_i is
// increasing in the load).
func maxLoadWithin(st *state, i int, bound int64, t float64) int64 {
	if bound <= 0 || st.timeAt(i, 1) > t {
		return 0
	}
	if st.timeAt(i, bound) <= t {
		return bound
	}
	x, probes := st.lastWithin(i, 1, bound, t)
	st.stats.Intersections += probes
	return x
}

// lastWithin bisects for the largest load in [lo, hi) whose execution
// time on processor i is at most t, and counts the loads it probes. It
// probes only loads strictly between lo and hi: lo's time is at most t,
// or lo is where the count starts, and hi's is above t, or hi lies past
// the loads counted.
func (st *state) lastWithin(i int, lo, hi int64, t float64) (int64, int) {
	probes := 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		probes++
		if st.timeAt(i, mid) <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}
