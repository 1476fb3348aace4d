package core

import (
	"errors"
	"fmt"
	"math"
)

// SingleNumber partitions n elements over p processors whose performance
// is described by the classical single-number model: one constant speed
// per processor, measured at some reference problem size. The allocation
// makes each share proportional to the speed and hands out the rounding
// remainder greedily to the processors whose execution time grows least.
//
// This is the distribution every model the paper surveys produces, and the
// baseline the functional model is compared against in Figure 22. The
// implementation uses a heap for the remainder, giving O(p·log₂ p); see
// SingleNumberNaive for the O(p²) textbook version.
func SingleNumber(n int64, speeds []float64) (Allocation, error) {
	if err := checkSingleNumberArgs(n, speeds); err != nil {
		return nil, err
	}
	p := len(speeds)
	var total float64
	for _, s := range speeds {
		total += s
	}
	alloc := make(Allocation, p)
	var assigned int64
	for i, s := range speeds {
		alloc[i] = int64(math.Floor(float64(n) * s / total))
		assigned += alloc[i]
	}
	h := make([]unit, 0, p)
	for i, s := range speeds {
		if s > 0 {
			h = append(h, unit{t: float64(alloc[i]+1) / s, i: i, x: alloc[i] + 1})
		}
	}
	heapInit(h)
	for rem := n - assigned; rem > 0; rem-- {
		i := h[0].i
		alloc[i]++
		h[0].t, h[0].x = float64(alloc[i]+1)/speeds[i], alloc[i]+1
		heapFixTop(h)
	}
	return alloc, nil
}

// SingleNumberNaive is the O(p²) algorithm referenced by the paper from
// Beaumont et al. [6]: after the proportional floor allocation, each
// remaining element goes to the processor that would finish its share
// soonest, found by linear scan.
func SingleNumberNaive(n int64, speeds []float64) (Allocation, error) {
	if err := checkSingleNumberArgs(n, speeds); err != nil {
		return nil, err
	}
	p := len(speeds)
	var total float64
	for _, s := range speeds {
		total += s
	}
	alloc := make(Allocation, p)
	var assigned int64
	for i, s := range speeds {
		alloc[i] = int64(math.Floor(float64(n) * s / total))
		assigned += alloc[i]
	}
	for rem := n - assigned; rem > 0; rem-- {
		best, bestTime := -1, math.Inf(1)
		for i, s := range speeds {
			if s <= 0 {
				continue
			}
			if t := float64(alloc[i]+1) / s; t < bestTime {
				best, bestTime = i, t
			}
		}
		alloc[best]++
	}
	return alloc, nil
}

func checkSingleNumberArgs(n int64, speeds []float64) error {
	if len(speeds) == 0 {
		return ErrNoProcessors
	}
	if n < 0 {
		return fmt.Errorf("%w: %d", ErrBadN, n)
	}
	anyPositive := false
	for i, s := range speeds {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("core: invalid speed %v for processor %d", s, i)
		}
		if s > 0 {
			anyPositive = true
		}
	}
	if !anyPositive && n > 0 {
		return ErrZeroSpeed
	}
	return nil
}

// Even returns the even distribution of n elements over p processors —
// the fallback the paper recommends over a single-number distribution
// taken at a wrong reference point.
func Even(n int64, p int) (Allocation, error) {
	if p <= 0 {
		return nil, ErrNoProcessors
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadN, n)
	}
	return evenAllocation(n, p), nil
}

// ErrBounds reports inconsistent per-processor upper bounds.
var ErrBounds = errors.New("core: upper bounds cannot accommodate the problem")
