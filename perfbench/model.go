package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// point is one knot of a piecewise linear speed function in the clusterio
// wire schema: problem size in elements, speed in elements per second.
type point struct {
	X float64 `json:"size"`
	Y float64 `json:"speed"`
}

// model is one uploaded cluster: a tenant-qualified label and, per
// processor, the knots the daemon interpolates between.
type model struct {
	label string
	procs [][]point
	doc   []byte // clusterio JSON posted to /v1/models
}

// tenants is the tenant count of TestTenantQuotaNoisyNeighbor
// (internal/rpc/fabric_test.go), the repo's two-tenant isolation test.
// Each tenant uploads one model per processor count of the workload.
const tenants = 2

const (
	// maxSize is the last knot of every speed function, so a processor
	// never takes more than this many elements.
	maxSize = 2e9
	// pagingFloor is the share of peak speed left deep in the paging
	// region.
	pagingFloor = 0.02
)

// clusterDoc is the clusterio upload document.
type clusterDoc struct {
	Processors []procDoc `json:"processors"`
}

type procDoc struct {
	Name   string  `json:"name"`
	Points []point `json:"points"`
}

// genModels draws one model per tenant and processor count from rng,
// labelled t<tenant>/p<processors>.
func genModels(rng *rand.Rand, procs []int) []*model {
	var out []*model
	for t := 0; t < tenants; t++ {
		for _, p := range procs {
			md := &model{label: fmt.Sprintf("t%d/p%d", t, p)}
			var doc clusterDoc
			for j := 0; j < p; j++ {
				pts := speedKnots(rng)
				md.procs = append(md.procs, pts)
				doc.Processors = append(doc.Processors, procDoc{Name: "p" + strconv.Itoa(j), Points: pts})
			}
			// Marshalling plain structs of strings and finite floats
			// cannot fail.
			md.doc, _ = json.Marshal(doc)
			out = append(out, md)
		}
	}
	return out
}

// speedKnots draws one processor's speed function in the shape the paper
// measures: flat while the problem fits in memory, then falling as it
// pages. The ranges are those of benchClusterDoc in bench_daemon_test.go:
// peak 1e7..1e8 elements/s, paging point 1e7..5e8 elements, 2% of peak
// left deep in paging, knots eightfold apart from 1e3 up to 2e9. Speeds
// never rise with size, so speed/size strictly decreases — the shape the
// daemon requires.
func speedKnots(rng *rand.Rand) []point {
	peak := 1e7 * (1 + 9*rng.Float64())
	paging := 1e7 * (1 + 49*rng.Float64())
	speed := func(x float64) float64 {
		r := x / paging
		return peak * (pagingFloor + (1-pagingFloor)/(1+r*r))
	}
	var pts []point
	for x := 1e3; x < maxSize/4; x *= 8 {
		pts = append(pts, point{x, speed(x)})
	}
	return append(pts, point{maxSize, speed(maxSize)})
}

// eval interpolates a speed function exactly as the daemon does: flat
// outside the knots, linear between them.
func eval(pts []point, x float64) float64 {
	if x <= pts[0].X {
		return pts[0].Y
	}
	last := len(pts) - 1
	if x >= pts[last].X {
		return pts[last].Y
	}
	i := 1
	for pts[i].X < x {
		i++
	}
	a, b := pts[i-1], pts[i]
	return a.Y + (x-a.X)/(b.X-a.X)*(b.Y-a.Y)
}

// balanceTol is the relative slack of the optimality check. One element
// moves a processor's time by at most a few 1e-6 of the makespan at the
// sizes the workloads ask for; a plan that ignores the speed functions is
// off by percents.
const balanceTol = 1e-4

// checkBalance verifies the paper's optimality condition on an integer
// allocation: it sums to n, and no processor could take one more element
// and still finish before the makespan, so moving work cannot shorten it.
// It also checks the reported ray slope: at the optimum every processor
// finishes at 1/slope.
func checkBalance(m *model, n int64, alloc []int64, slope float64) error {
	if len(alloc) != len(m.procs) {
		return fmt.Errorf("%s n=%d: %d shares for %d processors", m.label, n, len(alloc), len(m.procs))
	}
	var sum int64
	var makespan float64
	for i, x := range alloc {
		if x < 0 || float64(x) > maxSize {
			return fmt.Errorf("%s n=%d: processor %d gets %d elements", m.label, n, i, x)
		}
		sum += x
		if x > 0 {
			makespan = math.Max(makespan, float64(x)/eval(m.procs[i], float64(x)))
		}
	}
	if sum != n {
		return fmt.Errorf("%s n=%d: shares sum to %d", m.label, n, sum)
	}
	for i, x := range alloc {
		if t := float64(x+1) / eval(m.procs[i], float64(x+1)); t < makespan*(1-balanceTol) {
			return fmt.Errorf("%s n=%d: processor %d could take one more element and finish at %.9g, before the makespan %.9g",
				m.label, n, i, t, makespan)
		}
	}
	if math.Abs(slope*makespan-1) > balanceTol {
		return fmt.Errorf("%s n=%d: slope %.9g does not match the makespan %.9g", m.label, n, slope, makespan)
	}
	return nil
}
