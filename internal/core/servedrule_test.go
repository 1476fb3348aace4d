package core

import (
	"fmt"
	"math"
	"testing"

	"heteropart/internal/geometry"
	"heteropart/internal/machine"
	"heteropart/internal/speed"
)

// servedRule is the slope search the plan cache computes with.
var servedRule = WithBisection(geometry.BisectRegulaFalsi)

// sameAllocation requires the regula-falsi search to return tangent
// bisection's allocation.
func sameAllocation(t *testing.T, name string, tangent, served Result) {
	t.Helper()
	for i := range tangent.Alloc {
		if served.Alloc[i] != tangent.Alloc[i] {
			t.Fatalf("%s: regula-falsi allocation %v, tangent bisection %v", name, served.Alloc, tangent.Alloc)
		}
	}
}

// compareRules runs algo under both rules, requires the same allocation,
// and returns the rays each drew.
func compareRules(t *testing.T, name string, pr *Partitioner, algo Algorithm, n int64, fns []speed.Function) (tangentRays, servedRays int) {
	t.Helper()
	tangent, err := pr.PartitionInto(make(Allocation, len(fns)), algo, n, fns)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	served, err := pr.PartitionInto(make(Allocation, len(fns)), algo, n, fns, servedRule)
	if err != nil {
		t.Fatalf("%s: regula-falsi: %v", name, err)
	}
	sameAllocation(t, name, tangent, served)
	return tangent.Stats.Steps, served.Stats.Steps
}

// expCurve is the ablation's exponential-slope family, on which the basic
// algorithm needs the most rays.
type expCurve struct{ peak, scale, max float64 }

func (e expCurve) Eval(x float64) float64 { return e.peak * math.Exp(-max(x, 0)/e.scale) }
func (e expCurve) MaxSize() float64       { return e.max }

// TestServedRuleAllocations compares the plan cache's regula-falsi search
// with the paper's tangent bisection on 6,000 random piecewise-linear
// clusters (p = 2 … 1080 log-uniform, the four fuzzPWLCluster shapes,
// basic and combined), each also behind opaquePWL on the generic path, on
// the core fuzzers' seeds and on the ablation's curve families. The
// allocations must be equal, each case may draw at most two rays more, and
// in sum the random cases must draw at most half the rays.
func TestServedRuleAllocations(t *testing.T) {
	pr := NewPartitioner()
	check := func(name string, algo Algorithm, n int64, fns []speed.Function) (int, int) {
		t.Helper()
		tr, sr := compareRules(t, name, pr, algo, n, fns)
		if sr > tr+2 {
			t.Fatalf("%s %v n=%d: regula-falsi drew %d rays, tangent bisection %d", name, algo, n, sr, tr)
		}
		return tr, sr
	}
	algos := []Algorithm{AlgoBasic, AlgoCombined}

	const cases = 6000
	s := uint32(20_041)
	next := func() uint32 {
		s = s*1664525 + 1013904223
		return s
	}
	var tangentRays, servedRays int
	for c := 0; c < cases; c++ {
		shape := uint8(c % 4)
		p := int(math.Round(2 * math.Pow(540, float64(next()%4096)/4095)))
		pwl := fuzzPWLCluster(p, next(), shape)
		fast, generic := pwlFunctions(pwl)
		var capacity uint64
		for _, f := range pwl {
			capacity += uint64(f.MaxSize())
		}
		n := int64((uint64(next())<<32 | uint64(next())) % (capacity + 1))
		for _, algo := range algos {
			tr, sr := check("random", algo, n, fast)
			tangentRays += tr
			servedRays += sr
			check("random opaque", algo, n, generic)
		}
	}
	t.Logf("%d cases: tangent bisection drew %d rays, regula-falsi %d (%.2fx)",
		cases, tangentRays, servedRays, float64(servedRays)/float64(tangentRays))
	if 2*servedRays > tangentRays {
		t.Fatalf("regula-falsi drew %d rays, more than half of tangent bisection's %d", servedRays, tangentRays)
	}

	for _, c := range pwlFuzzSeeds {
		n, fast, generic := pwlFuzzCase(c.seed, c.nSeed, c.pSeed, c.shape)
		for _, algo := range algos {
			check(fmt.Sprintf("pwl seed %+v", c), algo, n, fast)
			check(fmt.Sprintf("pwl seed %+v opaque", c), algo, n, generic)
		}
	}
	for _, c := range exactFuzzSeeds {
		n, fns := exactFuzzCase(c.seed, c.nSeed, c.pSeed)
		for _, algo := range algos {
			check(fmt.Sprintf("exact seed %+v", c), algo, n, fns)
		}
	}
	for _, c := range fineTuneFuzzSeeds {
		n, fns := fineTuneFuzzCase(c.nSeed, c.s1, c.s2, c.s3)
		for _, algo := range algos {
			check(fmt.Sprintf("fine-tune seed %+v", c), algo, n, fns)
		}
	}

	table2 := make([]speed.Function, 0, len(machine.Table2()))
	for _, m := range machine.Table2() {
		f, err := m.FlopRate(machine.MatrixMult)
		if err != nil {
			t.Fatal(err)
		}
		table2 = append(table2, f)
	}
	families := []struct {
		name string
		fns  []speed.Function
		ns   []int64
	}{
		{"analytic (Table 2, MM)", table2, []int64{10_000_000, 300_000_000, 500_000_000, 1_000_000_000}},
		{"constant", []speed.Function{
			speed.MustConstant(1e8, 1e12), speed.MustConstant(3e8, 1e12),
			speed.MustConstant(5e7, 1e12), speed.MustConstant(4e8, 1e12),
		}, []int64{1_000_000}},
		{"exponential slope", []speed.Function{
			expCurve{peak: 1e6, scale: 400, max: 1e5},
			expCurve{peak: 3e6, scale: 300, max: 1e5},
			expCurve{peak: 2e6, scale: 500, max: 1e5},
		}, []int64{5000}},
	}
	for _, f := range families {
		for _, n := range f.ns {
			for _, algo := range algos {
				tr, sr := check(f.name, algo, n, f.fns)
				t.Logf("%s n=%d %v: %d rays tangent, %d regula-falsi", f.name, n, algo, tr, sr)
			}
		}
	}
}
