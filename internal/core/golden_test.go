package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strings"
	"testing"

	"heteropart/internal/geometry"
	"heteropart/internal/machine"
	"heteropart/internal/speed"
)

// goldenFile pins the partitioners' output across versions: one SHA-256
// per case of its allocation, slope bits and Stats. To regenerate it
// after a deliberate change of plans, delete the file and run
// TestGoldenPlans once; it records the current output and fails, and the
// change that regenerated it must say why.
const goldenFile = "testdata/golden_plans.txt"

// perfbenchCluster draws p piecewise-linear functions in the shape of
// perfbench's cold-mix models: peak 1e7–1e8 elements/s, paging point
// 1e7–5e8 elements, 2 % of peak left deep in paging, knots eightfold
// apart from 1e3, and a last knot at 2e9.
func perfbenchCluster(p int, seed uint32) []speed.Function {
	s := seed
	unit := func() float64 {
		s = s*1664525 + 1013904223
		return float64(s>>8) / (1 << 24)
	}
	fns := make([]speed.Function, p)
	for i := range fns {
		peak := 1e7 * (1 + 9*unit())
		paging := 1e7 * (1 + 49*unit())
		sp := func(x float64) float64 {
			r := x / paging
			return peak * (0.02 + 0.98/(1+r*r))
		}
		var pts []speed.Point
		for x := 1e3; x < 5e8; x *= 8 {
			pts = append(pts, speed.Point{X: x, Y: sp(x)})
		}
		pts = append(pts, speed.Point{X: 2e9, Y: sp(2e9)})
		fns[i] = speed.MustPiecewiseLinear(pts)
	}
	return fns
}

// goldenCluster is one cluster of TestGoldenPlans and the sizes it is
// partitioned at.
type goldenCluster struct {
	name string
	fns  []speed.Function
	ns   []int64
}

func goldenClusters(t *testing.T) []goldenCluster {
	var out []goldenCluster
	for _, p := range []int{270, 540, 810, 1080} {
		out = append(out, goldenCluster{fmt.Sprintf("perfbench p=%d", p), perfbenchCluster(p, uint32(p)),
			[]int64{int64(p) * 500, 1_000_000_000, int64(p) * 1_500_000_000}})
	}
	pwl := func(p int, seed uint32, shape uint8) []speed.Function {
		fast, _ := pwlFunctions(fuzzPWLCluster(p, seed, shape))
		return fast
	}
	table2 := make([]speed.Function, 0, len(machine.Table2()))
	for _, m := range machine.Table2() {
		f, err := m.FlopRate(machine.MatrixMult)
		if err != nil {
			t.Fatal(err)
		}
		table2 = append(table2, f)
	}
	return append(out,
		goldenCluster{"testCluster", testCluster(12, 37), []int64{2_000_000, 3_000_000_000}},
		goldenCluster{"testCluster pwl", pwl(12, 37, 0), []int64{2_000_000, 3_000_000_000}},
		goldenCluster{"identical", pwl(64, 5, shapeIdentical), []int64{1_000_003, 64 * 16_000, 40_000_000_001}},
		goldenCluster{"unequal domains", pwl(24, 7, shapeUnequalDomains), []int64{400_000_000, 4_000_000_000}},
		goldenCluster{"table2 generic", table2, []int64{10_000_000, 500_000_000}},
	)
}

// planDigest hashes a result's allocation, slope bits and Stats.
func planDigest(res Result) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(uint64(len(res.Alloc)))
	for _, x := range res.Alloc {
		put(uint64(x))
	}
	put(math.Float64bits(res.Slope))
	st := res.Stats
	fmt.Fprintf(h, "%s/%d/%d/%d/%t", st.Algorithm, st.Steps, st.Intersections, st.FineTuneMoves, st.UsedModified)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenPlans requires every algorithm, under the tangent, angle and
// regula-falsi rules and with and without fine-tuning, to return the
// allocation, slope bits and Stats recorded in goldenFile.
func TestGoldenPlans(t *testing.T) {
	rules := []struct {
		name string
		rule geometry.BisectionRule
	}{{"tangents", geometry.BisectTangents}, {"angles", geometry.BisectAngles}, {"regula-falsi", geometry.BisectRegulaFalsi}}
	pr := NewPartitioner()
	var got []string
	for _, c := range goldenClusters(t) {
		for _, n := range c.ns {
			for _, algo := range []Algorithm{AlgoBasic, AlgoModified, AlgoCombined} {
				for _, r := range rules {
					for _, fineTune := range []bool{true, false} {
						opts := []Option{WithBisection(r.rule)}
						name := fmt.Sprintf("%s n=%d %v %s", c.name, n, algo, r.name)
						if !fineTune {
							opts = append(opts, WithoutFineTune())
							name += " no-finetune"
						}
						res, err := pr.PartitionInto(make(Allocation, len(c.fns)), algo, n, c.fns, opts...)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got = append(got, name+"\t"+planDigest(res))
					}
				}
			}
		}
	}

	raw, err := os.ReadFile(goldenFile)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d plans into %s; rerun", len(got), goldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d plans, the test computes %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("plan changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
