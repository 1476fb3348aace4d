package core

import (
	"math"
	"testing"

	"heteropart/internal/speed"
)

// testPWLCluster builds piecewise-linear speed functions by sampling the
// analytic test cluster and repairing the shape constraint, exercising the
// analytic IntersectRay fast path.
func testPWLCluster(p int, seed uint32) []speed.Function {
	analytic := testCluster(p, seed)
	fns := make([]speed.Function, p)
	for i, f := range analytic {
		pts := make([]speed.Point, 0, 12)
		x := 1e3
		for x < f.MaxSize() {
			pts = append(pts, speed.Point{X: x, Y: f.Eval(x)})
			x *= 8
		}
		pts = append(pts, speed.Point{X: f.MaxSize(), Y: f.Eval(f.MaxSize())})
		fns[i] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))
	}
	return fns
}

func TestPartitionerMatchesFreeFunctions(t *testing.T) {
	for _, p := range []int{2, 7, 33} {
		for _, mk := range []func(int, uint32) []speed.Function{testCluster, testPWLCluster} {
			fns := mk(p, uint32(p))
			n := int64(1_000_000 * p)
			for algo, free := range map[Algorithm]func(int64, []speed.Function, ...Option) (Result, error){
				AlgoBasic:    Basic,
				AlgoModified: Modified,
				AlgoCombined: Combined,
			} {
				want, err := free(n, fns)
				if err != nil {
					t.Fatalf("%v free: %v", algo, err)
				}
				pr := NewPartitioner()
				dst := make(Allocation, p)
				got, err := pr.PartitionInto(dst, algo, n, fns)
				if err != nil {
					t.Fatalf("%v PartitionInto: %v", algo, err)
				}
				if &got.Alloc[0] != &dst[0] {
					t.Fatalf("%v: result does not alias dst", algo)
				}
				for i := range want.Alloc {
					if want.Alloc[i] != got.Alloc[i] {
						t.Fatalf("%v p=%d proc %d: free=%d partitioner=%d", algo, p, i, want.Alloc[i], got.Alloc[i])
					}
				}
				if want.Slope != got.Slope || want.Stats != got.Stats {
					t.Fatalf("%v p=%d: stats diverge: %+v vs %+v", algo, p, want.Stats, got.Stats)
				}
			}
		}
	}
}

func TestPartitionerReuseIsDeterministic(t *testing.T) {
	pr := NewPartitioner()
	fns := testPWLCluster(16, 7)
	dst := make(Allocation, 16)
	first, err := pr.PartitionInto(dst, AlgoCombined, 5_000_000, fns)
	if err != nil {
		t.Fatal(err)
	}
	ref := append(Allocation(nil), first.Alloc...)
	// Interleave different shapes and sizes to dirty the scratch buffers.
	small := testCluster(3, 3)
	smallDst := make(Allocation, 3)
	for i := 0; i < 5; i++ {
		if _, err := pr.PartitionInto(smallDst, AlgoBasic, 12345, small); err != nil {
			t.Fatal(err)
		}
		got, err := pr.PartitionInto(dst, AlgoCombined, 5_000_000, fns)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref {
			if got.Alloc[j] != ref[j] {
				t.Fatalf("iteration %d proc %d: %d != %d", i, j, got.Alloc[j], ref[j])
			}
		}
	}
}

func TestPartitionerZeroAllocWarm(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int, uint32) []speed.Function
	}{
		{"pwl", testPWLCluster},
		{"analytic", testCluster},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fns := tc.mk(24, 11)
			pr := NewPartitioner()
			dst := make(Allocation, 24)
			// Warm up buffers.
			if _, err := pr.PartitionInto(dst, AlgoCombined, 3_000_000, fns); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := pr.PartitionInto(dst, AlgoCombined, 3_000_000, fns); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm PartitionInto allocates %v allocs/op, want 0", allocs)
			}
		})
	}
}

func TestPartitionerValidation(t *testing.T) {
	fns := testCluster(4, 1)
	pr := NewPartitioner()
	if _, err := pr.PartitionInto(make(Allocation, 3), AlgoCombined, 100, fns); err == nil {
		t.Fatal("expected destination-length error")
	}
	if _, err := pr.PartitionInto(make(Allocation, 4), Algorithm(99), 100, fns); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
	if _, err := pr.PartitionInto(nil, AlgoCombined, 100, nil); err != ErrNoProcessors {
		t.Fatalf("expected ErrNoProcessors, got %v", err)
	}
}

func TestRepartitionWithMatchesRepartition(t *testing.T) {
	fns := testPWLCluster(12, 9)
	n := int64(2_000_000)
	old, err := Even(n, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, wantMoved, err := Repartition(old, fns, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Combined(n, fns)
	if err != nil {
		t.Fatal(err)
	}
	got, gotMoved, err := RepartitionWith(old, fns, 0.05, opt)
	if err != nil {
		t.Fatal(err)
	}
	if gotMoved != wantMoved {
		t.Fatalf("moved %d, want %d", gotMoved, wantMoved)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("proc %d: %d != %d", i, got[i], want[i])
		}
	}
	// A mismatched optimum is rejected.
	bad := opt
	bad.Alloc = append(Allocation(nil), opt.Alloc...)
	bad.Alloc[0]++
	if _, _, err := RepartitionWith(old, fns, 0.05, bad); err == nil {
		t.Fatal("expected sum-mismatch error")
	}
}

// scanStabilize is stabilize as two scans per move, the reference its
// heaps must reproduce move for move.
func scanStabilize(s *state, alloc Allocation, caps []int64) {
	for iter := 0; iter < len(alloc)*64; iter++ {
		imax, tmax := -1, 0.0
		for i, x := range alloc {
			if x <= 0 {
				continue
			}
			if t := s.timeAt(i, x); t >= tmax {
				imax, tmax = i, t
			}
		}
		if imax < 0 {
			return
		}
		jmin, tmin := -1, math.Inf(1)
		for j := range alloc {
			if alloc[j] >= caps[j] {
				continue
			}
			if t := s.timeAt(j, alloc[j]+1); t < tmin {
				jmin, tmin = j, t
			}
		}
		if jmin < 0 || !(tmin < tmax) && !(tmin == tmax && jmin < imax) {
			return
		}
		alloc[imax]--
		alloc[jmin]++
		s.stats.FineTuneMoves++
	}
}

// TestStabilizeHeapsMatchScans starts stabilize from scrambled
// allocations of tied and untied clusters (identical machines, machines
// in two speed classes, piecewise-linear and constant functions, caps
// that bind) and requires the allocation and move count the two-scan
// reference reaches.
func TestStabilizeHeapsMatchScans(t *testing.T) {
	s := uint32(99)
	next := func(m int) int {
		s = s*1664525 + 1013904223
		return int(s>>8) % m
	}
	clusters := map[string][]speed.Function{
		"identical pwl": testPWLCluster(1, 3),
		"constants":     constants([]float64{3e7, 3e7, 6e7, 3e7, 6e7, 1.5e7}, 5e6),
	}
	ident := make([]speed.Function, 120)
	for i := range ident {
		ident[i] = clusters["identical pwl"][0]
	}
	clusters["identical pwl"] = ident
	clusters["random pwl"] = testPWLCluster(80, 11)
	for name, fns := range clusters {
		p := len(fns)
		for trial := 0; trial < 6; trial++ {
			pr := NewPartitioner()
			st := &pr.st
			n := int64(p*(1+next(4_000_000)) + next(p))
			if err := st.reset(make(Allocation, p), n, fns, st.pack(fns), "x", nil); err != nil {
				t.Fatal(err)
			}
			caps := make([]int64, p)
			alloc := make(Allocation, p)
			for i := range alloc {
				caps[i] = int64(math.Floor(fns[i].MaxSize()))
				alloc[i] = min(n/int64(p), caps[i])
			}
			for left := n - alloc.Sum(); left > 0; {
				if i := next(p); alloc[i] < caps[i] {
					alloc[i]++
					left--
				}
			}
			for k := 0; k < p/4; k++ {
				if i, j := next(p), next(p); alloc[i] > 0 && alloc[j] < caps[j] {
					alloc[i]--
					alloc[j]++
				}
			}
			want := append(Allocation(nil), alloc...)
			scanStabilize(st, want, caps)
			wantMoves := st.stats.FineTuneMoves
			st.stats.FineTuneMoves = 0
			st.stabilize(alloc, caps)
			if wantMoves < 2 {
				t.Fatalf("%s trial %d: %d moves, too few to leave the first scan", name, trial, wantMoves)
			}
			if st.stats.FineTuneMoves != wantMoves {
				t.Fatalf("%s trial %d: %d moves, scans %d", name, trial, st.stats.FineTuneMoves, wantMoves)
			}
			for i := range want {
				if alloc[i] != want[i] {
					t.Fatalf("%s trial %d proc %d: %d, scans %d", name, trial, i, alloc[i], want[i])
				}
			}
		}
	}
}
