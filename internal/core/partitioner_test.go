package core

import (
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
