package speed

import "testing"

// testModel builds a small heterogeneous model mixing representations,
// so compositionality is exercised across function types.
func testModel(t *testing.T) []Function {
	t.Helper()
	pwl, err := NewPiecewiseLinear([]Point{{X: 1e3, Y: 5e8}, {X: 1e6, Y: 4e8}, {X: 1e9, Y: 1e8}})
	if err != nil {
		t.Fatalf("NewPiecewiseLinear: %v", err)
	}
	st, err := NewStep([]Level{{UpTo: 1e5, Y: 3e8}, {UpTo: 1e8, Y: 2e8}})
	if err != nil {
		t.Fatalf("NewStep: %v", err)
	}
	return []Function{pwl, MustConstant(2.5e8, 2e9), st}
}

func TestFingerprintCompositional(t *testing.T) {
	fns := testModel(t)
	fps := PerProcessor(fns)
	if got, want := Compose(fps), Fingerprint(fns); got != want {
		t.Fatalf("Compose(PerProcessor(fns)) = %#x, Fingerprint(fns) = %#x", got, want)
	}
	for i, f := range fns {
		if fps[i] != FingerprintOne(f) {
			t.Fatalf("PerProcessor[%d] = %#x, FingerprintOne = %#x", i, fps[i], FingerprintOne(f))
		}
	}
}

func TestFingerprintOneProcessorDelta(t *testing.T) {
	fns := testModel(t)
	base := PerProcessor(fns)

	changed := append([]Function(nil), fns...)
	changed[1] = MustConstant(2.6e8, 2e9)
	after := PerProcessor(changed)

	for i := range base {
		same := base[i] == after[i]
		if (i == 1) == same {
			t.Fatalf("processor %d: per-processor fp same=%v, want changed only at index 1", i, same)
		}
	}
	if Fingerprint(fns) == Fingerprint(changed) {
		t.Fatal("composed fingerprint unchanged after one-processor change")
	}

	idx, ok := Diff(fns, changed)
	if !ok || len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("Diff = %v, ok=%v, want [1], true", idx, ok)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	fns := testModel(t)
	if _, ok := Diff(fns, fns[:2]); ok {
		t.Fatal("Diff accepted models of different lengths")
	}
	if idx, ok := Diff(fns, fns); !ok || len(idx) != 0 {
		t.Fatalf("Diff(fns, fns) = %v, %v; want empty, true", idx, ok)
	}
}

func TestFingerprintStability(t *testing.T) {
	// Fresh wrappers around the same parameters must hash identically —
	// the cache keys on values, not object identity.
	fns1 := testModel(t)
	fns2 := testModel(t)
	if Fingerprint(fns1) != Fingerprint(fns2) {
		t.Fatal("rebuilt model hashes differently")
	}
}
