package speed

import (
	"sync/atomic"
	"testing"
)

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
	m := NewModel(fns)
	if got, want := m.Fingerprint(), Fingerprint(fns); got != want {
		t.Fatalf("NewModel(fns).Fingerprint() = %#x, Fingerprint(fns) = %#x", got, want)
	}
	if got, want := compose(m.fps), Fingerprint(fns); got != want {
		t.Fatalf("compose(per-processor) = %#x, Fingerprint(fns) = %#x", got, want)
	}
	for i, f := range fns {
		if got, want := NewModel([]Function{f}).Fingerprint(), Fingerprint(fns[i:i+1]); got != want {
			t.Fatalf("one-processor model %d: %#x, want %#x", i, got, want)
		}
	}
}

// TestFingerprintGolden pins the fingerprint bits the store's files, the
// replication stream and every recorded response carry: a change to the
// fold or to a function's hashed parameters fails here first.
func TestFingerprintGolden(t *testing.T) {
	fns := testModel(t)
	const composed uint64 = 0x84b1459404e632c2
	perProc := []uint64{0x592d26ba999d2579, 0x93600f3424b121a7, 0x4cd5f76c92755bd1}
	if got := Fingerprint(fns); got != composed {
		t.Fatalf("Fingerprint = %#x, want %#x", got, composed)
	}
	m := NewModel(fns)
	if got := m.Fingerprint(); got != composed {
		t.Fatalf("NewModel.Fingerprint = %#x, want %#x", got, composed)
	}
	for i, want := range perProc {
		if m.fps[i] != want {
			t.Fatalf("processor %d fingerprint = %#x, want %#x", i, m.fps[i], want)
		}
	}
	if got := compose(perProc); got != composed {
		t.Fatalf("compose(golden per-processor) = %#x, want %#x", got, composed)
	}

	// WithProc agrees with the reference fold over the patched slice.
	repl := MustConstant(2.6e8, 2e9)
	patched := append([]Function(nil), fns...)
	patched[1] = repl
	if got, want := m.WithProc(1, repl).Fingerprint(), Fingerprint(patched); got != want {
		t.Fatalf("WithProc(1).Fingerprint = %#x, Fingerprint(patched) = %#x", got, want)
	}
	if m.Fingerprint() != composed || m.Fns()[1] != fns[1] {
		t.Fatal("WithProc modified the model it was derived from")
	}
}

func TestWithProcOneProcessorDelta(t *testing.T) {
	fns := testModel(t)
	base := NewModel(fns)
	changed := base.WithProc(1, MustConstant(2.6e8, 2e9))

	for i := range base.fps {
		same := base.fps[i] == changed.fps[i]
		if (i == 1) == same {
			t.Fatalf("processor %d: per-processor fp same=%v, want changed only at index 1", i, same)
		}
	}
	if base.Fingerprint() == changed.Fingerprint() {
		t.Fatal("composed fingerprint unchanged after one-processor change")
	}

	idx, ok := Diff(base, changed)
	if !ok || len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("Diff = %v, ok=%v, want [1], true", idx, ok)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	fns := testModel(t)
	m := NewModel(fns)
	if _, ok := Diff(m, NewModel(fns[:2])); ok {
		t.Fatal("Diff accepted models of different lengths")
	}
	if idx, ok := Diff(m, m); !ok || len(idx) != 0 {
		t.Fatalf("Diff(m, m) = %v, %v; want empty, true", idx, ok)
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
	if NewModel(fns1).Fingerprint() != NewModel(fns2).Fingerprint() {
		t.Fatal("rebuilt handle hashes differently")
	}
}

func TestModelOwnsItsFunctions(t *testing.T) {
	fns := testModel(t)
	m := NewModel(fns)
	fns[0] = MustConstant(1, 1)
	if m.Fingerprint() != Fingerprint(m.Fns()) || m.Fns()[0] == fns[0] {
		t.Fatal("NewModel shares the caller's slice")
	}
}

func TestNilModelIsEmpty(t *testing.T) {
	var m *Model
	if m.Fns() != nil || m.Fingerprint() != 0 {
		t.Fatalf("nil model: Fns=%v Fingerprint=%#x", m.Fns(), m.Fingerprint())
	}
	if _, ok := Diff(m, NewModel(nil)); !ok {
		t.Fatal("Diff(nil, empty) reported a length change")
	}
}

// countingFn is a speed function of a type the fingerprint does not know,
// so hashing it falls back to Eval probes; calls counts them.
type countingFn struct {
	calls *atomic.Int64
}

func (f countingFn) Eval(x float64) float64 { f.calls.Add(1); return 1e8 }
func (f countingFn) MaxSize() float64       { return 1e9 }

func TestWithProcHashesOneFunction(t *testing.T) {
	var a, b atomic.Int64
	m := NewModel([]Function{countingFn{&a}, countingFn{&a}, countingFn{&a}})
	if a.Load() == 0 {
		t.Fatal("fallback fingerprint did not probe Eval")
	}
	a.Store(0)
	m2 := m.WithProc(2, countingFn{&b})
	if a.Load() != 0 || b.Load() != fingerprintProbes {
		t.Fatalf("WithProc probed %d unchanged and %d new Evals, want 0 and %d", a.Load(), b.Load(), fingerprintProbes)
	}
	if m2.Fingerprint() != m.Fingerprint() {
		t.Fatal("equal fallback functions fingerprint differently")
	}
}
