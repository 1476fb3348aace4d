package store

import (
	"os"
	"path/filepath"
	"testing"

	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// driftTail returns a copy of a piecewise linear function whose tail knot
// speed dropped — the shape of real drift (a co-scheduled job eating the
// big-problem regime) that leaves small allocations bit-identical, so a
// selective refresh keeps some plans and drops others.
func driftTail(t *testing.T, f speed.Function) speed.Function {
	t.Helper()
	pwl, ok := f.(*speed.PiecewiseLinear)
	if !ok {
		t.Fatalf("driftTail wants a piecewise linear function, got %T", f)
	}
	pts := append([]speed.Point(nil), pwl.Points()...)
	pts[len(pts)-1].Y *= 0.5
	pts[len(pts)-2].Y *= 0.7
	g, err := speed.NewPiecewiseLinear(speed.EnforceShape(pts))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDeltaRefreshLiveAndReplay(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(9, 41)
	// Spans both regimes: small sizes keep every processor far below the
	// drifted tail knots, the billion-element ones land inside them.
	sizes := []int64{50_000, 250_000, 1_000_000, 4_000_000, 500_000_000, 2_000_000_000, 8_000_000_000}
	const proc = 2 // a piecewise linear processor in testModel

	s := mustOpen(t, dir, Options{CompactAt: -1})
	fp, err := putFP(s, "clusterA", fns)
	if err != nil {
		t.Fatal(err)
	}
	plans := plansFor(t, fp, fns, sizes)
	for _, r := range plans {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	newFn := driftTail(t, fns[proc])
	oldM, newM, err := s.RefreshProcessor("clusterA", proc, newFn)
	if err != nil {
		t.Fatal(err)
	}
	oldFP, newFP := oldM.Fingerprint(), newM.Fingerprint()
	if oldFP != fp || newFP == fp {
		t.Fatalf("RefreshProcessor fingerprints: old=%x new=%x want old=%x new!=old", oldFP, newFP, fp)
	}

	// The selective rule, applied independently of the store, predicts
	// which plans survive; the drift must exercise both outcomes or the
	// test proves nothing.
	wantSurvive := make(map[int64]bool, len(plans))
	nSurvive := 0
	for _, r := range plans {
		ok := plancache.SurvivesProc(r.Alloc[proc], fns[proc], newFn)
		wantSurvive[r.N] = ok
		if ok {
			nSurvive++
		}
	}
	if nSurvive == 0 || nSurvive == len(plans) {
		t.Fatalf("drift scenario is degenerate: %d/%d plans survive", nSurvive, len(plans))
	}

	checkState := func(st *Store, label string) {
		t.Helper()
		if got, ok := st.ModelByLabel([]byte("clusterA")); !ok || got.Fingerprint() != newFP {
			t.Fatalf("%s: label maps to %x (ok=%v), want %x", label, got.Fingerprint(), ok, newFP)
		}
		if _, ok := st.Model(oldFP); ok {
			t.Fatalf("%s: old model %x still stored", label, oldFP)
		}
		got, ok := st.Model(newFP)
		if !ok {
			t.Fatalf("%s: new model %x missing", label, newFP)
		}
		if speed.Fingerprint(got.Fns()) != newFP {
			t.Fatalf("%s: stored model does not reproduce its fingerprint", label)
		}
		stored := st.Plans()
		if len(stored) != nSurvive {
			t.Fatalf("%s: %d plans stored, want %d survivors", label, len(stored), nSurvive)
		}
		for _, r := range stored {
			if r.Model != newFP {
				t.Fatalf("%s: plan n=%d still keyed under %x", label, r.N, r.Model)
			}
			if !wantSurvive[r.N] {
				t.Fatalf("%s: plan n=%d survived but the rule says it cannot", label, r.N)
			}
		}
	}
	checkState(s, "live")
	if st := s.Stats(); st.Refreshes != 1 {
		t.Fatalf("live Refreshes = %d, want 1", st.Refreshes)
	}
	livePlans := s.Plans()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close — recovery replays the delta record from the WAL.

	s2 := mustOpen(t, dir, Options{CompactAt: -1})
	defer s2.Close()
	checkState(s2, "replayed")
	st := s2.Stats()
	if st.Refreshes != 1 || st.QuarantinedRecords != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	replayed := s2.Plans()
	for i, r := range replayed {
		want := livePlans[i]
		if r.N != want.N || r.Slope != want.Slope {
			t.Fatalf("replayed plan %d: n=%d slope=%v, want n=%d slope=%v", i, r.N, r.Slope, want.N, want.Slope)
		}
		for j := range r.Alloc {
			if r.Alloc[j] != want.Alloc[j] {
				t.Fatalf("replayed plan n=%d differs from live at proc %d: %d vs %d", r.N, j, r.Alloc[j], want.Alloc[j])
			}
		}
	}
}

func TestDeltaRefreshCompactionFolds(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(9, 83)
	sizes := []int64{100_000, 500_000, 2_000_000}
	const proc = 2

	s := mustOpen(t, dir, Options{CompactAt: -1})
	fp, err := putFP(s, "clusterB", fns)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plansFor(t, fp, fns, sizes) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.RefreshProcessor("clusterB", proc, driftTail(t, fns[proc])); err != nil {
		t.Fatal(err)
	}
	wantPlans, wantModels := s.Plans(), s.Models()
	if err := s.Close(); err != nil { // graceful: folds the delta into the snapshot
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{CompactAt: -1})
	defer s2.Close()
	st := s2.Stats()
	if !st.LoadedFromSnapshot || st.WALBytes != 0 || st.Refreshes != 0 {
		t.Fatalf("after fold: %+v (want snapshot load, empty WAL, no delta replayed)", st)
	}
	if got := s2.Models(); len(got) != len(wantModels) || got[0].Fingerprint != wantModels[0].Fingerprint {
		t.Fatalf("models after fold: %+v, want %+v", got, wantModels)
	}
	got := s2.Plans()
	if len(got) != len(wantPlans) {
		t.Fatalf("%d plans after fold, want %d", len(got), len(wantPlans))
	}
	for i, r := range got {
		for j := range r.Alloc {
			if r.Alloc[j] != wantPlans[i].Alloc[j] {
				t.Fatalf("plan n=%d drifted through compaction at proc %d", r.N, j)
			}
		}
	}
}

func TestDeltaRefreshLyingFingerprintQuarantined(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(9, 59)
	sizes := []int64{100_000, 1_000_000}
	const proc = 2

	s := mustOpen(t, dir, Options{CompactAt: -1})
	fp, err := putFP(s, "clusterC", fns)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plansFor(t, fp, fns, sizes) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Forge a delta whose recorded new fingerprint does not match what
	// patching actually produces, append it past the live store's writes,
	// and crash. Replay must refuse to apply it.
	forged := &encoder{}
	if err := forged.delta(fp, fp^0xdeadbeef, proc, driftTail(t, fns[proc])); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(forged.buf); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, Options{CompactAt: -1})
	defer s2.Close()
	st := s2.Stats()
	if st.QuarantinedRecords != 1 || st.Refreshes != 0 {
		t.Fatalf("lying delta: %+v (want 1 quarantined, 0 refreshes)", st)
	}
	if got, ok := s2.ModelByLabel([]byte("clusterC")); !ok || got.Fingerprint() != fp {
		t.Fatalf("label moved to %x (ok=%v) despite quarantined delta", got.Fingerprint(), ok)
	}
	if len(s2.Plans()) != len(sizes) {
		t.Fatalf("%d plans after quarantined delta, want %d untouched", len(s2.Plans()), len(sizes))
	}
}

func TestDeltaRefreshWALBytesSmall(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(64, 7)
	const proc = 2

	s := mustOpen(t, dir, Options{CompactAt: -1})
	defer s.Close()
	before := s.Stats().WALBytes
	if _, err := s.PutModel("big", speed.NewModel(fns)); err != nil {
		t.Fatal(err)
	}
	modelBytes := s.Stats().WALBytes - before
	before = s.Stats().WALBytes
	if _, _, err := s.RefreshProcessor("big", proc, driftTail(t, fns[proc])); err != nil {
		t.Fatal(err)
	}
	deltaBytes := s.Stats().WALBytes - before
	if deltaBytes <= 0 || modelBytes < 10*deltaBytes {
		t.Fatalf("p=64 delta appended %d bytes vs %d for the full model; want ≥10× smaller", deltaBytes, modelBytes)
	}
}

func TestDeltaRefreshNoOp(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(6, 17)
	s := mustOpen(t, dir, Options{CompactAt: -1})
	defer s.Close()
	fp, err := putFP(s, "same", fns)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats().WALBytes
	oldM, newM, err := s.RefreshProcessor("same", 1, fns[1])
	if err != nil {
		t.Fatal(err)
	}
	if oldM.Fingerprint() != fp || newM.Fingerprint() != fp {
		t.Fatalf("no-op refresh moved the fingerprint: %x → %x", oldM.Fingerprint(), newM.Fingerprint())
	}
	if st := s.Stats(); st.WALBytes != before || st.Refreshes != 0 {
		t.Fatalf("no-op refresh logged something: %+v", st)
	}
}
