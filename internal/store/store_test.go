package store

import (
	"os"
	"path/filepath"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// testModel builds a deterministic heterogeneous cluster, mixing function
// representations so the codec's round trip is exercised end to end.
func testModel(p int, seed uint32) []speed.Function {
	fns := make([]speed.Function, p)
	s := seed
	for i := range fns {
		s = s*1664525 + 1013904223
		peak := 1e7 * (1 + float64(s%900)/100)
		s = s*1664525 + 1013904223
		paging := 1e7 * (1 + float64(s%50))
		a := &speed.Analytic{
			Peak: peak, HalfRise: 1e3, CacheEdge: 1e5, CacheDecay: 0.8,
			PagingPoint: paging, PagingWidth: paging / 5, PagingFloor: 0.02,
			Max: 2e9,
		}
		switch i % 3 {
		case 0:
			fns[i] = a
		case 1:
			fns[i] = speed.MustConstant(peak/2, 2e9)
		default:
			pts := make([]speed.Point, 0, 12)
			for x := 1e3; x < a.Max; x *= 8 {
				pts = append(pts, speed.Point{X: x, Y: a.Eval(x)})
			}
			pts = append(pts, speed.Point{X: a.Max, Y: a.Eval(a.Max)})
			fns[i] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))
		}
	}
	return fns
}

// plansFor computes real plans against a model, exactly as the cache's
// insert tap would hand them to the store.
func plansFor(t *testing.T, fp uint64, fns []speed.Function, sizes []int64) []plancache.PlanRecord {
	t.Helper()
	out := make([]plancache.PlanRecord, 0, len(sizes))
	for _, n := range sizes {
		res, err := core.Combined(n, fns)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, plancache.PlanRecord{
			Model: fp, N: n, Algo: core.AlgoCombined, OptsKey: core.OptionsKey(),
			Slope: res.Slope, Alloc: res.Alloc, Stats: res.Stats,
		})
	}
	return out
}

// putFP stores fns under label and returns the model's fingerprint.
func putFP(s *Store, label string, fns []speed.Function) (uint64, error) {
	m := speed.NewModel(fns)
	_, err := s.PutModel(label, m)
	return m.Fingerprint(), err
}

func mustOpen(t *testing.T, dir string, opts ...Options) *Store {
	t.Helper()
	o := Options{Dir: dir}
	if len(opts) > 0 {
		o = opts[0]
		o.Dir = dir
	}
	s, err := Open(o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestOpenEmptyAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if st := s.Stats(); st.Models != 0 || st.Plans != 0 || st.LoadedFromSnapshot {
		t.Fatalf("fresh store not empty: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if st := s2.Stats(); !st.LoadedFromSnapshot || st.Models != 0 {
		t.Fatalf("reopen after empty close: %+v", st)
	}
}

func TestWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(9, 41)
	sizes := []int64{100_000, 250_000, 500_000, 1_000_000}

	s := mustOpen(t, dir)
	fp := speed.Fingerprint(fns)
	old, err := s.PutModel("clusterA", speed.NewModel(fns))
	if err != nil || old != nil {
		t.Fatalf("PutModel: fp=%x replaced=%v err=%v", fp, old, err)
	}
	want := plansFor(t, fp, fns, sizes)
	for _, r := range want {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no snapshot — recovery must come from the WAL alone.

	s2 := mustOpen(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if st.LoadedFromSnapshot {
		t.Fatalf("no snapshot was written, yet one loaded: %+v", st)
	}
	if st.ReplayedModels != 1 || st.ReplayedPlans != len(sizes) || st.QuarantinedRecords != 0 {
		t.Fatalf("replay: %+v", st)
	}
	m, ok := s2.Model(fp)
	if !ok {
		t.Fatalf("model %x lost", fp)
	}
	if got := speed.Fingerprint(m.Fns()); got != fp {
		t.Fatalf("restored model fingerprint %x != %x", got, fp)
	}
	plans := s2.Plans()
	if len(plans) != len(want) {
		t.Fatalf("replayed %d plans, want %d", len(plans), len(want))
	}
	for i, r := range plans {
		w := want[i]
		if r.N != w.N || r.Slope != w.Slope || r.Stats != w.Stats {
			t.Fatalf("plan %d differs: %+v vs %+v", i, r, w)
		}
		for j := range w.Alloc {
			if r.Alloc[j] != w.Alloc[j] {
				t.Fatalf("plan %d share %d: %d != %d", i, j, r.Alloc[j], w.Alloc[j])
			}
		}
	}
}

func TestCloseSnapshotsAndWALResets(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(7, 42)
	s := mustOpen(t, dir)
	fp, err := putFP(s, "m", fns)
	if err != nil {
		t.Fatal(err)
	}
	want := plansFor(t, fp, fns, []int64{300_000, 600_000})
	for _, r := range want {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(walMagic)) {
		t.Fatalf("WAL not reset after Close: %d bytes", info.Size())
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if !st.LoadedFromSnapshot || st.SnapshotQuarantined {
		t.Fatalf("snapshot not loaded cleanly: %+v", st)
	}
	if st.ReplayedModels != 1 || st.ReplayedPlans != len(want) {
		t.Fatalf("snapshot contents: %+v", st)
	}
	plans := s2.Plans()
	for i, r := range plans {
		for j := range want[i].Alloc {
			if r.Alloc[j] != want[i].Alloc[j] {
				t.Fatalf("plan %d share %d differs after snapshot round trip", i, j)
			}
		}
		if r.Slope != want[i].Slope {
			t.Fatalf("plan %d slope differs after snapshot round trip", i)
		}
	}
}

func TestModelRefreshDropsOldPlans(t *testing.T) {
	dir := t.TempDir()
	fns1 := testModel(5, 50)
	fns2 := testModel(5, 51)
	s := mustOpen(t, dir)
	fp1, err := putFP(s, "node", fns1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plansFor(t, fp1, fns1, []int64{200_000}) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	fp2 := speed.Fingerprint(fns2)
	old, err := s.PutModel("node", speed.NewModel(fns2))
	if err != nil || old.Fingerprint() != fp1 {
		t.Fatalf("refresh: replaced %v, want %x; err=%v", old, fp1, err)
	}
	if fp2 == fp1 {
		t.Fatal("distinct models share a fingerprint")
	}
	if _, ok := s.Model(fp1); ok {
		t.Fatal("stale model survived its refresh")
	}
	if got := s.Plans(); len(got) != 0 {
		t.Fatalf("%d stale plans survived the refresh", len(got))
	}
	if m, ok := s.ModelByLabel([]byte("node")); !ok || m.Fingerprint() != fp2 {
		t.Fatalf("label maps to %x, want %x", m.Fingerprint(), fp2)
	}
	s.Sync()

	// The refresh must hold across a crash-restart too.
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if _, ok := s2.Model(fp1); ok {
		t.Fatal("stale model resurrected by replay")
	}
	if got := s2.Plans(); len(got) != 0 {
		t.Fatalf("%d stale plans resurrected by replay", len(got))
	}
	if _, ok := s2.Model(fp2); !ok {
		t.Fatal("refreshed model lost in replay")
	}

	// Re-putting an identical model is a no-op, not a refresh.
	if old, err := s2.PutModel("node", speed.NewModel(fns2)); err != nil || old != nil {
		t.Fatalf("idempotent put: replaced=%v err=%v", old, err)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(6, 60)
	s := mustOpen(t, dir, Options{CompactAt: 512})
	fp, err := putFP(s, "m", fns)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, 40)
	for i := range sizes {
		sizes[i] = int64(100_000 + 10_000*i)
	}
	for _, r := range plansFor(t, fp, fns, sizes) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	waitCompactions(s)
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction despite tiny CompactAt: %+v", st)
	}
	// The trigger is proportional: once the background compactor is idle,
	// the WAL holds at most the larger of CompactAt and the last snapshot,
	// plus the one frame that crossed it.
	frame := int64(planFrameSize(&plansFor(t, fp, fns, sizes[:1])[0]))
	if bound := max(512, fileSize(t, filepath.Join(dir, snapshotFile))) + frame; st.WALBytes > bound {
		t.Fatalf("WAL %d bytes after compaction, bound %d: %+v", st.WALBytes, bound, st)
	}
	if st.Plans != len(sizes) {
		t.Fatalf("plans lost across compaction: %+v", st)
	}
	s.Close()

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if got := len(s2.Plans()); got != len(sizes) {
		t.Fatalf("reopened with %d plans, want %d", got, len(sizes))
	}
}

func TestAppendPlanGuards(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	// Invalid record: refused loudly.
	bad := plancache.PlanRecord{Model: 1, N: 10, Alloc: core.Allocation{4, 7}}
	if err := s.AppendPlan(bad); err == nil {
		t.Fatal("invalid plan accepted")
	}
	// Unknown model: dropped silently (it could never validate on replay).
	ok := plancache.PlanRecord{Model: 1, N: 10, Alloc: core.Allocation{4, 6}, Slope: 1}
	if err := s.AppendPlan(ok); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Plans()); got != 0 {
		t.Fatalf("plan for unknown model stored: %d", got)
	}
}

func TestPlanMirrorBounded(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(3, 80)
	s := mustOpen(t, dir, Options{MaxPlans: 8})
	defer s.Close()
	fp, err := putFP(s, "m", fns)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, 20)
	for i := range sizes {
		sizes[i] = int64(100_000 + 5_000*i)
	}
	for _, r := range plansFor(t, fp, fns, sizes) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	plans := s.Plans()
	if len(plans) != 8 {
		t.Fatalf("mirror holds %d plans, want 8", len(plans))
	}
	// The oldest plans go first: the survivors are the most recent sizes.
	if plans[0].N != sizes[len(sizes)-8] {
		t.Fatalf("wrong eviction order: oldest surviving n=%d", plans[0].N)
	}
}
