package store

import (
	"testing"

	"heteropart/internal/speed"
)

// TestTenancyLabelNamespaces checks the live write path: bare labels fold
// into the default tenant, qualified labels are distinct models,
// RefreshProcessor follows either spelling, and both spellings still
// resolve after Close→Open.
func TestTenancyLabelNamespaces(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	fnsA := testModel(4, 3)
	fnsB := testModel(4, 9)
	fpA, err := putFP(s, "m", fnsA)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := putFP(s, "acme/m", fnsB)
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Fatal("test models collide")
	}
	if got, _ := s.ModelByLabel([]byte("default/m")); got.Fingerprint() != fpA {
		t.Fatalf("default/m -> %x, want %x", got.Fingerprint(), fpA)
	}
	if got, _ := s.ModelByLabel([]byte("acme/m")); got.Fingerprint() != fpB {
		t.Fatalf("acme/m -> %x, want %x", got.Fingerprint(), fpB)
	}
	// Re-uploading under the qualified spelling replaces the bare one.
	if old, err := s.PutModel("default/m", speed.NewModel(testModel(4, 5))); err != nil || old == nil {
		t.Fatalf("qualified re-upload: replaced=%v err=%v", old, err)
	}
	// Refresh through the bare spelling.
	if _, _, err := s.RefreshProcessor("m", 2, driftTail(t, testModel(4, 5)[2])); err != nil {
		t.Fatalf("refresh via bare label: %v", err)
	}
	for _, mi := range s.Models() {
		if mi.Label != "default/m" && mi.Label != "acme/m" {
			t.Fatalf("non-canonical stored label %q", mi.Label)
		}
	}
	mM, _ := s.ModelByLabel([]byte("m"))
	fpM := mM.Fingerprint()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	for label, want := range map[string]uint64{"m": fpM, "default/m": fpM, "acme/m": fpB} {
		if got, ok := s2.ModelByLabel([]byte(label)); !ok || got.Fingerprint() != want {
			t.Fatalf("%s after reopen -> %x (ok=%v), want %x", label, got.Fingerprint(), ok, want)
		}
	}
}

// TestSharedModelNamesNeverDangle drives labels that share one model (the
// catalog keys models by fingerprint, so identical uploads under two labels
// are one entry) through a refresh that lands on a model a third label
// already holds, a replacing upload, and a reopen: every name that resolves
// must name a stored model, and every stored model's label must resolve to
// it.
func TestSharedModelNamesNeverDangle(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	names := []string{"a", "default/a", "acme/b", "acme/x"}
	check := func(s *Store, step string) {
		t.Helper()
		for _, name := range names {
			if m, ok := s.ModelByLabel([]byte(name)); ok {
				if _, held := s.Model(m.Fingerprint()); !held {
					t.Fatalf("%s: %q resolves to %x, which the store does not hold", step, name, m.Fingerprint())
				}
			}
		}
		for _, info := range s.Models() {
			if m, ok := s.ModelByLabel([]byte(info.Label)); !ok || m.Fingerprint() != info.Fingerprint {
				t.Fatalf("%s: stored model %x's label %q does not resolve to it", step, info.Fingerprint, info.Label)
			}
		}
	}
	put := func(label string, m *speed.Model) {
		t.Helper()
		if _, err := s.PutModel(label, m); err != nil {
			t.Fatal(err)
		}
	}
	m1 := speed.NewModel(testModel(3, 40))
	put("a", m1)
	put("acme/b", m1)
	f := speed.MustConstant(5e6, 2e9)
	mX := m1.WithProc(1, f)
	put("acme/x", mX)
	check(s, "three labels, two models")

	_, refreshed, err := s.RefreshProcessor("acme/b", 1, f)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Fingerprint() != mX.Fingerprint() || len(s.Models()) != 1 {
		t.Fatalf("refresh onto acme/x's model: %x, %d models stored; want %x, 1", refreshed.Fingerprint(), len(s.Models()), mX.Fingerprint())
	}
	check(s, "refresh onto a held model")

	put("a", speed.NewModel(testModel(3, 41)))
	check(s, "replacing upload")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	check(s, "reopen")
}
