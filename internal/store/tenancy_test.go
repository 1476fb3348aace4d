package store

import "testing"

// TestTenancyLabelNamespaces checks the live write path: bare labels fold
// into the default tenant, qualified labels are distinct models,
// RefreshProcessor follows either spelling, and both spellings still
// resolve after Close→Open.
func TestTenancyLabelNamespaces(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)

	fnsA := testModel(4, 3)
	fnsB := testModel(4, 9)
	fpA, _, err := s.PutModel("m", fnsA)
	if err != nil {
		t.Fatal(err)
	}
	fpB, _, err := s.PutModel("acme/m", fnsB)
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Fatal("test models collide")
	}
	if got, _ := s.ModelByLabel("default/m"); got != fpA {
		t.Fatalf("default/m -> %x, want %x", got, fpA)
	}
	if got, _ := s.ModelByLabel("acme/m"); got != fpB {
		t.Fatalf("acme/m -> %x, want %x", got, fpB)
	}
	// Re-uploading under the qualified spelling replaces the bare one.
	if _, replaced, err := s.PutModel("default/m", testModel(4, 5)); err != nil || !replaced {
		t.Fatalf("qualified re-upload: replaced=%v err=%v", replaced, err)
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
	fpM, _ := s.ModelByLabel("m")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	for label, want := range map[string]uint64{"m": fpM, "default/m": fpM, "acme/m": fpB} {
		if got, ok := s2.ModelByLabel(label); !ok || got != want {
			t.Fatalf("%s after reopen -> %x (ok=%v), want %x", label, got, ok, want)
		}
	}
}
