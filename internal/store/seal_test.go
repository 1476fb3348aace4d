package store

import (
	"errors"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// TestSealFencesMutators: a sealed store refuses every mutator with
// ErrSealed, its replication position is frozen at what Seal returned, and
// Unseal restores normal service.
func TestSealFencesMutators(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	fns := testModel(3, 1)
	fp, err := putFP(s, "m", fns)
	if err != nil {
		t.Fatal(err)
	}

	sealed := s.Seal()
	if got := s.ReplicationPos(); got != sealed {
		t.Fatalf("position moved after Seal: %+v != %+v", got, sealed)
	}
	if !s.Stats().Sealed {
		t.Fatal("Stats.Sealed = false after Seal")
	}

	if _, err := s.PutModel("m2", speed.NewModel(testModel(2, 2))); !errors.Is(err, ErrSealed) {
		t.Errorf("PutModel under seal: %v, want ErrSealed", err)
	}
	if _, _, err := s.RefreshProcessor("m", 0, testModel(1, 9)[0]); !errors.Is(err, ErrSealed) {
		t.Errorf("RefreshProcessor under seal: %v, want ErrSealed", err)
	}
	plan := plancache.PlanRecord{Model: fp, N: 64, Alloc: core.Allocation{22, 21, 21}, Slope: 1}
	if err := s.AppendPlan(plan); !errors.Is(err, ErrSealed) {
		t.Errorf("AppendPlan under seal: %v, want ErrSealed", err)
	}
	if err := s.AppendPlanBatch([]plancache.PlanRecord{plan}); !errors.Is(err, ErrSealed) {
		t.Errorf("AppendPlanBatch under seal: %v, want ErrSealed", err)
	}
	// A replacing upload, the store's only source of invalidation records.
	if _, err := s.PutModel("m", speed.NewModel(testModel(3, 2))); !errors.Is(err, ErrSealed) {
		t.Errorf("replacing PutModel under seal: %v, want ErrSealed", err)
	}
	if got := s.ReplicationPos(); got != sealed {
		t.Fatalf("refused mutators moved the position: %+v != %+v", got, sealed)
	}

	s.Unseal()
	if s.Stats().Sealed {
		t.Fatal("Stats.Sealed = true after Unseal")
	}
	if err := s.AppendPlan(plan); err != nil {
		t.Fatalf("AppendPlan after Unseal: %v", err)
	}
	if got := s.ReplicationPos(); got.Offset <= sealed.Offset {
		t.Fatalf("position did not advance after Unseal: %+v", got)
	}
}

// TestSealClearedByPromoteAndHandoff: the two legitimate exits from a seal
// — taking over (Promote) and stepping down (ApplyHandoff from the new
// primary) — both lift it without an explicit Unseal.
func TestSealClearedByPromoteAndHandoff(t *testing.T) {
	t.Run("promote", func(t *testing.T) {
		s := mustOpen(t, t.TempDir())
		defer s.Close()
		if _, err := s.PutModel("m", speed.NewModel(testModel(3, 1))); err != nil {
			t.Fatal(err)
		}
		s.Seal()
		if _, err := s.Promote(); err != nil {
			t.Fatalf("Promote under seal: %v", err)
		}
		if s.Stats().Sealed {
			t.Fatal("Promote left the store sealed")
		}
		if _, err := s.PutModel("m2", speed.NewModel(testModel(2, 2))); err != nil {
			t.Fatalf("PutModel after Promote: %v", err)
		}
	})
	t.Run("handoff", func(t *testing.T) {
		primary := mustOpen(t, t.TempDir())
		defer primary.Close()
		if _, err := primary.Promote(); err != nil { // epoch 2 > follower's 1
			t.Fatal(err)
		}
		if _, err := primary.PutModel("m", speed.NewModel(testModel(3, 1))); err != nil {
			t.Fatal(err)
		}
		snap, _, err := primary.HandoffSnapshot()
		if err != nil {
			t.Fatal(err)
		}

		old := mustOpen(t, t.TempDir())
		defer old.Close()
		old.Seal()
		if _, err := old.ApplyHandoff(snap); err != nil {
			t.Fatalf("ApplyHandoff under seal: %v", err)
		}
		if old.Stats().Sealed {
			t.Fatal("ApplyHandoff left the store sealed")
		}
	})
}
