package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteropart/internal/speed"
)

// The corruption suite drives the three failure modes the recovery rules
// must survive: a truncated WAL tail (crash mid-append), a bit-flipped
// snapshot (storage corruption), and a fingerprint-mismatched model record
// (stale or tampered state). In every case the store must come back
// serving only validated plans — degraded is fine, wrong is not.

// seedStore opens a store in dir, registers a model, appends plans for the
// sizes, syncs, and abandons the handle (simulating a crash).
func seedStore(t *testing.T, dir string, sizes []int64) (uint64, []speed.Function) {
	t.Helper()
	fns := testModel(8, 90)
	s := mustOpen(t, dir)
	fp, err := putFP(s, "m", fns)
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
	return fp, fns
}

func TestTruncatedWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	sizes := []int64{100_000, 200_000, 300_000, 400_000}
	fp, _ := seedStore(t, dir, sizes)

	// Cut into the last frame, as a crash mid-write(2) would.
	path := filepath.Join(dir, walFile)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	defer s.Close()
	st := s.Stats()
	if st.QuarantinedTail == 0 {
		t.Fatalf("truncated tail not detected: %+v", st)
	}
	// Everything before the cut survives; only the last plan is lost.
	if st.ReplayedPlans != len(sizes)-1 || st.ReplayedModels != 1 {
		t.Fatalf("recovered %d plans, want %d: %+v", st.ReplayedPlans, len(sizes)-1, st)
	}
	// The damaged tail forces an immediate compaction onto a clean base.
	if st.Compactions == 0 {
		t.Fatalf("no compaction after tail quarantine: %+v", st)
	}
	// The store stays writable after recovery.
	m2, _ := s.Model(fp)
	fns2 := m2.Fns()
	for _, r := range plansFor(t, fp, fns2, []int64{500_000}) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Plans()); got != len(sizes) {
		t.Fatalf("%d plans after recovery+append, want %d", got, len(sizes))
	}
}

func TestBitFlippedWALRecordCutsTail(t *testing.T) {
	dir := t.TempDir()
	sizes := []int64{100_000, 200_000, 300_000}
	seedStore(t, dir, sizes)

	// Flip one bit inside a frame payload two thirds into the log: replay
	// must keep everything before it and drop everything after.
	path := filepath.Join(dir, walFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)*2/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	defer s.Close()
	st := s.Stats()
	if st.QuarantinedTail == 0 {
		t.Fatalf("bit flip not detected: %+v", st)
	}
	if st.ReplayedPlans >= len(sizes) {
		t.Fatalf("all plans survived a mid-log flip: %+v", st)
	}
	// Whatever did survive is fully validated.
	for _, r := range s.Plans() {
		if !r.Valid() {
			t.Fatalf("invalid plan served after recovery: %+v", r)
		}
	}
}

func TestBitFlippedSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(6, 91)
	s := mustOpen(t, dir)
	fp, err := putFP(s, "m", fns)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plansFor(t, fp, fns, []int64{100_000, 200_000}) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	st := s2.Stats()
	if !st.SnapshotQuarantined || st.LoadedFromSnapshot {
		t.Fatalf("flipped snapshot not quarantined: %+v", st)
	}
	if st.Models != 0 || st.Plans != 0 {
		t.Fatalf("state served from a corrupt snapshot: %+v", st)
	}
	// The corrupt file is preserved for inspection, never deleted.
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined snapshot missing: %v", err)
	}
	// And the store starts over cleanly.
	if _, err := s2.PutModel("m", speed.NewModel(fns)); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(4, 92)
	s := mustOpen(t, dir)
	if _, err := s.PutModel("m", speed.NewModel(fns)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop off the terminator frame: the snapshot reads cleanly but is
	// provably incomplete, so it must not be trusted.
	path := filepath.Join(dir, snapshotFile)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-23); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	if st := s2.Stats(); !st.SnapshotQuarantined || st.Models != 0 {
		t.Fatalf("truncated snapshot trusted: %+v", st)
	}
}

func TestFingerprintMismatchQuarantinesModel(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft a WAL whose model record lies about its fingerprint —
	// the CRC is fine, but the model does not reproduce the fingerprint
	// its plans were computed against (stale state).
	fns := testModel(5, 93)
	fp := speed.Fingerprint(fns)
	wrong := fp ^ 0xdeadbeef
	model := &encoder{}
	if err := model.model(wrong, "m", fns); err != nil {
		t.Fatal(err)
	}
	plan := plansFor(t, wrong, fns, []int64{100_000})[0]

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(model.buf); err != nil {
		t.Fatal(err)
	}
	planFrame := &encoder{}
	planFrame.plan(&plan)
	if _, err := f.Write(planFrame.buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	defer s.Close()
	st := s.Stats()
	// Both records quarantined: the lying model, and the plan that then
	// has no model to validate against.
	if st.QuarantinedRecords != 2 {
		t.Fatalf("quarantined %d records, want 2: %+v", st.QuarantinedRecords, st)
	}
	if st.Models != 0 || st.Plans != 0 {
		t.Fatalf("mismatched model or its plan served: %+v", st)
	}
	if _, ok := s.Model(wrong); ok {
		t.Fatal("fingerprint-mismatched model resurfaced")
	}
}

func TestInvalidPlanPayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	fns := testModel(4, 94)
	fp := speed.Fingerprint(fns)
	model := &encoder{}
	if err := model.model(fp, "m", fns); err != nil {
		t.Fatal(err)
	}
	// A plan whose shares do not sum to n: CRC-clean, semantically wrong.
	bad := plansFor(t, fp, fns, []int64{100_000})[0]
	bad.Alloc[0]++

	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(model.buf); err != nil {
		t.Fatal(err)
	}
	planFrame := &encoder{}
	planFrame.plan(&bad)
	if _, err := f.Write(planFrame.buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir)
	defer s.Close()
	st := s.Stats()
	if st.ReplayedModels != 1 || st.QuarantinedRecords != 1 || st.Plans != 0 {
		t.Fatalf("invalid plan not quarantined: %+v", st)
	}
}

func TestUnrecognizedWALQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if st := s.Stats(); st.QuarantinedTail == 0 {
		t.Fatalf("foreign WAL accepted: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, walFile+".corrupt")); err != nil {
		t.Fatalf("foreign WAL not preserved: %v", err)
	}
}

// TestOlderFormatRefused covers the one-format rule: a snapshot or WAL
// written in an earlier format version fails Open with
// ErrUnsupportedFormat and stays byte for byte as it was — neither
// quarantined nor cut.
func TestOlderFormatRefused(t *testing.T) {
	src := t.TempDir()
	fns := testModel(5, 95)
	s := mustOpen(t, src)
	fp, err := putFP(s, "m", fns)
	if err != nil {
		t.Fatal(err)
	}
	plans := plansFor(t, fp, fns, []int64{100_000, 200_000})
	if err := s.AppendPlan(plans[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPlan(plans[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon the handle: both files now hold records.

	for _, tc := range []struct{ file, magic string }{
		{snapshotFile, "HPSNAP1\n"},
		{snapshotFile, "HPSNAP2\n"},
		{walFile, "HPWAL01\n"},
		{walFile, "HPWAL02\n"},
	} {
		t.Run(strings.TrimSpace(tc.magic), func(t *testing.T) {
			dir := t.TempDir()
			var old []byte
			for _, name := range []string{snapshotFile, walFile} {
				data, err := os.ReadFile(filepath.Join(src, name))
				if err != nil {
					t.Fatal(err)
				}
				if name == tc.file {
					copy(data, tc.magic)
					old = data
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrUnsupportedFormat) {
				t.Fatalf("Open: got %v, want ErrUnsupportedFormat", err)
			}
			path := filepath.Join(dir, tc.file)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, old) {
				t.Fatalf("%s changed: %d bytes, was %d", tc.file, len(got), len(old))
			}
			if _, err := os.Stat(path + ".corrupt"); !os.IsNotExist(err) {
				t.Fatalf("%s was quarantined (stat: %v)", tc.file, err)
			}
		})
	}
}
