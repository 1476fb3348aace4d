package store

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// waitCompactions blocks until the background compactor is idle: no
// compaction signalled and none running.
func waitCompactions(s *Store) {
	for {
		s.compactMu.Lock()
		s.compactMu.Unlock()
		s.mu.Lock()
		queued := s.compactQueued
		s.mu.Unlock()
		if !queued {
			return
		}
		runtime.Gosched()
	}
}

// synthPlans builds count valid plan records of p shares each for model
// fp, a p-processor model, without running the partitioner: wide plans
// at test speed.
func synthPlans(fp uint64, p, count int) []plancache.PlanRecord {
	out := make([]plancache.PlanRecord, count)
	for i := range out {
		n := int64(1_000_000 + 1_000*i)
		alloc := make(core.Allocation, p)
		for j := range alloc {
			alloc[j] = n / int64(p)
		}
		alloc[0] += n % int64(p)
		out[i] = plancache.PlanRecord{
			Model: fp, N: n, Algo: core.AlgoCombined, OptsKey: core.OptionsKey(),
			Slope: float64(i + 1), Alloc: alloc,
			Stats: core.Stats{Algorithm: core.AlgoCombined.String(), Steps: i % 7},
		}
	}
	return out
}

// stateDigest renders everything a reopen must reproduce: the models and
// the plans in recency order, with bit-exact floats.
func stateDigest(s *Store) string {
	var b strings.Builder
	for _, m := range s.Models() {
		model, _ := s.Model(m.Fingerprint)
		fmt.Fprintf(&b, "model %s %x %x\n", m.Label, m.Fingerprint, speed.Fingerprint(model.Fns()))
	}
	for _, r := range s.Plans() {
		fmt.Fprintf(&b, "plan %x %d %d %x %x %v %+v\n", r.Model, r.N, r.Algo, r.OptsKey, math.Float64bits(r.Slope), r.Alloc, r.Stats)
	}
	return b.String()
}

// copyDir copies the regular files of src into a fresh directory: the
// disk image a crash at this instant would leave.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

var errCrash = errors.New("crash injected")

// TestCompactionCrashPoints stops a compaction after each of its steps —
// capture, temp snapshot fsync, temp WAL write, snapshot rename, WAL
// rename — and reopens the disk image left at that instant. Every reopen
// must hold exactly the acknowledged records: the same models and plans
// in order as the live store, none lost and none applied twice.
// Frames appended while the compaction encodes must move into the new
// generation, and a record appended after a switch whose WAL rename never
// happened must be rolled forward at Open.
func TestCompactionCrashPoints(t *testing.T) {
	names := []string{"capture", "snapshot-sync", "wal-temp", "snapshot-rename", "wal-rename"}
	for step := stepCapture; step <= stepWALRename; step++ {
		t.Run(names[step], func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{CompactAt: -1})
			fnsA, fnsB := testModel(5, 21), testModel(4, 22)
			fpA, err := putFP(s, "a", fnsA)
			if err != nil {
				t.Fatal(err)
			}
			appendAll := func(rs []plancache.PlanRecord) {
				t.Helper()
				if err := s.AppendPlanBatch(rs); err != nil {
					t.Fatal(err)
				}
			}
			appendAll(plansFor(t, fpA, fnsA, []int64{1e6, 2e6, 3e6}))
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			fpB, err := putFP(s, "b", fnsB)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(plansFor(t, fpB, fnsB, []int64{1e6, 2e6}))
			// A replacing upload of "a" logs the new model and the old
			// one's invalidation.
			fnsA = testModel(5, 23)
			if fpA, err = putFP(s, "a", fnsA); err != nil {
				t.Fatal(err)
			}
			appendAll(plansFor(t, fpA, fnsA, []int64{4e6, 5e6}))
			// The covered WAL holds every record type a live store appends:
			// models, plans, an invalidation and a delta refresh.
			fnsB2 := append([]speed.Function(nil), fnsB...)
			fnsB2[2] = driftTail(t, fnsB[2])
			_, mB2, err := s.RefreshProcessor("b", 2, fnsB2[2])
			fpB2 := mB2.Fingerprint()
			if err != nil || fpB2 == fpB {
				t.Fatalf("RefreshProcessor: fp %x → %x, %v", fpB, fpB2, err)
			}

			s.failHook = func(at compactStep) error {
				if at == stepCapture {
					// Frames the image does not cover: the switch moves them.
					appendAll(plansFor(t, fpB2, fnsB2, []int64{3e6}))
					appendAll(plansFor(t, fpA, fnsA, []int64{6e6}))
				}
				if at == step {
					return errCrash
				}
				return nil
			}
			if err := s.Snapshot(); !errors.Is(err, errCrash) {
				t.Fatalf("Snapshot = %v, want the injected crash", err)
			}
			s.failHook = nil
			// The live store carries on: past the snapshot rename its appends
			// land in the new generation's WAL, under its temp name when the
			// WAL rename never happened.
			appendAll(plansFor(t, fpA, fnsA, []int64{7e6}))
			want := stateDigest(s)
			for _, n := range []string{"6000000", "7000000"} {
				if !strings.Contains(want, fmt.Sprintf("plan %x %s", fpA, n)) {
					t.Fatalf("reference state lacks plan n=%s:\n%s", n, want)
				}
			}

			crashed := copyDir(t, dir)
			re := mustOpen(t, crashed, Options{CompactAt: -1})
			if got := stateDigest(re); got != want {
				t.Fatalf("reopen after a crash at %s:\ngot:\n%s\nwant:\n%s", names[step], got, want)
			}
			if st := re.Stats(); st.QuarantinedRecords != 0 || st.QuarantinedTail != 0 {
				t.Fatalf("reopen quarantined records: %+v", st)
			}
			left, _ := filepath.Glob(filepath.Join(crashed, "*.tmp"))
			if len(left) != 0 {
				t.Fatalf("temp files survive Open: %v", left)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}

			// The live store's own Close → Open round trip is exact too.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			again := mustOpen(t, dir)
			defer again.Close()
			if got := stateDigest(again); got != want {
				t.Fatalf("reopen of the live store:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestCompactionConcurrentAppends appends from several goroutines while
// background compactions, explicit snapshots and handoff encodes run; after
// Close → Open every acknowledged plan is present, bit for bit.
func TestCompactionConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactAt: 4 << 10, MaxPlans: 1 << 20, SyncEvery: 16})
	fp, err := putFP(s, "m", testModel(32, 31))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 150
	plans := synthPlans(fp, 32, writers*perWriter)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(mine []plancache.PlanRecord) {
			defer wg.Done()
			for i := 0; i < len(mine); {
				n := 1 + i%3
				if i+n > len(mine) {
					n = len(mine) - i
				}
				if err := s.AppendPlanBatch(mine[i : i+n]); err != nil {
					t.Error(err)
					return
				}
				i += n
			}
		}(plans[w*perWriter : (w+1)*perWriter])
	}
	var images [][]byte
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Explicit snapshots fold the WAL too; start them once a background
		// compaction has switched, so both kinds are sure to run.
		for s.Stats().CompactedBytes == 0 {
			runtime.Gosched()
		}
		for i := 0; i < 3; i++ {
			if err := s.Snapshot(); err != nil {
				t.Error(err)
			}
			release := s.PinCompaction()
			img, _, err := s.HandoffSnapshot()
			release()
			if err != nil {
				t.Error(err)
			}
			images = append(images, img)
		}
	}()
	wg.Wait()
	waitCompactions(s)
	st := s.Stats()
	if st.Compactions < 4 {
		t.Fatalf("%d compactions, want a background one and 3 explicit: %+v", st.Compactions, st)
	}
	for _, img := range images {
		if _, err := mustOpen(t, t.TempDir()).ApplyHandoff(img); err != nil {
			t.Fatalf("handoff image encoded beside appends does not apply: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer re.Close()
	got := make(map[int64]plancache.PlanRecord)
	for _, r := range re.Plans() {
		got[r.N] = r
	}
	for _, want := range plans {
		r, ok := got[want.N]
		if !ok {
			t.Fatalf("acknowledged plan n=%d lost", want.N)
		}
		if planDigest([]plancache.PlanRecord{r}) != planDigest([]plancache.PlanRecord{want}) {
			t.Fatalf("plan n=%d changed across compactions", want.N)
		}
	}
}

// TestCompactionAbandonsPinnedOrSealed pins, then seals, the store while a
// background compaction encodes: the switch must discard the image with no
// generation change, and compaction resumes once the pin or seal lifts.
func TestCompactionAbandonsPinnedOrSealed(t *testing.T) {
	for _, mode := range []string{"pinned", "sealed"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{CompactAt: 1 << 10})
			defer s.Close()
			var lift func()
			var once sync.Once
			s.failHook = func(at compactStep) error {
				if at == stepCapture {
					once.Do(func() {
						if mode == "pinned" {
							lift = s.PinCompaction()
						} else {
							s.Seal()
							lift = s.Unseal
						}
					})
				}
				return nil
			}
			fp, err := putFP(s, "m", testModel(4, 41))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AppendPlanBatch(synthPlans(fp, 4, 40)); err != nil {
				t.Fatal(err)
			}
			waitCompactions(s)
			st := s.Stats()
			if st.CompactionsAbandoned != 1 || st.Gen != 0 || st.Compactions != 0 {
				t.Fatalf("%s compaction not abandoned: %+v", mode, st)
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !os.IsNotExist(err) {
				t.Fatalf("abandoned image left on disk: %v", err)
			}
			lift()
			if mode == "sealed" {
				// Unseal has no trigger re-check; the next append signals.
				if err := s.AppendPlan(synthPlans(fp, 4, 41)[40]); err != nil {
					t.Fatal(err)
				}
			}
			waitCompactions(s)
			if st := s.Stats(); st.Gen != 1 || st.Compactions != 1 {
				t.Fatalf("compaction did not resume after the %s store was released: %+v", mode, st)
			}
		})
	}
}

// TestCompactionRewriteRatio checks the proportional trigger: however many
// plans are appended, automatic compactions rewrite at most two snapshot
// bytes per appended WAL byte, and their number grows logarithmically.
func TestCompactionRewriteRatio(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactAt: 16 << 10, MaxPlans: 1 << 20})
	defer s.Close()
	fp, err := putFP(s, "m", testModel(256, 51))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range synthPlans(fp, 256, 600) {
		if err := s.AppendPlanBatch([]plancache.PlanRecord{r}); err != nil {
			t.Fatal(err)
		}
	}
	waitCompactions(s)
	st := s.Stats()
	// 600 plans of ~2 KB against a 16 KiB floor: a fixed trigger would
	// compact ~77 times; doubling snapshots compact at most ~6 times (fewer
	// when the compactor lags the appends and folds more per pass).
	if st.Compactions == 0 || st.Compactions > 8 {
		t.Fatalf("%d automatic compactions, want a logarithmic count: %+v", st.Compactions, st)
	}
	if ratio := float64(st.CompactedBytes) / float64(st.WALAppendedBytes); ratio > 2 {
		t.Fatalf("rewrote %.2f bytes per appended byte, bound 2: %+v", ratio, st)
	}
	if snap := fileSize(t, filepath.Join(dir, snapshotFile)); st.WALBytes > max(16<<10, snap) {
		t.Fatalf("idle compactor left a %d-byte WAL over a %d-byte snapshot: %+v", st.WALBytes, snap, st)
	}
}
