package store

import (
	"sync"
	"testing"

	"heteropart/internal/plancache"
)

// TestAppendPlanBatchEquivalence proves a group commit leaves the store
// in the same state as the same records appended one at a time: same
// plans, same WAL replay, same durability counters.
func TestAppendPlanBatchEquivalence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	one := mustOpen(t, dirA, Options{SyncEvery: 3})
	grp := mustOpen(t, dirB, Options{SyncEvery: 3})

	fns := testModel(5, 11)
	fpA, err := putFP(one, "cluster", fns)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := putFP(grp, "cluster", fns)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Fatal("fingerprint mismatch")
	}

	sizes := []int64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6}
	plans := plansFor(t, fpA, fns, sizes)
	for _, r := range plans {
		if err := one.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := grp.AppendPlanBatch(plans); err != nil {
		t.Fatal(err)
	}

	sa, sb := one.Stats(), grp.Stats()
	if sa.WALRecords != sb.WALRecords || sa.WALFrames != sb.WALFrames || sa.WALBytes != sb.WALBytes {
		t.Fatalf("WAL counters diverge: one=%+v grp=%+v", sa, sb)
	}
	if sb.GroupCommits != 1 || sb.GroupedRecords != uint64(len(plans)) {
		t.Fatalf("group counters %+v, want 1 commit / %d records", sb, len(plans))
	}
	if sb.GroupCommitHist[3] != 1 { // 7 records → bucket 5-8
		t.Fatalf("histogram %v, want bucket 3 == 1", sb.GroupCommitHist)
	}
	samePlans(t, one, grp)

	// Unknown-model records drop silently, known ones still land.
	ghost := plans[0]
	ghost.Model = 0xdeadbeef
	if err := grp.AppendPlanBatch([]plancache.PlanRecord{ghost, plans[0]}); err != nil {
		t.Fatal(err)
	}
	if got := grp.Stats().GroupedRecords; got != uint64(len(plans))+1 {
		t.Fatalf("GroupedRecords %d, want %d", got, len(plans)+1)
	}

	// An invalid record fails the whole batch before anything is written.
	bad := plans[0]
	bad.Alloc = nil
	framesBefore := grp.Stats().WALFrames
	if err := grp.AppendPlanBatch([]plancache.PlanRecord{plans[1], bad}); err == nil {
		t.Fatal("invalid record in batch: want error")
	}
	if got := grp.Stats().WALFrames; got != framesBefore {
		t.Fatalf("failed batch wrote %d frames", got-framesBefore)
	}

	one.Close()
	grp.Close()

	// Replay: the grouped store reloads to the identical plan set.
	re := mustOpen(t, dirB)
	defer re.Close()
	if got := len(re.Plans()); got != len(plans) {
		t.Fatalf("replayed %d plans, want %d", got, len(plans))
	}
}

func TestCommitBucket(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4},
		{17, 5}, {32, 5}, {33, 6}, {64, 6}, {65, 7}, {1000, 7},
	} {
		if got := commitBucket(tc.n); got != tc.want {
			t.Errorf("commitBucket(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestCommitterCoalesces drives the committer from many goroutines and
// checks every record lands durably while the number of store-level
// commits stays below one per record (the whole point of grouping).
func TestCommitterCoalesces(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncEvery: 4})
	fns := testModel(4, 3)
	fp, err := putFP(s, "cluster", fns)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	sizes := make([]int64, workers)
	for i := range sizes {
		sizes[i] = int64(1e6 + i*1e5)
	}
	plans := plansFor(t, fp, fns, sizes)

	c := NewCommitter(s)
	var wg sync.WaitGroup
	for _, r := range plans {
		wg.Add(1)
		go func(r plancache.PlanRecord) {
			defer wg.Done()
			if err := c.AppendPlan(r); err != nil {
				t.Errorf("AppendPlan: %v", err)
			}
		}(r)
	}
	wg.Wait()

	st := s.Stats()
	if st.GroupedRecords != workers {
		t.Fatalf("GroupedRecords %d, want %d", st.GroupedRecords, workers)
	}
	if st.GroupCommits == 0 || st.GroupCommits > workers {
		t.Fatalf("GroupCommits %d out of range (0, %d]", st.GroupCommits, workers)
	}
	if got := len(s.Plans()); got != workers {
		t.Fatalf("stored %d plans, want %d", got, workers)
	}
	s.Close()

	re := mustOpen(t, dir)
	defer re.Close()
	if got := len(re.Plans()); got != workers {
		t.Fatalf("replayed %d plans, want %d", got, workers)
	}
}

// TestCommitterRaceHammer runs concurrent grouped appends against
// Snapshot and the replication stream's ReadWALChunk — the three paths
// that share the WAL — and then proves a follower ingesting the full
// stream converges to the same plan set. Run under -race this is the
// coalescer's data-race gate.
func TestCommitterRaceHammer(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{SyncEvery: 8, CompactAt: -1})
	defer s.Close()
	fns := testModel(4, 9)
	fp, err := putFP(s, "cluster", fns)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 12
	sizes := make([]int64, workers*perWorker)
	for i := range sizes {
		sizes[i] = int64(1e6 + i*7e4)
	}
	plans := plansFor(t, fp, fns, sizes)

	c := NewCommitter(s)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot pressure: compaction swaps WAL generations mid-stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
		}
	}()

	// Replication reader chasing the committed end across generations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pos := ReplPos{}
		for {
			chunk, end, err := s.ReadWALChunk(pos.Gen, pos.Offset, 1<<16)
			if err != nil {
				// A snapshot retired this generation; restart the stream.
				pos = ReplPos{Gen: end.Gen}
				continue
			}
			pos.Offset += int64(len(chunk))
			pos.Gen = end.Gen
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				if err := c.AppendPlan(plans[w*perWorker+i]); err != nil {
					t.Errorf("AppendPlan: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := len(s.Plans()); got != workers*perWorker {
		t.Fatalf("stored %d plans, want %d", got, workers*perWorker)
	}
}
