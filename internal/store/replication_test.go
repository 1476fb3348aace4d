package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// seedPrimary fills a store with a model and real plans, as a serving
// daemon's taps would.
func seedPrimary(t *testing.T, s *Store, seed uint32, sizes []int64) (fp uint64) {
	t.Helper()
	fns := testModel(5, seed)
	fp, err := putFP(s, "cluster", fns)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plansFor(t, fp, fns, sizes) {
		if err := s.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	return fp
}

// drain pulls every available WAL byte from src at pos into dst, returning
// the advanced position.
func drain(t *testing.T, src, dst *Store, pos ReplPos) ReplPos {
	t.Helper()
	for {
		chunk, end, err := src.ReadWALChunk(pos.Gen, pos.Offset, 0)
		if err != nil {
			t.Fatalf("ReadWALChunk(%d, %d): %v", pos.Gen, pos.Offset, err)
		}
		if len(chunk) == 0 {
			return pos
		}
		rep, err := dst.IngestChunk(end.Epoch, chunk)
		if err != nil {
			t.Fatalf("IngestChunk: %v", err)
		}
		pos.Offset += rep.Bytes
		if pos.Offset >= end.Offset {
			return pos
		}
	}
}

// samePlans asserts both stores serve bit-identical plan sets.
func samePlans(t *testing.T, a, b *Store) {
	t.Helper()
	fa, fb := planDigest(a.Plans()), planDigest(b.Plans())
	if fa != fb {
		t.Fatalf("plan sets diverged:\nA:\n%s\nB:\n%s", fa, fb)
	}
}

// planDigest renders a plan set order-independently with bit-exact floats.
func planDigest(plans []plancache.PlanRecord) string {
	keys := make([]string, len(plans))
	for i, r := range plans {
		keys[i] = fmt.Sprintf("%d|%d|%d|%d|%x|%v|%+v",
			r.Model, r.N, r.Algo, r.OptsKey, math.Float64bits(r.Slope), r.Alloc, r.Stats)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func TestHandoffRoundTripAndStream(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	fp := seedPrimary(t, prim, 1, []int64{1e6, 2e6, 3e6})

	rdir := t.TempDir()
	repl := mustOpen(t, rdir)
	defer repl.Close()

	data, pos, err := prim.HandoffSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repl.ApplyHandoff(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(repl.Models()) != 1 || len(rep.Plans) != 3 {
		t.Fatalf("handoff installed %d models, captured %d plans; want 1, 3", len(repl.Models()), len(rep.Plans))
	}
	samePlans(t, prim, repl)
	if _, ok := repl.Model(fp); !ok {
		t.Fatal("model missing after handoff")
	}

	// Live frames after the handoff stream over and land identically.
	m, _ := prim.Model(fp)
	for _, r := range plansFor(t, fp, m.Fns(), []int64{4e6, 5e6}) {
		if err := prim.AppendPlan(r); err != nil {
			t.Fatal(err)
		}
	}
	// A replacing upload streams a model and an invalidation record.
	for seed := uint32(7); seed < 9; seed++ {
		if _, err := prim.PutModel("other", speed.NewModel(testModel(3, seed))); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, prim, repl, pos)
	samePlans(t, prim, repl)

	// The streamed bytes are durable: a reopened replica replays them.
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, rdir)
	defer re.Close()
	samePlans(t, prim, re)
}

// TestApplyHandoffNeverHidesResidentModel re-installs an image on a
// follower whose catalog already holds its models while a reader resolves
// them by name without the store lock, as the daemon does: a model held
// before and after the handoff must resolve on every probe, to the same
// fingerprint.
func TestApplyHandoffNeverHidesResidentModel(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	labels := make([]string, 64)
	want := make(map[string]uint64, len(labels))
	for i := range labels {
		labels[i] = fmt.Sprintf("m%02d", i)
		fp, err := putFP(prim, labels[i], testModel(4, uint32(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		want[labels[i]] = fp
	}
	data, _, err := prim.HandoffSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	repl := mustOpen(t, t.TempDir())
	defer repl.Close()
	if _, err := repl.ApplyHandoff(data); err != nil {
		t.Fatal(err)
	}

	started, stop := make(chan struct{}), make(chan struct{})
	result := make(chan [2]int)
	go func() {
		probes, misses := 0, 0
		for pass := 0; ; pass++ {
			if pass == 1 {
				close(started)
			}
			select {
			case <-stop:
				result <- [2]int{probes, misses}
				return
			default:
			}
			for _, l := range labels {
				probes++
				if m, ok := repl.ModelByLabel([]byte(l)); !ok || m.Fingerprint() != want[l] {
					misses++
				}
			}
		}
	}()
	<-started
	for i := 0; i < 20; i++ {
		if _, err := repl.ApplyHandoff(data); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if r := <-result; r[1] != 0 {
		t.Fatalf("%d of %d probes missed a model held before and after every handoff", r[1], r[0])
	}
}

func TestReadWALChunkFrameBoundary(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	seedPrimary(t, prim, 2, []int64{1e6, 2e6, 3e6})

	pos := prim.ReplicationPos()
	if pos.Frames < 4 {
		t.Fatalf("want >= 4 frames, have %d", pos.Frames)
	}
	// A tiny cap still returns at least one whole frame, never a split one.
	var off int64
	var frames int64
	for off < pos.Offset {
		chunk, _, err := prim.ReadWALChunk(pos.Gen, off, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 {
			t.Fatalf("no progress at offset %d", off)
		}
		if _, got, err := splitFrames(chunk); err != nil || got != len(chunk) {
			t.Fatalf("chunk at %d not frame-aligned: %d of %d bytes (%v)", off, got, len(chunk), err)
		}
		off += int64(len(chunk))
		frames++
	}
	if off != pos.Offset {
		t.Fatalf("walked to %d, want %d", off, pos.Offset)
	}
}

func TestReadWALChunkGenGone(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	seedPrimary(t, prim, 3, []int64{1e6})
	pos := prim.ReplicationPos()

	if _, _, err := prim.ReadWALChunk(pos.Gen, pos.Offset+1, 0); !errors.Is(err, ErrGenGone) {
		t.Fatalf("offset past end: got %v, want ErrGenGone", err)
	}
	if err := prim.Snapshot(); err != nil { // compacts: new generation
		t.Fatal(err)
	}
	if _, _, err := prim.ReadWALChunk(pos.Gen, 0, 0); !errors.Is(err, ErrGenGone) {
		t.Fatalf("stale generation: got %v, want ErrGenGone", err)
	}
	now := prim.ReplicationPos()
	if now.Gen != pos.Gen+1 || now.Offset != 0 {
		t.Fatalf("after compaction pos = %+v, want gen %d offset 0", now, pos.Gen+1)
	}
}

func TestPinCompactionDefersUntilRelease(t *testing.T) {
	prim := mustOpen(t, t.TempDir(), Options{CompactAt: 256})
	defer prim.Close()

	release := prim.PinCompaction()
	fp := seedPrimary(t, prim, 4, []int64{1e6, 2e6, 3e6, 4e6}) // well past 256 bytes
	if pos := prim.ReplicationPos(); pos.Gen != 0 || pos.Offset == 0 {
		t.Fatalf("pinned store compacted anyway: %+v", pos)
	}
	release()
	release() // idempotent
	m, _ := prim.Model(fp)
	if err := prim.AppendPlan(plansFor(t, fp, m.Fns(), []int64{5e6})[0]); err != nil {
		t.Fatal(err)
	}
	waitCompactions(prim)
	if pos := prim.ReplicationPos(); pos.Gen == 0 {
		t.Fatalf("released store never compacted: %+v", pos)
	}
}

// streamBytes hands back every WAL byte currently committed on s.
func streamBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	pos := s.ReplicationPos()
	chunk, _, err := s.ReadWALChunk(pos.Gen, 0, int(pos.Offset))
	if err != nil {
		t.Fatal(err)
	}
	return chunk
}

func TestIngestTornTailThenResync(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	seedPrimary(t, prim, 5, []int64{1e6, 2e6, 3e6})
	all := streamBytes(t, prim)

	// Cut mid-frame: the primary died while sending. Everything before the
	// cut is whole frames plus 7 bytes of the next frame's header.
	_, first, _ := splitFrames(all[:len(all)-4]) // at least one frame short of the end
	cut := first + 7
	rdir := t.TempDir()
	repl := mustOpen(t, rdir)
	defer repl.Close()

	rep, err := repl.IngestChunk(1, all[:cut])
	if err != nil {
		t.Fatalf("torn chunk must not error: %v", err)
	}
	if rep.Bytes != int64(first) {
		t.Fatalf("confirmed %d bytes, want %d (the whole-frame prefix)", rep.Bytes, first)
	}
	pos := repl.ReplicationPos()
	if pos.Offset != int64(first) {
		t.Fatalf("committed offset %d, want %d", pos.Offset, first)
	}
	// The torn bytes sit on disk past the boundary, exactly like a torn
	// local append — visible in the file, invisible to the committed log.
	walSize := fileSize(t, filepath.Join(rdir, walFile))
	if walSize != int64(len(walMagic))+int64(cut) {
		t.Fatalf("WAL file %d bytes, want header+%d", walSize, cut)
	}

	// The primary comes back; the follower re-requests from its confirmed
	// offset and receives the resent bytes. The torn tail is truncated
	// before the resent frames land: no duplication, no gap.
	rep, err = repl.IngestChunk(1, all[first:])
	if err != nil {
		t.Fatal(err)
	}
	if repl.ReplicationPos().Offset != int64(len(all)) {
		t.Fatalf("resync ended at %d, want %d", repl.ReplicationPos().Offset, len(all))
	}
	samePlans(t, prim, repl)
}

func TestPromoteSealsTornTailAndBumpsEpoch(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	seedPrimary(t, prim, 6, []int64{1e6, 2e6, 3e6})
	all := streamBytes(t, prim)
	_, first, _ := splitFrames(all[:len(all)-4])

	dir := t.TempDir()
	repl := mustOpen(t, dir)
	if _, err := repl.IngestChunk(1, all[:first+5]); err != nil {
		t.Fatal(err)
	}
	epoch, err := repl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch %d, want 2", epoch)
	}
	// Promotion folded a snapshot; the WAL is clean — no torn bytes.
	if got := fileSize(t, filepath.Join(dir, walFile)); got != int64(len(walMagic)) {
		t.Fatalf("WAL %d bytes after promotion, want bare header", got)
	}
	nPlans := len(repl.Plans())
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}

	// The epoch fence survives a restart: it lives in the snapshot meta.
	re := mustOpen(t, dir)
	defer re.Close()
	if re.Epoch() != 2 {
		t.Fatalf("reopened epoch %d, want 2", re.Epoch())
	}
	if len(re.Plans()) != nPlans {
		t.Fatalf("reopened with %d plans, want %d", len(re.Plans()), nPlans)
	}
	// The zombie primary's late frames (epoch 1) are rejected, not applied.
	if _, err := re.IngestChunk(1, all[first:]); !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("zombie frames: got %v, want ErrFencedEpoch", err)
	}
	if len(re.Plans()) != nPlans {
		t.Fatal("fenced chunk changed state")
	}
}

func TestIngestBitFlippedFrameNeverApplies(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	seedPrimary(t, prim, 7, []int64{1e6, 2e6, 3e6})
	all := streamBytes(t, prim)

	// Flip one byte inside the second frame's payload.
	frames := frameOffsets(all)
	if len(frames) < 3 {
		t.Fatalf("want >= 3 frames, have %d", len(frames))
	}
	corrupted := append([]byte(nil), all...)
	corrupted[frames[1]+8+2] ^= 0x40 // second frame, payload byte 2

	repl := mustOpen(t, t.TempDir())
	defer repl.Close()
	rep, err := repl.IngestChunk(1, corrupted)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("got %v, want ErrCorruptFrame", err)
	}
	// Only the clean prefix (frame 1) was confirmed and applied; the
	// corrupt frame and everything after it were dropped, and nothing of
	// the flipped record reached the state.
	if rep.Bytes != int64(frames[1]) {
		t.Fatalf("confirmed %d bytes, want %d", rep.Bytes, frames[1])
	}
	if got := repl.Stats().QuarantinedRecords; got != 0 {
		t.Fatalf("corrupt frame reached applyRecord (quarantined=%d)", got)
	}
	// Resync from the confirmed offset with clean bytes converges.
	if _, err := repl.IngestChunk(1, all[frames[1]:]); err != nil {
		t.Fatal(err)
	}
	samePlans(t, prim, repl)
}

// frameOffsets returns the byte offset of every frame start in a clean
// frame sequence.
func frameOffsets(b []byte) []int {
	var out []int
	off := 0
	for off+8 <= len(b) {
		out = append(out, off)
		n := int(uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24)
		off += 8 + n
	}
	return out
}

func TestApplyHandoffFencedEpoch(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	seedPrimary(t, prim, 8, []int64{1e6})
	data, _, err := prim.HandoffSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	repl := mustOpen(t, t.TempDir())
	defer repl.Close()
	fpLocal := seedPrimary(t, repl, 9, []int64{2e6})
	if _, err := repl.Promote(); err != nil { // epoch 2 > handoff's epoch 1
		t.Fatal(err)
	}
	// Each refusal — an older epoch, a foreign magic, another format
	// version — is decided before any state is reset.
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"older epoch", data, ErrFencedEpoch},
		{"foreign magic", append([]byte("NOTSNAP\n"), data[len(snapMagic):]...), ErrCorruptFrame},
		{"HPSNAP2", append([]byte("HPSNAP2\n"), data[len(snapMagic):]...), ErrUnsupportedFormat},
	} {
		if _, err := repl.ApplyHandoff(tc.data); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		// The promoted state is untouched — a zombie cannot re-absorb us.
		if _, ok := repl.Model(fpLocal); !ok {
			t.Fatalf("%s: refused handoff destroyed local state", tc.name)
		}
	}
}

func TestApplyHandoffTruncatedSnapshot(t *testing.T) {
	prim := mustOpen(t, t.TempDir())
	defer prim.Close()
	seedPrimary(t, prim, 10, []int64{1e6, 2e6})
	data, _, err := prim.HandoffSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	repl := mustOpen(t, t.TempDir())
	defer repl.Close()
	if _, err := repl.ApplyHandoff(data[:len(data)-3]); err == nil {
		t.Fatal("truncated handoff accepted")
	}
	// A fresh handoff still lands (the refused one left the store as it
	// was).
	if _, err := repl.ApplyHandoff(data); err != nil {
		t.Fatal(err)
	}
	samePlans(t, prim, repl)
}

func TestMetaRoundTripAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	seedPrimary(t, s, 11, []int64{1e6})
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	gen := s.ReplicationPos().Gen
	if gen != 2 {
		t.Fatalf("gen %d after two compactions, want 2", gen)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer re.Close()
	// Close folds a final snapshot — one more generation — and the meta
	// frame in it carries both counters across the restart.
	if got := re.ReplicationPos(); got.Gen != gen+1 || got.Epoch != 1 {
		t.Fatalf("reopened pos %+v, want gen %d epoch 1", got, gen+1)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestAppendWaitNotifies(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	ch := s.AppendWait()
	select {
	case <-ch:
		t.Fatal("notified before any append")
	default:
	}
	seedPrimary(t, s, 12, []int64{1e6})
	select {
	case <-ch:
	default:
		t.Fatal("append did not notify")
	}
}
