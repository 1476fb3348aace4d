package replica

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"

	"heteropart/internal/speed"
	"heteropart/internal/store"
)

// slowerCopy returns a constant-speed replacement for one of testModel's
// processors, drifted to 80% of its recorded speed.
func slowerCopy(t *testing.T, f speed.Function) speed.Function {
	t.Helper()
	c, ok := f.(speed.Constant)
	if !ok {
		t.Fatalf("testModel processor is %T, want speed.Constant", f)
	}
	return speed.MustConstant(c.Speed()*0.8, c.MaxSize())
}

// TestFollowerMirrorsDeltaStream drives the full replication pipeline over
// a mixed stream: full model upload, plans, a one-processor delta refresh,
// more plans under the refreshed model, a second delta — and requires the
// follower to converge bit-identically, having applied the deltas through
// the same validated path.
func TestFollowerMirrorsDeltaStream(t *testing.T) {
	var mu sync.Mutex
	var deltas []store.ReplDelta
	p := newPair(t, 11, "", Config{
		OnApply: func(r store.Replicated) {
			mu.Lock()
			deltas = append(deltas, r.Deltas...)
			mu.Unlock()
		},
	})
	p.start(t)
	waitFor(t, "initial sync", func() bool { return p.f.State() == StateServingReads })

	// First delta: processor 2 slows down; the plans that follow are
	// computed and keyed under the refreshed model.
	newFns := append([]speed.Function(nil), p.fns...)
	newFns[2] = slowerCopy(t, p.fns[2])
	old, m1, err := p.prim.RefreshProcessor("cluster", 2, newFns[2])
	if err != nil {
		t.Fatal(err)
	}
	oldFP, fp1 := old.Fingerprint(), m1.Fingerprint()
	if oldFP != p.fp || fp1 == p.fp {
		t.Fatalf("refresh fingerprints: old=%x new=%x seed=%x", oldFP, fp1, p.fp)
	}
	appendPlans(t, p.prim, fp1, newFns, 4e6, 5e6)

	// Second delta in the same live stream, different processor.
	newFns2 := append([]speed.Function(nil), newFns...)
	newFns2[0] = slowerCopy(t, newFns[0])
	_, m2, err := p.prim.RefreshProcessor("cluster", 0, newFns2[0])
	if err != nil {
		t.Fatal(err)
	}
	fp2 := m2.Fingerprint()
	appendPlans(t, p.prim, fp2, newFns2, 6e6)

	waitFor(t, "delta stream to mirror", func() bool {
		got, ok := p.fst.ModelByLabel([]byte("cluster"))
		return ok && got.Fingerprint() == fp2 && p.converged()
	})
	st := p.fst.Stats()
	if st.Refreshes != 2 || st.QuarantinedRecords != 0 {
		t.Fatalf("follower store after delta stream: %+v", st)
	}
	m, ok := p.fst.Model(fp2)
	if !ok || speed.Fingerprint(m.Fns()) != fp2 {
		t.Fatalf("follower model does not reproduce fingerprint %x", fp2)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(deltas) != 2 || deltas[0].Old.Fingerprint() != p.fp || deltas[0].New.Fingerprint() != fp1 ||
		deltas[1].New.Fingerprint() != fp2 {
		t.Fatalf("OnApply deltas: %+v", deltas)
	}
	for i, want := range []int{2, 0} {
		if changed, ok := speed.Diff(deltas[i].Old, deltas[i].New); !ok || len(changed) != 1 || changed[0] != want {
			t.Fatalf("OnApply delta %d changes processors %v (ok=%v), want [%d]", i, changed, ok, want)
		}
	}
}

// syncedManualPair builds a primary with a model and plans, and a second
// store caught up to it by raw chunk ingestion — the follower's transport
// with the HTTP layer peeled off, so tests can tamper with the bytes.
func syncedManualPair(t *testing.T) (prim, fst *store.Store, fns []speed.Function, fp uint64, confirmed int64) {
	t.Helper()
	prim = mustOpen(t, t.TempDir(), store.Options{})
	fns = testModel(5, 21)
	var err error
	m := speed.NewModel(fns)
	fp = m.Fingerprint()
	_, err = prim.PutModel("cluster", m)
	if err != nil {
		t.Fatal(err)
	}
	appendPlans(t, prim, fp, fns, 1e6, 2e6, 3e6)

	fst = mustOpen(t, t.TempDir(), store.Options{})
	pos := prim.ReplicationPos()
	chunk, _, err := prim.ReadWALChunk(pos.Gen, 0, int(pos.Offset))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fst.IngestChunk(pos.Epoch, chunk); err != nil {
		t.Fatal(err)
	}
	if planDigest(prim.Plans()) != planDigest(fst.Plans()) {
		t.Fatal("manual pair failed to sync")
	}
	return prim, fst, fns, fp, pos.Offset
}

// refreshChunk performs a delta refresh plus follow-up plans on the
// primary and returns the raw mixed chunk (delta frame + plan frames) the
// follower would stream, with the refreshed model set.
func refreshChunk(t *testing.T, prim *store.Store, fns []speed.Function, confirmed int64) ([]byte, []speed.Function, uint64) {
	t.Helper()
	newFns := append([]speed.Function(nil), fns...)
	newFns[1] = slowerCopy(t, fns[1])
	_, refreshed, err := prim.RefreshProcessor("cluster", 1, newFns[1])
	newFP := refreshed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	appendPlans(t, prim, newFP, newFns, 4e6)
	pos := prim.ReplicationPos()
	chunk, _, err := prim.ReadWALChunk(pos.Gen, confirmed, int(pos.Offset-confirmed))
	if err != nil {
		t.Fatal(err)
	}
	return chunk, newFns, newFP
}

// TestIngestQuarantinesLyingDelta tampers with a streamed delta record's
// recorded new fingerprint (re-checksummed, so the frame itself is valid):
// the replica must quarantine the record — never apply a delta whose
// fingerprint lies — and still converge once the honest bytes arrive.
func TestIngestQuarantinesLyingDelta(t *testing.T) {
	prim, fst, fns, fp, confirmed := syncedManualPair(t)
	chunk, _, newFP := refreshChunk(t, prim, fns, confirmed)

	// The delta is the chunk's first frame; its newFP field sits at bytes
	// [17,25) (8 header + 1 tag + 8 oldFP). Corrupt it and re-checksum.
	lying := append([]byte(nil), chunk...)
	lying[20] ^= 0xFF
	plen := binary.LittleEndian.Uint32(lying[0:4])
	binary.LittleEndian.PutUint32(lying[4:8],
		crc32.Checksum(lying[8:8+plen], crc32.MakeTable(crc32.Castagnoli)))

	rep, err := fst.IngestChunk(1, lying)
	if err != nil {
		t.Fatalf("lying delta chunk errored instead of quarantining: %v", err)
	}
	if rep.Quarantined == 0 || len(rep.Deltas) != 0 {
		t.Fatalf("lying delta applied: %+v", rep)
	}
	if got, _ := fst.ModelByLabel([]byte("cluster")); got.Fingerprint() != fp {
		t.Fatalf("label moved to %x on a quarantined delta", got.Fingerprint())
	}

	// The honest bytes re-sent (a resync) converge the pair bit-identically;
	// the quarantined record stays inert.
	if _, err := fst.IngestChunk(1, chunk); err != nil {
		t.Fatal(err)
	}
	if got, _ := fst.ModelByLabel([]byte("cluster")); got.Fingerprint() != newFP {
		t.Fatalf("follower label %x after honest delta, want %x", got.Fingerprint(), newFP)
	}
	if planDigest(prim.Plans()) != planDigest(fst.Plans()) {
		t.Fatal("follower diverged after lying-then-honest delta stream")
	}
}

// TestIngestRecoversTornDeltaTail cuts a mixed delta+plan chunk mid-frame
// (the primary died mid-send): the replica must hold the torn tail without
// applying it, then converge bit-identically when the full bytes are
// re-sent from the confirmed offset.
func TestIngestRecoversTornDeltaTail(t *testing.T) {
	prim, fst, fns, _, confirmed := syncedManualPair(t)
	chunk, _, newFP := refreshChunk(t, prim, fns, confirmed)

	// Cut inside the delta frame itself, so not even the refresh lands.
	rep, err := fst.IngestChunk(1, chunk[:15])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 0 || rep.Bytes != 0 || len(rep.Deltas) != 0 {
		t.Fatalf("torn prefix applied something: %+v", rep)
	}
	st := fst.Stats()
	if st.Refreshes != 0 {
		t.Fatalf("torn delta counted as a refresh: %+v", st)
	}

	// Resend from the confirmed offset (the whole chunk again).
	rep, err = fst.IngestChunk(1, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deltas) != 1 || rep.Quarantined != 0 {
		t.Fatalf("resent chunk: %+v", rep)
	}
	if got, _ := fst.ModelByLabel([]byte("cluster")); got.Fingerprint() != newFP {
		t.Fatalf("follower label %x after resend, want %x", got.Fingerprint(), newFP)
	}
	if planDigest(prim.Plans()) != planDigest(fst.Plans()) {
		t.Fatal("follower diverged after torn-tail recovery")
	}
	// And the recovered state survives a restart: the ingested frames are
	// the follower's own WAL now.
	if err := fst.Sync(); err != nil {
		t.Fatal(err)
	}
}
