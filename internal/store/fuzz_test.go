package store

import (
	"bytes"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"heteropart/internal/speed"
)

// The fuzzers below drive the store's two byte-level entry points: the
// files Open replays and the chunks IngestChunk takes off the network.
// Their seeds (testdata/fuzz) are a real store's snapshot and WAL, the
// same with a torn tail, and the same with one flipped bit.

// FuzzStoreOpen writes arbitrary bytes as snapshot.bin and wal.log (an
// empty snapshot input means no snapshot file). Open must not panic, and
// a store it returns serves only plans that validate against their model;
// a Close→Open round trip must give back the same models and plans.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, snap, wal []byte) {
		dir := t.TempDir()
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, CompactAt: -1})
		if err != nil {
			return
		}
		checkServedPlans(t, s)
		before := storeDigest(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Dir: dir, CompactAt: -1})
		if err != nil {
			t.Fatalf("reopen after Close: %v", err)
		}
		defer re.Close()
		if after := storeDigest(re); after != before {
			t.Fatalf("Close→Open changed the state:\nbefore:\n%s\nafter:\n%s", before, after)
		}
	})
}

// FuzzIngestChunk feeds a follower store an arbitrary chunk the way the
// replication follower does: the first half, then the rest from the
// confirmed offset. It must not panic, the committed offset must stay on a
// frame boundary of the local WAL, and every stored plan must validate
// against its model.
func FuzzIngestChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, chunk []byte) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{CompactAt: -1})
		defer s.Close()
		rep, _ := s.IngestChunk(s.Epoch(), chunk[:len(chunk)/2])
		confirmed := rep.Bytes
		rep, _ = s.IngestChunk(s.Epoch(), chunk[confirmed:])
		confirmed += rep.Bytes

		pos := s.ReplicationPos()
		if pos.Offset != confirmed {
			t.Fatalf("committed offset %d, confirmed %d", pos.Offset, confirmed)
		}
		data, err := os.ReadFile(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) < int64(len(walMagic))+pos.Offset {
			t.Fatalf("WAL holds %d bytes, committed offset is %d", len(data), pos.Offset)
		}
		recs, n, err := splitFrames(data[len(walMagic) : int64(len(walMagic))+pos.Offset])
		if err != nil || int64(n) != pos.Offset || int64(len(recs)) != pos.Frames {
			t.Fatalf("committed offset %d (%d frames) is not a frame boundary: %d bytes in %d whole frames (%v)",
				pos.Offset, pos.Frames, n, len(recs), err)
		}
		checkServedPlans(t, s)
	})
}

// checkServedPlans asserts the store's serving invariant: every plan's
// model exists and its functions hash to the plan's fingerprint (rehashed
// here, not read from the handle), the plan has one share per processor,
// and the shares sum to N (summed without overflow).
func checkServedPlans(t *testing.T, s *Store) {
	t.Helper()
	for _, r := range s.Plans() {
		m, ok := s.Model(r.Model)
		fns := m.Fns()
		if !ok {
			t.Fatalf("plan n=%d references unknown model %x", r.N, r.Model)
		}
		if fp := speed.Fingerprint(fns); fp != r.Model {
			t.Fatalf("plan n=%d served under %x, its model hashes to %x", r.N, r.Model, fp)
		}
		if len(r.Alloc) != len(fns) {
			t.Fatalf("plan n=%d has %d shares for %d processors", r.N, len(r.Alloc), len(fns))
		}
		var sum, carry uint64
		for _, x := range r.Alloc {
			if x < 0 {
				t.Fatalf("plan n=%d has a negative share: %v", r.N, r.Alloc)
			}
			sum, carry = bits.Add64(sum, uint64(x), 0)
			if carry != 0 {
				t.Fatalf("plan n=%d: shares overflow: %v", r.N, r.Alloc)
			}
		}
		if r.N < 0 || sum != uint64(r.N) {
			t.Fatalf("plan n=%d: shares sum to %d", r.N, sum)
		}
	}
}

// storeDigest renders the served state — models and plans — with
// bit-exact floats.
func storeDigest(s *Store) string {
	var b bytes.Buffer
	for _, m := range s.Models() {
		fmt.Fprintf(&b, "model %x %q %d\n", m.Fingerprint, m.Label, m.Processors)
	}
	b.WriteString(planDigest(s.Plans()))
	return b.String()
}

// readFuzzSeed parses a committed corpus file ("go test fuzz v1", then
// one []byte literal per fuzz argument).
func readFuzzSeed(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	var args [][]byte
	for _, l := range lines[1:] {
		lit, ok := strings.CutPrefix(l, "[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: unexpected line %q", path, l)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		args = append(args, []byte(s))
	}
	return args
}

// TestOpenRealSeedReplays opens the real store image FuzzStoreOpen is
// seeded with and requires exactly what it holds: the fingerprint bits on
// disk must keep validating (a fuzz seed alone would quarantine a model
// that stopped hashing to its record and still pass). The image also
// holds two warm-start hint records, which replay skips.
func TestOpenRealSeedReplays(t *testing.T) {
	args := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzStoreOpen", "real"))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), args[0], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), args[1], 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{CompactAt: -1})
	defer s.Close()
	st := s.Stats()
	if st.QuarantinedRecords != 0 || st.QuarantinedTail != 0 || st.SnapshotQuarantined {
		t.Fatalf("the real seed quarantined records: %+v", st)
	}
	want := []ModelInfo{
		{Fingerprint: 0x628ce25ee34fca05, Label: "acme/m", Processors: 4},
		{Fingerprint: 0x0a8cf92032089a93, Label: "default/m", Processors: 3},
	}
	if got := s.Models(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("models %+v, want %+v", got, want)
	}
	for _, mi := range want {
		m, _ := s.Model(mi.Fingerprint)
		if got := speed.Fingerprint(m.Fns()); got != mi.Fingerprint {
			t.Fatalf("%s hashes to %#x, recorded %#x", mi.Label, got, mi.Fingerprint)
		}
	}
	if st.Plans != 2 {
		t.Fatalf("%d plans, want 2", st.Plans)
	}
	checkServedPlans(t, s)
}

// TestApplyHandoffOfRealSeed installs the real seed's snapshot, which
// stands for an older primary's handoff image with hint records in it: its
// models and plans install, and nothing is quarantined.
func TestApplyHandoffOfRealSeed(t *testing.T) {
	img := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzStoreOpen", "real"))[0]
	recs, _, err := splitFrames(img[len(snapMagic):])
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[byte]int)
	for _, p := range recs {
		count[p[0]]++
	}
	if count[recHint] == 0 || count[recModel] == 0 || count[recPlan] == 0 {
		t.Fatalf("the real seed's snapshot holds %v records by type, want hints, models and plans", count)
	}
	s := mustOpen(t, t.TempDir(), Options{CompactAt: -1})
	defer s.Close()
	rep, err := s.ApplyHandoff(img)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if rep.Quarantined != 0 || st.QuarantinedRecords != 0 {
		t.Fatalf("the handoff quarantined %d records: %+v", rep.Quarantined, st)
	}
	if st.Models != count[recModel] || st.Plans != count[recPlan] || len(rep.Plans) != count[recPlan] {
		t.Fatalf("installed %d models and %d plans (%d reported), the image holds %d and %d",
			st.Models, st.Plans, len(rep.Plans), count[recModel], count[recPlan])
	}
	checkServedPlans(t, s)
}
