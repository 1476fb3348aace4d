package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteropart/internal/core"
	"heteropart/internal/store"
)

// waitForCond polls cond until true, failing after 15s.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// postRaw POSTs and returns the status code and headers (body drained).
func postRaw(t *testing.T, url string, body []byte) (int, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

// TestSelfPromoteAfterPrimaryKill is the self-healing headline: a real
// hetpartd process is SIGKILLed under batched load while two watching
// followers stream from it. With no operator in the loop, the detectors
// must notice, elect exactly one winner under a bumped epoch, re-point the
// loser at it, and keep every pre-kill answer warm and bit-identical on
// both survivors. During the election the cluster serves reads and fences
// writes with a Retry-After hint; the restarted zombie's frames are
// rejected by the epoch fence.
func TestSelfPromoteAfterPrimaryKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pdir := t.TempDir()
	doc := testClusterDoc(t, 10, 55)
	fns := docFunctions(t, doc)

	cmd, base := spawnDaemon(t, pdir)
	if code := postJSON(t, base+"/v1/models?label=lab", doc, nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}

	// Warm a mixed workload on the primary; ask twice so the doorkeeper
	// admits and the answers are durable (and therefore replicable).
	var cases []*coldCase
	for i := 0; i < 9; i++ {
		n := int64(300_000 + i*50_000)
		cases = append(cases, &coldCase{
			n: n, algo: core.AlgoCombined,
			body: []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n)),
		})
	}
	cases = append(cases,
		&coldCase{n: 900_000, algo: core.AlgoBasic, body: []byte(`{"model":"lab","n":900000,"algo":"basic"}`)},
		&coldCase{n: 950_000, algo: core.AlgoModified, body: []byte(`{"model":"lab","n":950000,"algo":"modified"}`)},
		&coldCase{n: 850_000, algo: core.AlgoCombined,
			body: []byte(`{"model":"lab","n":850000,"options":{"fineTune":false}}`),
			opts: []core.Option{core.WithoutFineTune()}},
	)
	for _, c := range cases {
		if code := postJSON(t, base+"/v1/partition", c.body, nil); code != 200 {
			t.Fatalf("first ask HTTP %d for %s", code, c.body)
		}
		if code := postJSON(t, base+"/v1/partition", c.body, &c.got); code != 200 {
			t.Fatalf("second ask HTTP %d for %s", code, c.body)
		}
	}

	// Two watching followers with a fast probe cadence. Peers are wired
	// after both listeners are up (ephemeral ports).
	mk := func(id string) (*Daemon, string) {
		return startDaemon(t, Config{
			Dir:           t.TempDir(),
			ID:            id,
			ReplicaOf:     base,
			ReplicaWait:   50 * time.Millisecond,
			ReconnectBase: 5 * time.Millisecond,
			SyncEvery:     1,
			Watch:         true,
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  60 * time.Millisecond,
			SuspectAfter:  3,
		})
	}
	da, abase := mk("a")
	db, bbase := mk("b")
	da.SetPeers([]string{bbase})
	db.SetPeers([]string{abase})
	waitStatus(t, abase+"/readyz", 200)
	waitStatus(t, bbase+"/readyz", 200)
	// Both drained to the primary's committed end before the load starts,
	// so every warmed case above lives in both follower stores.
	for _, fb := range []string{abase, bbase} {
		waitForCond(t, fb+" lag 0", func() bool {
			var st statsReply
			getJSON(t, fb+"/v1/stats", &st)
			return st.Replication.Follower != nil && st.Replication.Follower.LagBytes == 0
		})
	}

	// Batched load on the primary, then SIGKILL mid-flight.
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		client := &http.Client{Timeout: 2 * time.Second}
		for i := 0; i < 10_000; i++ {
			body := fmt.Sprintf(`{"requests":[{"model":"lab","n":%d},{"model":"lab","n":%d}]}`,
				2_000_000+i*2_000, 2_001_000+i*2_000)
			resp, err := client.Post(base+"/v1/partition", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	<-stopped

	// While the election runs: reads answer 200 from the warm mirrors,
	// writes fence with 503 and a Retry-After hint.
	for _, fb := range []string{abase, bbase} {
		if code := postJSON(t, fb+"/v1/partition", cases[0].body, nil); code != 200 {
			t.Fatalf("read on %s during election: HTTP %d", fb, code)
		}
		code, hdr := postRaw(t, fb+"/v1/models?label=during", doc)
		if code != 503 {
			t.Fatalf("write on %s during election: HTTP %d, want 503", fb, code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatalf("fenced write on %s carries no Retry-After", fb)
		}
	}

	// The detectors converge without any operator POST: exactly one winner
	// under epoch 2, the loser re-pointed at it.
	role := func(base string) statsReply {
		var st statsReply
		getJSON(t, base+"/v1/stats", &st)
		return st
	}
	waitForCond(t, "exactly one self-promoted primary", func() bool {
		a, b := role(abase), role(bbase)
		if a.Replication.Role == "primary" && b.Replication.Role == "primary" {
			t.Fatalf("split brain: both a and b claim primary")
		}
		return a.Replication.Role == "primary" || b.Replication.Role == "primary"
	})
	winner, wbase, lbase := da, abase, bbase
	if role(bbase).Replication.Role == "primary" {
		winner, wbase, lbase = db, bbase, abase
	}
	if got := winner.Store().Epoch(); got != 2 {
		t.Fatalf("winner epoch %d, want 2", got)
	}
	ws := winner.Watcher().Status()
	if ws.ElectionsWon != 1 {
		t.Fatalf("winner counters %+v, want exactly one election won", ws)
	}
	waitForCond(t, "loser re-follows the winner", func() bool {
		st := role(lbase)
		return st.Replication.Role == "replica" && st.Replication.Primary == wbase &&
			st.Replication.Follower != nil && st.Replication.Follower.LagBytes == 0
	})
	ls := role(lbase)
	if ls.Replication.Watch == nil || ls.Replication.Watch.ElectionsLost < 1 {
		t.Fatalf("loser watch stats %+v, want at least one election lost", ls.Replication.Watch)
	}
	if ls.Replication.Watch.Suspicions < 1 || ls.Replication.Watch.Probes < 1 {
		t.Fatalf("loser watch stats %+v, want suspicion and probe counts", ls.Replication.Watch)
	}

	// Every pre-kill answer comes back warm and bit-identical from BOTH
	// survivors — to the dead primary's reply AND to a cold computation:
	// 12 cases × 2 daemons × 2 comparisons = 48 checks.
	for _, sb := range []string{wbase, lbase} {
		for _, c := range cases {
			var again partitionReply
			if code := postJSON(t, sb+"/v1/partition", c.body, &again); code != 200 {
				t.Fatalf("post-election ask on %s: HTTP %d for %s", sb, code, c.body)
			}
			if again.Tier != "hit" {
				t.Fatalf("%s answered %q (want hit) for %s", sb, again.Tier, c.body)
			}
			var cold core.Result
			var err error
			switch c.algo {
			case core.AlgoBasic:
				cold, err = core.Basic(c.n, fns, c.opts...)
			case core.AlgoModified:
				cold, err = core.Modified(c.n, fns, c.opts...)
			default:
				cold, err = core.Combined(c.n, fns, c.opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			if again.Slope != c.got.Slope {
				t.Fatalf("slope drift on %s for %s: pre-kill %v, now %v", sb, c.body, c.got.Slope, again.Slope)
			}
			for i := range cold.Alloc {
				if again.Alloc[i] != c.got.Alloc[i] || again.Alloc[i] != cold.Alloc[i] {
					t.Fatalf("share %d drift on %s for %s: pre-kill %d, now %d, cold %d",
						i, sb, c.body, c.got.Alloc[i], again.Alloc[i], cold.Alloc[i])
				}
			}
		}
	}

	// The new primary takes writes and they replicate to the loser.
	if code := postJSON(t, wbase+"/v1/models?label=second", testClusterDoc(t, 6, 8), nil); code != 200 {
		t.Fatalf("winner refused a write: HTTP %d", code)
	}
	waitForCond(t, "new model replicated to loser", func() bool {
		var models []modelReply
		getJSON(t, lbase+"/v1/models", &models)
		for _, m := range models {
			if m.Label == "default/second" {
				return true
			}
		}
		return false
	})

	// The zombie returns on its old directory under the old epoch; its late
	// frames are refused by the winner's fence.
	_, zbase := spawnDaemon(t, pdir)
	for i := 0; i < 2; i++ {
		if code := postJSON(t, zbase+"/v1/partition", []byte(`{"model":"lab","n":123456}`), nil); code != 200 {
			t.Fatalf("zombie ask: HTTP %d", code)
		}
	}
	var zst struct {
		Epoch  uint64 `json:"epoch"`
		Gen    uint64 `json:"gen"`
		Offset int64  `json:"offset"`
	}
	if code := getJSON(t, zbase+"/v1/replication/status", &zst); code != 200 {
		t.Fatalf("zombie status: HTTP %d", code)
	}
	if zst.Epoch != 1 {
		t.Fatalf("zombie epoch %d, want 1", zst.Epoch)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/replication/wal?gen=%d&offset=0&max=%d&wait=0",
		zbase, zst.Gen, zst.Offset+1024))
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(chunk) == 0 {
		t.Fatalf("zombie WAL read: %v (%d bytes)", err, len(chunk))
	}
	if _, err := winner.Store().IngestChunk(zst.Epoch, chunk); !errors.Is(err, store.ErrFencedEpoch) {
		t.Fatalf("zombie frames into winner store: got %v, want ErrFencedEpoch", err)
	}
}

// TestHandoverDemoteZeroDroppedReads is the planned-maintenance path: an
// operator demotes a live primary to its caught-up follower. The handover
// must be restart-free and invisible to readers — a background reader
// hammering both members sees zero non-200 responses — and afterwards the
// roles are exactly swapped: the successor takes writes, the old primary
// follows it, and the warm plans still answer as hits.
func TestHandoverDemoteZeroDroppedReads(t *testing.T) {
	doc := testClusterDoc(t, 8, 21)
	dp, pbase := startDaemon(t, Config{
		Dir:       t.TempDir(),
		ID:        "old",
		SyncEvery: 1,
	})
	if code := postJSON(t, pbase+"/v1/models?label=lab", doc, nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	warm := []byte(`{"model":"lab","n":700000}`)
	var before partitionReply
	for i := 0; i < 2; i++ {
		if code := postJSON(t, pbase+"/v1/partition", warm, &before); code != 200 {
			t.Fatalf("warm ask: HTTP %d", code)
		}
	}

	_, fbase := startDaemon(t, Config{
		Dir:           t.TempDir(),
		ID:            "new",
		ReplicaOf:     pbase,
		ReplicaWait:   50 * time.Millisecond,
		ReconnectBase: 5 * time.Millisecond,
		SyncEvery:     1,
	})
	waitStatus(t, fbase+"/readyz", 200)

	// Demoting a replica is a conflict, not a role change.
	if code := postJSON(t, fbase+"/v1/replication/demote",
		[]byte(fmt.Sprintf(`{"successor":%q}`, pbase)), nil); code != 409 {
		t.Fatalf("demote on a replica: HTTP %d, want 409", code)
	}

	// Background readers on both members for the whole handover window.
	var dropped, reads atomic.Int64
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		client := &http.Client{Timeout: 2 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, b := range []string{pbase, fbase} {
				resp, err := client.Post(b+"/v1/partition", "application/json", bytes.NewReader(warm))
				if err != nil {
					dropped.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				reads.Add(1)
				if resp.StatusCode != 200 {
					dropped.Add(1)
				}
			}
		}
	}()

	var dem struct {
		Demoted bool   `json:"demoted"`
		Epoch   uint64 `json:"epoch"`
		Role    string `json:"role"`
		Primary string `json:"primary"`
	}
	if code := postJSON(t, pbase+"/v1/replication/demote",
		[]byte(fmt.Sprintf(`{"successor":%q}`, fbase)), &dem); code != 200 {
		t.Fatalf("demote: HTTP %d", code)
	}
	if !dem.Demoted || dem.Epoch != 2 || dem.Role != "replica" || dem.Primary != fbase {
		t.Fatalf("demote reply %+v, want epoch-2 replica of the successor", dem)
	}
	// Let the readers observe the post-handover world too, then stop them.
	time.Sleep(150 * time.Millisecond)
	close(stop)
	<-readerDone
	if got := dropped.Load(); got != 0 {
		t.Fatalf("%d of %d reads dropped during a planned handover, want 0", got, reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("reader never ran")
	}

	// Roles are exactly swapped.
	var pst, fst statsReply
	getJSON(t, pbase+"/v1/stats", &pst)
	getJSON(t, fbase+"/v1/stats", &fst)
	if pst.Replication.Role != "replica" || pst.Replication.Primary != fbase {
		t.Fatalf("old primary stats %+v, want replica of %s", pst.Replication, fbase)
	}
	if pst.Replication.Handovers != 1 {
		t.Fatalf("old primary handovers %d, want 1", pst.Replication.Handovers)
	}
	if fst.Replication.Role != "primary" || fst.Replication.Shipper.Epoch != 2 {
		t.Fatalf("successor stats %+v, want epoch-2 primary", fst.Replication)
	}

	// Writes flow the reverse way now: refused by the old primary, accepted
	// by the successor, replicated back to the old primary.
	if code := postJSON(t, pbase+"/v1/models?label=late", doc, nil); code != 503 {
		t.Fatalf("demoted daemon accepted a write: HTTP %d", code)
	}
	if code := postJSON(t, fbase+"/v1/models?label=late", testClusterDoc(t, 5, 9), nil); code != 200 {
		t.Fatalf("successor refused a write: HTTP %d", code)
	}
	waitForCond(t, "write replicated back to the demoted daemon", func() bool {
		var models []modelReply
		getJSON(t, pbase+"/v1/models", &models)
		for _, m := range models {
			if m.Label == "default/late" {
				return true
			}
		}
		return false
	})

	// The warmed plan still answers as a bit-identical hit on the new
	// primary — warmth survived two role changes.
	var after partitionReply
	if code := postJSON(t, fbase+"/v1/partition", warm, &after); code != 200 {
		t.Fatalf("post-handover ask: HTTP %d", code)
	}
	if after.Tier != "hit" || after.Slope != before.Slope {
		t.Fatalf("post-handover answer %+v (tier %s), want warm hit matching %+v", after, after.Tier, before)
	}
	_ = dp
}

// TestHandoverTimeoutBlackholedSuccessor: a demote towards a successor
// that accepts connections and never answers gives up at the handover
// timeout, not at the poll client's own, and rolls back: writes resume on
// the primary.
func TestHandoverTimeoutBlackholedSuccessor(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c) // held open, never answered
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})

	_, base := startDaemon(t, Config{Dir: t.TempDir(), SyncEvery: 1})
	start := time.Now()
	code := postJSON(t, base+"/v1/replication/demote",
		[]byte(fmt.Sprintf(`{"successor":"http://%s","timeoutMs":200}`, ln.Addr())), nil)
	if took := time.Since(start); code != http.StatusGatewayTimeout || took > time.Second {
		t.Fatalf("demote towards a blackholed successor: HTTP %d after %v, want 504 within 1s", code, took)
	}
	if code := postJSON(t, base+"/v1/models?label=lab", testClusterDoc(t, 4, 3), nil); code != 200 {
		t.Fatalf("upload after the rolled-back demote: HTTP %d, want 200", code)
	}
}
