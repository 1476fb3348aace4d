package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"heteropart/internal/clusterio"
	"heteropart/internal/core"
	"heteropart/internal/speed"
)

// driftedProcessor returns doc's processor proc with its two tail knots
// slowed — drift that leaves small allocations bit-identical, so the
// refresh keeps small plans and drops billion-element ones.
func driftedProcessor(t *testing.T, doc []byte, proc int) clusterio.Processor {
	t.Helper()
	var c clusterio.Cluster
	if err := json.Unmarshal(doc, &c); err != nil {
		t.Fatal(err)
	}
	p := c.Processors[proc]
	p.Points = append([]speed.Point(nil), p.Points...)
	p.Points[len(p.Points)-1].Y *= 0.5
	p.Points[len(p.Points)-2].Y *= 0.7
	return p
}

func refreshBody(t *testing.T, proc int, p clusterio.Processor) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"proc": proc, "processor": p})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestDaemonDeltaRefreshEndpoint(t *testing.T) {
	doc := testClusterDoc(t, 6, 13)
	fns := docFunctions(t, doc)
	const proc = 2
	d, base := startDaemon(t, Config{Dir: t.TempDir()})

	if code := postJSON(t, base+"/v1/models?label=lab", doc, nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	// Cache two plans (asked twice each: the daemon's doorkeeper admits on
	// the second ask): one far below the drifted knots, one inside them.
	smallN, bigN := int64(400_000), int64(8_000_000_000)
	for _, n := range []int64{smallN, bigN} {
		ask := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
		for i := 0; i < 2; i++ {
			if code := postJSON(t, base+"/v1/partition", ask, nil); code != 200 {
				t.Fatalf("populate n=%d: HTTP %d", n, code)
			}
		}
	}

	drifted := driftedProcessor(t, doc, proc)
	var rr refreshReply
	if code := postJSON(t, base+"/v1/models/lab/refresh", refreshBody(t, proc, drifted), &rr); code != 200 {
		t.Fatalf("refresh: HTTP %d %+v", code, rr)
	}
	if !rr.Changed || rr.Fingerprint == rr.OldFingerprint || rr.Proc != proc {
		t.Fatalf("refresh reply: %+v", rr)
	}
	if rr.KeptPlans != 1 || rr.DroppedPlans != 1 {
		t.Fatalf("kept=%d dropped=%d, want 1/1 (small survives, big cannot)", rr.KeptPlans, rr.DroppedPlans)
	}

	// The label serves the refreshed model: the surviving plan is an
	// immediate hit, the dropped size recomputes — both bit-identical to a
	// cold compute under the new model.
	newFns := append([]speed.Function(nil), fns...)
	nf, _, err := (&clusterio.Cluster{Processors: []clusterio.Processor{drifted}}).Functions(1e9)
	if err != nil {
		t.Fatal(err)
	}
	newFns[proc] = nf[0]
	for _, tc := range []struct {
		n    int64
		tier string
	}{{smallN, "hit"}, {bigN, "miss"}} {
		var pr partitionReply
		ask := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, tc.n))
		if code := postJSON(t, base+"/v1/partition", ask, &pr); code != 200 {
			t.Fatalf("post-refresh n=%d: HTTP %d", tc.n, code)
		}
		if pr.Tier != tc.tier {
			t.Fatalf("post-refresh n=%d tier %q, want %q", tc.n, pr.Tier, tc.tier)
		}
		cold, err := core.Combined(tc.n, newFns)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold.Alloc {
			if pr.Alloc[i] != cold.Alloc[i] {
				t.Fatalf("n=%d proc=%d: served %d, cold %d", tc.n, i, pr.Alloc[i], cold.Alloc[i])
			}
		}
	}

	// Refresh and invalidation counters surface in /v1/stats.
	var stats statsReply
	if code := getJSON(t, base+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Cache.Refreshes != 1 || stats.Cache.RefreshKept != 1 || stats.Cache.RefreshDropped != 1 {
		t.Fatalf("cache refresh counters: %+v", stats.Cache)
	}
	if stats.Store.Refreshes != 1 {
		t.Fatalf("store refresh counter: %+v", stats.Store)
	}

	// Re-sending the same replacement is a no-op: fingerprints are equal.
	var again refreshReply
	if code := postJSON(t, base+"/v1/models/lab/refresh", refreshBody(t, proc, drifted), &again); code != 200 {
		t.Fatalf("no-op refresh: HTTP %d", code)
	}
	if again.Changed || again.Fingerprint != rr.Fingerprint {
		t.Fatalf("no-op refresh reply: %+v", again)
	}

	// The delta survives a restart: reopen on the same dir and serve the
	// kept plan warm under the new fingerprint.
	if got := len(d.Store().Models()); got != 1 {
		t.Fatalf("%d stored models after refresh", got)
	}

	// Error paths: unknown label, missing proc, out-of-range proc, junk route.
	if code := postJSON(t, base+"/v1/models/ghost/refresh", refreshBody(t, 0, drifted), nil); code != 404 {
		t.Fatalf("unknown label: HTTP %d", code)
	}
	var errReply map[string]string
	if code := postJSON(t, base+"/v1/models/lab/refresh", []byte(`{"processor":{}}`), &errReply); code != 400 ||
		!strings.Contains(errReply["error"], "proc") {
		t.Fatalf("missing proc: HTTP %d %v", code, errReply)
	}
	if code := postJSON(t, base+"/v1/models/lab/refresh", refreshBody(t, 17, drifted), &errReply); code != 400 ||
		!strings.Contains(errReply["error"], "out of range") {
		t.Fatalf("proc out of range: HTTP %d %v", code, errReply)
	}
	if code := postJSON(t, base+"/v1/models/lab/rewind", nil, nil); code != 404 {
		t.Fatalf("unknown subresource: HTTP %d", code)
	}
}

// TestDaemonRejectsMismatchedQualities pins the upload-validation fix: a
// model whose qualities vector disagrees with its points — more qualities
// than knots, or the same knot paired twice — is rejected with 400 and an
// error naming the processor, instead of failing later at partition time.
func TestDaemonRejectsMismatchedQualities(t *testing.T) {
	doc := testClusterDoc(t, 3, 8)
	_, base := startDaemon(t, Config{Dir: t.TempDir()})

	mutate := func(f func(c *clusterio.Cluster)) []byte {
		var c clusterio.Cluster
		if err := json.Unmarshal(doc, &c); err != nil {
			t.Fatal(err)
		}
		f(&c)
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	qualityAt := func(x float64) speed.PointQuality {
		return speed.PointQuality{X: x, Quality: speed.Quality{Samples: 3}}
	}

	dup := mutate(func(c *clusterio.Cluster) {
		x := c.Processors[1].Points[0].X
		c.Processors[1].Qualities = []speed.PointQuality{qualityAt(x), qualityAt(x)}
	})
	var errReply map[string]string
	if code := postJSON(t, base+"/v1/models?label=lab", dup, &errReply); code != 400 ||
		!strings.Contains(errReply["error"], "duplicate quality") ||
		!strings.Contains(errReply["error"], "p1") {
		t.Fatalf("duplicate quality: HTTP %d %v", code, errReply)
	}

	tooMany := mutate(func(c *clusterio.Cluster) {
		p := &c.Processors[2]
		for _, pt := range p.Points {
			p.Qualities = append(p.Qualities, qualityAt(pt.X))
		}
		p.Qualities = append(p.Qualities, qualityAt(p.Points[0].X))
	})
	if code := postJSON(t, base+"/v1/models?label=lab", tooMany, &errReply); code != 400 ||
		!strings.Contains(errReply["error"], "qualities for") ||
		!strings.Contains(errReply["error"], "p2") {
		t.Fatalf("too many qualities: HTTP %d %v", code, errReply)
	}

	// A well-formed qualities vector (at most one per knot) still uploads.
	good := mutate(func(c *clusterio.Cluster) {
		p := &c.Processors[0]
		for _, pt := range p.Points {
			p.Qualities = append(p.Qualities, qualityAt(pt.X))
		}
	})
	if code := postJSON(t, base+"/v1/models?label=lab", good, nil); code != 200 {
		t.Fatalf("valid qualities rejected: HTTP %d", code)
	}

	// The refresh endpoint runs the same validation on its one processor.
	var c clusterio.Cluster
	if err := json.Unmarshal(doc, &c); err != nil {
		t.Fatal(err)
	}
	bad := clusterio.Processor{Name: "px", Points: c.Processors[0].Points}
	x := bad.Points[0].X
	bad.Qualities = []speed.PointQuality{qualityAt(x), qualityAt(x)}
	if code := postJSON(t, base+"/v1/models/lab/refresh", refreshBody(t, 0, bad), &errReply); code != 400 ||
		!strings.Contains(errReply["error"], "duplicate quality") {
		t.Fatalf("refresh with bad qualities: HTTP %d %v", code, errReply)
	}
}

// TestDeltaRefreshConcurrentUpload races model uploads against
// one-processor refreshes of the same label: one goroutine alternately
// uploads two documents to "lab" while two others refresh different
// processors of it with varied drift. After every round the daemon must
// count exactly the models its store holds, and every fingerprint a reply
// named that the store no longer holds must be unknown to the daemon, so
// a dropped model can never serve a plan.
func TestDeltaRefreshConcurrentUpload(t *testing.T) {
	docs := [2][]byte{testClusterDoc(t, 6, 31), testClusterDoc(t, 6, 32)}
	d, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=lab", docs[0], nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	const rounds, perRound = 5, 60 // 300 requests per goroutine
	var mu sync.Mutex
	named := make(map[string]bool)
	post := func(url string, body []byte, out any) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil || resp.StatusCode != 200 {
			t.Errorf("POST %s: HTTP %d, %v", url, resp.StatusCode, err)
		}
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < perRound; i++ {
				var up modelReply
				post(base+"/v1/models?label=lab", docs[i%2], &up)
				mu.Lock()
				named[up.Fingerprint] = true
				mu.Unlock()
			}
		}()
		for _, proc := range []int{1, 4} {
			drifted := driftedProcessor(t, docs[0], proc)
			go func(proc int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					p := drifted
					p.Points = append([]speed.Point(nil), drifted.Points...)
					p.Points[len(p.Points)-1].Y *= 1 - float64(round*perRound+i)/1000
					body, _ := json.Marshal(map[string]any{"proc": proc, "processor": p})
					var rr refreshReply
					post(base+"/v1/models/lab/refresh", body, &rr)
					mu.Lock()
					named[rr.Fingerprint], named[rr.OldFingerprint] = true, true
					mu.Unlock()
				}
			}(proc)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		var st statsReply
		getJSON(t, base+"/v1/stats", &st)
		if st.Models != st.Store.Models {
			t.Fatalf("round %d: daemon counts %d models, its store holds %d", round, st.Models, st.Store.Models)
		}
		for hex := range named {
			fp, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				t.Fatalf("reply named fingerprint %q", hex)
			}
			if _, ok := d.Store().Model(fp); ok {
				continue
			}
			var reply map[string]any
			code := postJSON(t, base+"/v1/partition", []byte(`{"model":"`+hex+`","n":500000}`), &reply)
			if msg, _ := reply["error"].(string); code != 400 || !strings.Contains(msg, "unknown model") {
				t.Fatalf("round %d: dropped model %s answers HTTP %d %v", round, hex, code, reply)
			}
		}
	}
}
