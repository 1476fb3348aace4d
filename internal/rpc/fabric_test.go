package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"heteropart/internal/core"
	"heteropart/internal/fabric"
	"heteropart/internal/plancache"
)

// startFabricCluster boots k independent daemons (own store each, no
// replication) and joins them into one fabric, the way a production
// fleet would come up with -fabric-self + -peers.
func startFabricCluster(t *testing.T, k int, cfg Config) ([]*Daemon, []string) {
	t.Helper()
	daemons := make([]*Daemon, k)
	bases := make([]string, k)
	for i := 0; i < k; i++ {
		c := cfg
		c.Dir = t.TempDir()
		daemons[i], bases[i] = startDaemon(t, c)
	}
	for i, d := range daemons {
		var peers []string
		for j, b := range bases {
			if j != i {
				peers = append(peers, b)
			}
		}
		d.SetPeers(peers)
		if err := d.EnableFabric(bases[i]); err != nil {
			t.Fatal(err)
		}
	}
	return daemons, bases
}

// postRaw posts a body and returns the raw response bytes — the
// bit-identity checks compare bytes, not parsed values.
func postRawHdr(t *testing.T, url string, body []byte, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// ownedN scans for a problem size whose plan family the fabric assigns to
// the member at wantBase.
func ownedN(t *testing.T, f *fabric.Fabric, model string, wantBase string, from int64) int64 {
	t.Helper()
	tenant, family := fabric.TenantSpan([]byte(model))
	for n := from; n < from+1_000_000; n += 1000 {
		if f.URL(f.OwnerIndex(tenant, family, n)) == wantBase {
			return n
		}
	}
	t.Fatalf("no n in [%d, %d) owned by %s", from, from+1_000_000, wantBase)
	return 0
}

// warmHit posts the body until the daemon answers it from the warm cache
// (the doorkeeper admits on the second ask), returning the warm bytes.
func warmHit(t *testing.T, base string, body []byte) []byte {
	t.Helper()
	for i := 0; i < 6; i++ {
		code, data, _ := postRawHdr(t, base+"/v1/partition", body, nil)
		if code != 200 {
			t.Fatalf("warming %s with %s: HTTP %d: %s", base, body, code, data)
		}
		if bytes.Contains(data, []byte(`"tier":"hit"`)) {
			return data
		}
	}
	t.Fatalf("no warm hit on %s after 6 asks of %s", base, body)
	return nil
}

// TestFabricForwardBitIdentity is the fabric's core contract: a request
// served through a forwarding edge returns byte-for-byte what the owner
// serves locally — the edge relays the owner's bytes, never re-encoded.
func TestFabricForwardBitIdentity(t *testing.T) {
	doc := testClusterDoc(t, 7, 11)
	daemons, bases := startFabricCluster(t, 3, Config{})
	for _, b := range bases {
		if code := postJSON(t, b+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", b, code)
		}
	}
	// An n owned by daemon 0, asked through daemon 1.
	owner, edge := 0, 1
	n := ownedN(t, daemons[edge].Fabric(), "lab", bases[owner], 300_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))

	local := warmHit(t, bases[owner], body)

	code, viaEdge, hdr := postRawHdr(t, bases[edge]+"/v1/partition", body, nil)
	if code != 200 {
		t.Fatalf("forwarded ask: HTTP %d: %s", code, viaEdge)
	}
	if !bytes.Equal(viaEdge, local) {
		t.Fatalf("forwarded response differs from owner-local:\nowner: %s\nedge:  %s", local, viaEdge)
	}
	if got := hdr.Get("Content-Type"); got != "application/json" {
		t.Fatalf("forwarded Content-Type %q", got)
	}
	ef := daemons[edge].Fabric()
	if ef.Forwarded.Load() == 0 {
		t.Fatal("edge did not count the forward")
	}
	if ef.RemoteHits.Load() == 0 {
		t.Fatal("edge did not count the remote warm hit")
	}
	if daemons[owner].Fabric().ForwardedIn.Load() == 0 {
		t.Fatal("owner did not count the inbound forward")
	}
	// The tenant ledger on the edge attributes the forward to default.
	var stats statsReply
	if code := getJSON(t, bases[edge]+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	ten, ok := stats.Tenants["default"]
	if !ok || ten.Forwarded == 0 || ten.RemoteHits == 0 {
		t.Fatalf("edge tenant stats: %+v", stats.Tenants)
	}

	// A batch whose elements all live in one remote family forwards whole
	// and stays bit-identical too.
	batch := []byte(fmt.Sprintf(`{"requests":[{"model":"lab","n":%d},{"model":"lab","n":%d}]}`, n, n))
	localBatch := warmHit(t, bases[owner], batch)
	code, edgeBatch, _ := postRawHdr(t, bases[edge]+"/v1/partition", batch, nil)
	if code != 200 || !bytes.Equal(edgeBatch, localBatch) {
		t.Fatalf("forwarded batch differs (HTTP %d):\nowner: %s\nedge:  %s", code, localBatch, edgeBatch)
	}
}

// TestFabricOwnerDownFallback: when the owner dies, edges must serve its
// families locally — zero dropped requests, warmth is the only casualty.
func TestFabricOwnerDownFallback(t *testing.T) {
	doc := testClusterDoc(t, 6, 5)
	daemons, bases := startFabricCluster(t, 3, Config{FabricTimeout: 500 * time.Millisecond})
	for _, b := range bases {
		if code := postJSON(t, b+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", b, code)
		}
	}
	owner, edge := 2, 0
	n := ownedN(t, daemons[edge].Fabric(), "lab", bases[owner], 200_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))

	// Healthy path forwards.
	if code, _, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil); code != 200 {
		t.Fatalf("pre-kill ask: HTTP %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	daemons[owner].Shutdown(ctx)

	const asks = 20
	for i := 0; i < asks; i++ {
		code, data, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil)
		if code != 200 {
			t.Fatalf("ask %d after owner death: HTTP %d: %s — a dead owner must not drop requests", i, code, data)
		}
	}
	ef := daemons[edge].Fabric()
	if ef.FallbackLocal.Load() == 0 || ef.ForwardErrors.Load() == 0 {
		t.Fatalf("edge counters after owner death: %+v", ef.Status())
	}
}

// uploadAll uploads doc as model "lab" to every member.
func uploadAll(t *testing.T, bases []string, doc []byte) {
	t.Helper()
	for _, b := range bases {
		if code := postJSON(t, b+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", b, code)
		}
	}
}

// TestFabricForwardChunkedBatch: a uniform-owner batch whose reply
// crosses batchFlushBytes streams from the owner in chunked framing, and
// the edge still relays it byte-for-byte.
func TestFabricForwardChunkedBatch(t *testing.T) {
	daemons, bases := startFabricCluster(t, 3, Config{})
	uploadAll(t, bases, testClusterDoc(t, 7, 11))
	owner, edge := 0, 1
	n := ownedN(t, daemons[edge].Fabric(), "lab", bases[owner], 300_000)
	elem := fmt.Sprintf(`{"model":"lab","n":%d}`, n)
	const k = 1000
	batch := []byte(`{"requests":[` + strings.Repeat(elem+",", k-1) + elem + `]}`)

	// Warm until every element is a hit, so the owner's bytes are stable.
	var local []byte
	for i := 0; i < 6 && local == nil; i++ {
		code, data, _ := postRawHdr(t, bases[owner]+"/v1/partition", batch, nil)
		if code != 200 {
			t.Fatalf("warming the batch: HTTP %d: %.200s", code, data)
		}
		if !bytes.Contains(data, []byte(`"tier":"miss"`)) && !bytes.Contains(data, []byte(`"tier":"shared"`)) {
			local = data
		}
	}
	if local == nil {
		t.Fatal("batch never became all hits")
	}
	if len(local) <= batchFlushBytes {
		t.Fatalf("batch reply is %d bytes, not past batchFlushBytes (%d)", len(local), batchFlushBytes)
	}
	// The owner answers a fenced ask (what the relay sends) chunked.
	req, err := http.NewRequest(http.MethodPost, bases[owner]+"/v1/partition", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(fabric.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fenced, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" || !bytes.Equal(fenced, local) {
		t.Fatalf("fenced batch: transfer encoding %v, err %v, equal to owner-local %v",
			resp.TransferEncoding, err, bytes.Equal(fenced, local))
	}

	ef := daemons[edge].Fabric()
	before := ef.Forwarded.Load()
	code, viaEdge, _ := postRawHdr(t, bases[edge]+"/v1/partition", batch, nil)
	if code != 200 || !bytes.Equal(viaEdge, local) {
		t.Fatalf("relayed chunked batch differs from owner-local (HTTP %d, %d vs %d bytes)", code, len(viaEdge), len(local))
	}
	if got := ef.Forwarded.Load() - before; got != 1 {
		t.Fatalf("edge counted %d forwards for the batch, want 1", got)
	}
}

// TestFabricForwardAfterIdleClose: when the owner closes its idle
// keep-alives between two forwards, the second forward still succeeds —
// the relay retries once on a fresh dial — and is not counted as a
// forward error.
func TestFabricForwardAfterIdleClose(t *testing.T) {
	daemons, bases := startFabricCluster(t, 2, Config{})
	uploadAll(t, bases, testClusterDoc(t, 5, 9))
	owner, edge := 1, 0
	n := ownedN(t, daemons[edge].Fabric(), "lab", bases[owner], 100_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
	local := warmHit(t, bases[owner], body)

	ef := daemons[edge].Fabric()
	if code, data, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil); code != 200 || !bytes.Equal(data, local) {
		t.Fatalf("first forward: HTTP %d: %s", code, data)
	}
	forwarded, errs := ef.Forwarded.Load(), ef.ForwardErrors.Load()

	// The relay's keep-alives end on the owner's raw edge: close the idle
	// ones there.
	daemons[owner].edge.closeIdle(false)

	if code, data, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil); code != 200 || !bytes.Equal(data, local) {
		t.Fatalf("forward after the owner dropped its keep-alives: HTTP %d: %s", code, data)
	}
	if got := ef.Forwarded.Load(); got != forwarded+1 {
		t.Fatalf("Forwarded = %d, want %d", got, forwarded+1)
	}
	if got := ef.ForwardErrors.Load(); got != errs {
		t.Fatalf("ForwardErrors moved from %d to %d on a dropped keep-alive", errs, got)
	}
}

// TestFabricForwardConcurrent: eight clients forwarding through one edge
// at once share its relay pools, and every answer stays bit-identical to
// the owner's. The model lives on the owners only, so the edge can
// neither answer nor keep a plan: every ask is a relay.
func TestFabricForwardConcurrent(t *testing.T) {
	daemons, bases := startFabricCluster(t, 3, Config{})
	edge := 0
	uploadAll(t, bases[edge+1:], testClusterDoc(t, 6, 21))
	ef := daemons[edge].Fabric()
	var bodies, want [][]byte
	for owner := 1; owner < 3; owner++ {
		from := int64(200_000)
		for j := 0; j < 2; j++ {
			n := ownedN(t, ef, "lab", bases[owner], from)
			from = n + 1000
			body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
			bodies = append(bodies, body)
			want = append(want, warmHit(t, bases[owner], body))
		}
	}
	before := ef.Forwarded.Load()
	const clients, asks = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < asks; i++ {
				k := (c + i) % len(bodies)
				resp, err := http.Post(bases[edge]+"/v1/partition", "application/json", bytes.NewReader(bodies[k]))
				if err != nil {
					t.Errorf("client %d ask %d: %v", c, i, err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || !bytes.Equal(data, want[k]) {
					t.Errorf("client %d ask %d: HTTP %d err %v, bit-identical %v", c, i, resp.StatusCode, err, bytes.Equal(data, want[k]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	// A connection a client dialed but never sent a request on would
	// hold the edge's graceful shutdown for net/http's 5 s grace period.
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	if got := ef.Forwarded.Load() - before; got != clients*asks {
		t.Fatalf("edge forwarded %d of %d asks", got, clients*asks)
	}
	if got := ef.ForwardErrors.Load(); got != 0 {
		t.Fatalf("%d forward errors under concurrency", got)
	}
}

// TestFabricEdgeHit: a member keeps the owner's same-model hits it
// relays — the doorkeeper admits the second — and from then on answers
// the plan from its own cache with the owner's exact bytes, no forward
// and no WAL record. A different model under the label never answers
// the kept plan.
func TestFabricEdgeHit(t *testing.T) {
	daemons, bases := startFabricCluster(t, 2, Config{})
	uploadAll(t, bases, testClusterDoc(t, 6, 41))
	owner, edge := 0, 1
	ed := daemons[edge]
	ef := ed.Fabric()
	n := ownedN(t, ef, "lab", bases[owner], 300_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
	local := warmHit(t, bases[owner], body)
	askEdge := func(want []byte) {
		t.Helper()
		code, data, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil)
		if code != 200 || !bytes.Equal(data, want) {
			t.Fatalf("ask through the edge: HTTP %d, not the owner's bytes:\nowner: %s\nedge:  %s", code, want, data)
		}
	}

	before := ed.store.Stats()
	for i := 0; i < 4; i++ {
		askEdge(local)
	}
	if fw, eh := ef.Forwarded.Load(), ef.EdgeHits.Load(); fw != 2 || eh != 2 {
		t.Fatalf("the edge forwarded %d and answered %d of 4 asks, want 2 and 2", fw, eh)
	}
	var stats statsReply
	if code := getJSON(t, bases[edge]+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Fabric == nil || stats.Fabric.EdgeHits != 2 || stats.Tenants["default"].Hits != 2 {
		t.Fatalf("edge stats: fabric %+v, tenants %+v", stats.Fabric, stats.Tenants)
	}
	if after := ed.store.Stats(); after.WALRecords != before.WALRecords || after.Plans != before.Plans {
		t.Fatalf("the edge's store took the kept plan: WAL records %d -> %d, plans %d -> %d",
			before.WALRecords, after.WALRecords, before.Plans, after.Plans)
	}

	// A new model under the label on the edge drops the kept plan with
	// the old model; while the owner still holds the old one, the edge
	// relays its bytes and keeps nothing.
	old, _ := ed.store.ModelByLabel([]byte("lab"))
	doc2 := testClusterDoc(t, 6, 42)
	if code := postJSON(t, bases[edge]+"/v1/models?label=lab", doc2, nil); code != 200 {
		t.Fatalf("re-upload to the edge: HTTP %d", code)
	}
	if _, ok := ed.cache.Peek(old, core.AlgoCombined, n); ok {
		t.Fatal("the kept plan outlived its model")
	}
	for i := 0; i < 3; i++ {
		askEdge(local)
	}
	if eh := ef.EdgeHits.Load(); eh != 2 {
		t.Fatalf("the edge answered %d asks from its cache across a model change, want 0", eh-2)
	}
	// Once the owner holds the new model too, the edge keeps its plan.
	if code := postJSON(t, bases[owner]+"/v1/models?label=lab", doc2, nil); code != 200 {
		t.Fatalf("re-upload to the owner: HTTP %d", code)
	}
	local2 := warmHit(t, bases[owner], body)
	if bytes.Equal(local2, local) {
		t.Fatal("the two models answer the same plan; the test cannot tell them apart")
	}
	for i := 0; i < 3; i++ {
		askEdge(local2)
	}
	if eh := ef.EdgeHits.Load(); eh != 3 {
		t.Fatalf("edge hits %d after the owner took the new model, want 3", eh)
	}
}

// TestFabricDivergedCatalogNoEdgeAdmit: when the edge and the owner hold
// different models under one label, the owner's hits are not plans of
// the edge's model. The edge relays the owner's bytes every time, its
// cache takes nothing, and it never answers from its own cache.
func TestFabricDivergedCatalogNoEdgeAdmit(t *testing.T) {
	daemons, bases := startFabricCluster(t, 2, Config{})
	owner, edge := 1, 0
	for i, doc := range [][]byte{testClusterDoc(t, 6, 43), testClusterDoc(t, 6, 44)} {
		if code := postJSON(t, bases[i]+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", bases[i], code)
		}
	}
	ed := daemons[edge]
	ef := ed.Fabric()
	n := ownedN(t, ef, "lab", bases[owner], 300_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
	local := warmHit(t, bases[owner], body)
	for i := 0; i < 6; i++ {
		code, data, _ := postRawHdr(t, bases[edge]+"/v1/partition", body, nil)
		if code != 200 || !bytes.Equal(data, local) {
			t.Fatalf("ask %d through the edge: HTTP %d, not the owner's bytes:\nowner: %s\nedge:  %s", i, code, local, data)
		}
	}
	if fw, rh, eh := ef.Forwarded.Load(), ef.RemoteHits.Load(), ef.EdgeHits.Load(); fw != 6 || rh != 6 || eh != 0 {
		t.Fatalf("edge forwarded %d (remote hits %d) and answered %d of 6, want 6 (6) and 0", fw, rh, eh)
	}
	if st := ed.cache.Stats(); st.Size != 0 {
		t.Fatalf("the edge's cache took %d plans of another model", st.Size)
	}
}

// FuzzRemotePlan feeds arbitrary bodies to the edge's keep rule. It never
// panics, and a plan it keeps re-encodes to exactly its input, as does the
// encoding it keeps with it: the bytes a later edge hit answers.
func FuzzRemotePlan(f *testing.F) {
	const stats = `"stats":{"Algorithm":"combined","Steps":7,"Intersections":36,"FineTuneMoves":2,"UsedModified":false}`
	for _, seed := range []string{
		`{"alloc":[373225,57955,224343,344477],"slope":534.8956859832196,"tier":"hit",` + stats + "}\n",
		`{"alloc":[373225,57955,224343,344477],"slope":534.8956859832196,"tier":"miss",` + stats + "}\n",
		`{"alloc":[373225,57955,224343,344477],"slope":534.8956859832196,"tier":"hit",` + stats + "}",
		`{"tier":"hit","alloc":[1,2],"slope":5.0e2,` + stats + "}\n",
		`{"ALLOC":[1,2],"slope":2,"tier":"hit",` + stats + "}\n",
		`{"alloc":[1,2],"alloc":[3],"slope":2,"tier":"hit",` + stats + "}\n",
		`{"alloc":[1,2],"slope":2,"tier":"\u0068it",` + stats + "}\n",
		`{"alloc":[1,2],"slope":2,"tier":"hit",` + stats + `,"error":"x"}` + "\n",
		`{"stats":{"Algorithm":"","Steps":0,"Intersections":0,"FineTuneMoves":0,"UsedModified":false}}` + "\n",
		`{"error":"unknown model \"m\""}` + "\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		res, kept, ok := remotePlan(body)
		if !ok {
			return
		}
		if enc := append(appendReply(nil, res.Alloc, res.Slope, "hit", &res.Stats, ""), '\n'); !bytes.Equal(enc, body) {
			t.Fatalf("kept %q, which re-encodes to %q", body, enc)
		}
		if hit := append(appendPlanReply(nil, kept, plancache.TierHit), '\n'); !bytes.Equal(hit, body) {
			t.Fatalf("kept %q with an encoding that answers %q", body, hit)
		}
	})
}

// TestFabricOwnerBlackholed: an owner that accepts connections and never
// answers costs its keys one -fabric-timeout, then local compute answers
// 200; the timed-out connection is closed, not returned to the pool.
func TestFabricOwnerBlackholed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hangups := make(chan struct{}, 16)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, c) // read the request, never answer
				select {
				case hangups <- struct{}{}:
				default:
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	hole := "http://" + ln.Addr().String()

	const timeout = 300 * time.Millisecond
	d, base := startDaemon(t, Config{Dir: t.TempDir(), FabricTimeout: timeout})
	d.SetPeers([]string{hole})
	if err := d.EnableFabric(base); err != nil {
		t.Fatal(err)
	}
	uploadAll(t, []string{base}, testClusterDoc(t, 5, 13))
	n := ownedN(t, d.Fabric(), "lab", hole, 100_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))

	start := time.Now()
	code, data, _ := postRawHdr(t, base+"/v1/partition", body, nil)
	took := time.Since(start)
	if code != 200 || !bytes.Contains(data, []byte(`"alloc"`)) {
		t.Fatalf("ask owned by a blackholed member: HTTP %d: %s", code, data)
	}
	if took > timeout+time.Second {
		t.Fatalf("local fallback took %v, want under %v", took, timeout+time.Second)
	}
	if f := d.Fabric(); f.ForwardErrors.Load() != 1 || f.FallbackLocal.Load() != 1 {
		t.Fatalf("edge counters after a blackholed forward: %+v", f.Status())
	}
	select {
	case <-hangups:
	case <-time.After(5 * time.Second):
		t.Fatal("the timed-out relay connection was kept open")
	}
}

// TestFabricForwardFence: a request already carrying the fence header is
// served locally no matter who owns it — one hop, never a cycle.
func TestFabricForwardFence(t *testing.T) {
	doc := testClusterDoc(t, 5, 17)
	daemons, bases := startFabricCluster(t, 2, Config{})
	for _, b := range bases {
		if code := postJSON(t, b+"/v1/models?label=lab", doc, nil); code != 200 {
			t.Fatalf("upload to %s: HTTP %d", b, code)
		}
	}
	// n owned by daemon 1, posted to daemon 0 WITH the fence: daemon 0
	// must answer itself.
	n := ownedN(t, daemons[0].Fabric(), "lab", bases[1], 100_000)
	body := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
	fence := map[string]string{fabric.ForwardedHeader: "1"}

	code, _, hdr := postRawHdr(t, bases[0]+"/v1/partition", body, fence)
	if code != 200 {
		t.Fatalf("fenced ask: HTTP %d", code)
	}
	if got := hdr.Get(fabric.TierHeader); got == "" {
		t.Fatal("owner-side response missing the tier header")
	}
	f0 := daemons[0].Fabric()
	if f0.Forwarded.Load() != 0 {
		t.Fatal("fenced request was re-forwarded")
	}
	if f0.ForwardedIn.Load() == 0 {
		t.Fatal("fenced request not counted as inbound")
	}
	if daemons[1].Fabric().ForwardedIn.Load() != 0 {
		t.Fatal("fence leaked to the owner")
	}
}

// TestTenantQuotaNoisyNeighbor: tenant a exhausting its bucket answers
// 429 + Retry-After while tenant b's warm hit rate is untouched.
func TestTenantQuotaNoisyNeighbor(t *testing.T) {
	_, base := startDaemon(t, Config{Dir: t.TempDir(), TenantQPS: 5, TenantBurst: 20})
	if code := postJSON(t, base+"/v1/models?label=a/m", testClusterDoc(t, 5, 3), nil); code != 200 {
		t.Fatalf("upload a/m: HTTP %d", code)
	}
	if code := postJSON(t, base+"/v1/models?label=b/m", testClusterDoc(t, 5, 4), nil); code != 200 {
		t.Fatalf("upload b/m: HTTP %d", code)
	}
	bBody := []byte(`{"model":"b/m","n":500000}`)
	warmHit(t, base, bBody)

	// Tenant a burns far past its burst.
	aBody := []byte(`{"model":"a/m","n":500000}`)
	rejected := 0
	for i := 0; i < 60; i++ {
		code, _, hdr := postRawHdr(t, base+"/v1/partition", aBody, nil)
		switch code {
		case 200:
		case 429:
			rejected++
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("tenant a ask %d: HTTP %d", i, code)
		}
	}
	if rejected == 0 {
		t.Fatal("tenant a was never throttled past its burst")
	}

	// Tenant b is a well-behaved neighbor: every ask admitted, every ask
	// still a warm hit.
	for i := 0; i < 10; i++ {
		code, data, _ := postRawHdr(t, base+"/v1/partition", bBody, nil)
		if code != 200 {
			t.Fatalf("tenant b ask %d: HTTP %d — a's throttling must not leak", i, code)
		}
		if !bytes.Contains(data, []byte(`"tier":"hit"`)) {
			t.Fatalf("tenant b ask %d lost its warm hit: %s", i, data)
		}
	}

	var stats statsReply
	if code := getJSON(t, base+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Tenants["a"].Rejected == 0 {
		t.Fatalf("tenant a shows no rejections: %+v", stats.Tenants)
	}
	if b := stats.Tenants["b"]; b.Rejected != 0 || b.Hits < 11 {
		t.Fatalf("tenant b was affected: %+v", b)
	}
}

// TestPartitionBatchStreaming: a batch large enough to cross the
// streaming threshold parses as one well-formed document with every
// element answered, and matches the non-streamed encoding byte-for-byte
// element-wise.
func TestPartitionBatchStreaming(t *testing.T) {
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=m", testClusterDoc(t, 5, 8), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	// A handful of distinct problem sizes repeated 3000 times: the
	// response is far past batchFlushBytes while the daemon serves almost
	// everything from cache.
	const k = 3000
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < k; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"model":"m","n":%d}`, 100_000+(i%8)*50_000)
	}
	sb.WriteString(`]}`)
	body := []byte(sb.String())

	code, data, _ := postRawHdr(t, base+"/v1/partition", body, nil)
	if code != 200 {
		t.Fatalf("batch: HTTP %d", code)
	}
	if len(data) < batchFlushBytes {
		t.Fatalf("response only %d bytes — does not exercise streaming (threshold %d)", len(data), batchFlushBytes)
	}
	var parsed struct {
		Responses []partitionReply `json:"responses"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("streamed batch is not valid JSON: %v", err)
	}
	if len(parsed.Responses) != k {
		t.Fatalf("%d responses, want %d", len(parsed.Responses), k)
	}
	for i, pr := range parsed.Responses {
		if pr.Error != "" || len(pr.Alloc) != 5 {
			t.Fatalf("element %d: %+v", i, pr)
		}
	}
	// Once every plan is cached (the doorkeeper admits on the second
	// ask), consecutive asks are all warm hits and the stream must be
	// byte-stable.
	_, warm1, _ := postRawHdr(t, base+"/v1/partition", body, nil)
	for i := 0; i < 3 && bytes.Contains(warm1, []byte(`"tier":"miss"`)); i++ {
		_, warm1, _ = postRawHdr(t, base+"/v1/partition", body, nil)
	}
	code2, warm2, _ := postRawHdr(t, base+"/v1/partition", body, nil)
	if code2 != 200 || !bytes.Equal(warm1, warm2) {
		t.Fatalf("consecutive warm asks of the streamed batch differ (HTTP %d)", code2)
	}
}

// TestValidatePeers covers the -peers startup validation: duplicates and
// self-references are configuration errors, not runtime surprises.
func TestValidatePeers(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"duplicate", Config{Dir: dir, Peers: []string{"http://10.0.0.2:7411", "http://10.0.0.2:7411"}}},
		{"empty entry", Config{Dir: dir, Peers: []string{""}}},
		{"own id", Config{Dir: dir, ID: "node-a", Peers: []string{"node-a"}}},
		{"own address", Config{Dir: dir, Addr: "127.0.0.1:7411", Peers: []string{"http://127.0.0.1:7411"}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: config accepted, want error", c.name)
		}
	}
	// A clean list still boots.
	d, err := New(Config{Dir: t.TempDir(), Addr: "127.0.0.1:0", Peers: []string{"http://10.0.0.2:7411"}})
	if err != nil {
		t.Fatalf("valid peers rejected: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.Shutdown(ctx)
}
