package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"heteropart/internal/clusterio"
	"heteropart/internal/core"
	"heteropart/internal/speed"
	"heteropart/internal/store"
)

// testClusterDoc builds a deterministic clusterio document whose
// processors carry measured points, so the daemon and the test expand the
// exact same speed functions.
func testClusterDoc(t *testing.T, p int, seed uint32) []byte {
	t.Helper()
	doc := clusterio.Cluster{}
	s := seed
	for i := 0; i < p; i++ {
		s = s*1664525 + 1013904223
		peak := 1e7 * (1 + float64(s%900)/100)
		s = s*1664525 + 1013904223
		paging := 1e7 * (1 + float64(s%50))
		a := &speed.Analytic{
			Peak: peak, HalfRise: 1e3, CacheEdge: 1e5, CacheDecay: 0.8,
			PagingPoint: paging, PagingWidth: paging / 5, PagingFloor: 0.02,
			Max: 2e9,
		}
		pts := make([]speed.Point, 0, 12)
		for x := 1e3; x < a.Max; x *= 8 {
			pts = append(pts, speed.Point{X: x, Y: a.Eval(x)})
		}
		pts = append(pts, speed.Point{X: a.Max, Y: a.Eval(a.Max)})
		doc.Processors = append(doc.Processors, clusterio.Processor{
			Name:   fmt.Sprintf("p%d", i),
			Points: speed.EnforceShape(pts),
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// docFunctions expands the document exactly as the daemon does.
func docFunctions(t *testing.T, doc []byte) []speed.Function {
	t.Helper()
	c, err := clusterio.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	fns, _, err := c.Functions(1e9)
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

// startDaemon runs an in-process daemon on an ephemeral port.
func startDaemon(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return d, "http://" + addr.String()
}

func postJSON(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: bad body %q: %v", url, data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestDaemonEndToEnd(t *testing.T) {
	doc := testClusterDoc(t, 9, 7)
	fns := docFunctions(t, doc)
	_, base := startDaemon(t, Config{Dir: t.TempDir()})

	var up modelReply
	if code := postJSON(t, base+"/v1/models?label=lab", doc, &up); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	if up.Processors != 9 || up.Replaced {
		t.Fatalf("upload reply: %+v", up)
	}

	var models []modelReply
	if code := getJSON(t, base+"/v1/models", &models); code != 200 || len(models) != 1 {
		t.Fatalf("models list: %+v", models)
	}
	if models[0].Fingerprint != fpString(speed.Fingerprint(fns)) {
		t.Fatalf("fingerprint %s != local %s", models[0].Fingerprint, fpString(speed.Fingerprint(fns)))
	}

	// The daemon runs doorkeeper admission: the first ask computes the plan
	// and keeps it in the admission window, the second admits that very
	// plan as a hit, the third hits the LRU. All three answers carry the
	// same bytes apart from the tier: allocation, slope bits and Stats.
	const n = 700_000
	ask := []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, n))
	var raw [3][]byte
	var replies [3]partitionReply
	for i := range raw {
		code, data, _ := postRawHdr(t, base+"/v1/partition", ask, nil)
		if code != 200 {
			t.Fatalf("ask %d: HTTP %d: %s", i+1, code, data)
		}
		if err := json.Unmarshal(data, &replies[i]); err != nil {
			t.Fatalf("ask %d: bad body %q: %v", i+1, data, err)
		}
		raw[i] = data
	}
	first, second, third := replies[0], replies[1], replies[2]
	if first.Tier != "miss" || second.Tier != "hit" || third.Tier != "hit" {
		t.Fatalf("tiers %s/%s/%s, want miss/hit/hit", first.Tier, second.Tier, third.Tier)
	}
	if want := bytes.Replace(raw[0], []byte(`"tier":"miss"`), []byte(`"tier":"hit"`), 1); !bytes.Equal(raw[1], want) {
		t.Fatalf("second answer is not the first one's plan:\n%s\n%s", raw[1], raw[0])
	}
	if !bytes.Equal(raw[2], raw[1]) {
		t.Fatalf("third answer differs from the second:\n%s\n%s", raw[2], raw[1])
	}
	if math.Float64bits(second.Slope) != math.Float64bits(first.Slope) || second.Stats != first.Stats ||
		fmt.Sprint(second.Alloc) != fmt.Sprint(first.Alloc) {
		t.Fatalf("second answer %+v differs from the first %+v", second, first)
	}
	// The served allocation is bit-identical to a local tangent-bisection
	// computation (the served regula-falsi search ends on another slope,
	// never another allocation).
	want, err := core.Combined(n, fns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Alloc {
		if third.Alloc[i] != want.Alloc[i] {
			t.Fatalf("share %d: served %d != cold %d", i, third.Alloc[i], want.Alloc[i])
		}
	}
	if third.Slope != second.Slope {
		t.Fatalf("hit slope %v != computed slope %v", third.Slope, second.Slope)
	}

	// Fingerprint addressing works too.
	viaHex := []byte(fmt.Sprintf(`{"model":"%s","n":%d}`, fpString(speed.Fingerprint(fns)), n))
	var viaFP partitionReply
	if code := postJSON(t, base+"/v1/partition", viaHex, &viaFP); code != 200 || viaFP.Tier != "hit" {
		t.Fatalf("by fingerprint: HTTP %d, tier %s", code, viaFP.Tier)
	}

	// Batched mixed algorithms and options in one POST.
	batch := []byte(fmt.Sprintf(`{"requests":[
		{"model":"lab","n":%d},
		{"model":"lab","n":%d,"algo":"basic"},
		{"model":"lab","n":%d,"algo":"modified","options":{"fineTune":false}},
		{"model":"lab","n":%d,"algo":"combined","options":{"bisection":"angles","maxSteps":64}},
		{"model":"nope","n":1}
	]}`, n, n, n, n))
	var batched struct {
		Responses []partitionReply `json:"responses"`
	}
	if code := postJSON(t, base+"/v1/partition", batch, &batched); code != 200 {
		t.Fatalf("batch: HTTP %d", code)
	}
	if len(batched.Responses) != 5 {
		t.Fatalf("batch answered %d", len(batched.Responses))
	}
	if batched.Responses[0].Tier != "hit" {
		t.Fatalf("batched repeat not a hit: %+v", batched.Responses[0])
	}
	for i := 1; i <= 3; i++ {
		r := batched.Responses[i]
		if r.Error != "" || len(r.Alloc) != 9 {
			t.Fatalf("batch response %d: %+v", i, r)
		}
		var sum int64
		for _, x := range r.Alloc {
			sum += x
		}
		if sum != n {
			t.Fatalf("batch response %d sums to %d", i, sum)
		}
	}
	if batched.Responses[4].Error == "" {
		t.Fatal("unknown model answered without error")
	}

	// The cache counts both tiers, and the WAL has the plans.
	var stats statsReply
	if code := getJSON(t, base+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.Cache.Hits == 0 || stats.Cache.Misses == 0 {
		t.Fatalf("cache tiers: %+v", stats.Cache)
	}
	if stats.Store.WALRecords == 0 {
		t.Fatalf("no WAL records after admitted plans: %+v", stats.Store)
	}
	if stats.Cache.Rejected == 0 || stats.Cache.Admitted == 0 {
		t.Fatalf("doorkeeper counters flat: %+v", stats.Cache)
	}
	if stats.WALAppendFailures != 0 {
		t.Fatalf("%d WAL appends failed on a healthy store", stats.WALAppendFailures)
	}

	// Health.
	var health map[string]any
	if code := getJSON(t, base+"/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
}

// TestBatchSharedAnswersArePrivate sends one batch holding a hit, two
// distinct fresh plans and a third fresh plan named three times. Each
// element is its own ask of the plan cache: one copy of the triple
// computes the plan, and the others join that computation or are admitted
// from the admission window. Every copy must carry the computed plan's
// bytes, each fresh plan must be computed once, and the WAL may log at
// most the triple's admission.
func TestBatchSharedAnswersArePrivate(t *testing.T) {
	doc := testClusterDoc(t, 9, 21)
	fns := docFunctions(t, doc)
	d, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=lab", doc, nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	const hot, triple = 400_000, 900_000
	for i := 0; i < 2; i++ { // the second ask admits the plan
		if code := postJSON(t, base+"/v1/partition", []byte(fmt.Sprintf(`{"model":"lab","n":%d}`, hot)), nil); code != 200 {
			t.Fatalf("warming ask %d: HTTP %d", i+1, code)
		}
	}
	sizes := []int64{hot, 500_000, triple, 600_000, triple, triple}
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i, n := range sizes {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"model":"lab","n":%d}`, n)
	}
	sb.WriteString(`]}`)

	before := d.cache.Stats()
	walBefore := d.Store().Stats().WALRecords
	code, data, _ := postRawHdr(t, base+"/v1/partition", []byte(sb.String()), nil)
	if code != 200 {
		t.Fatalf("batch: HTTP %d: %s", code, data)
	}
	var raw struct {
		Responses []map[string]json.RawMessage `json:"responses"`
	}
	var batch struct {
		Responses []partitionReply `json:"responses"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Responses) != len(sizes) {
		t.Fatalf("batch answered %d of %d elements", len(batch.Responses), len(sizes))
	}
	tiers := map[string]int{}
	for i, r := range batch.Responses {
		if r.Error != "" {
			t.Fatalf("element %d (n=%d): %s", i, sizes[i], r.Error)
		}
		want, err := core.Combined(sizes[i], fns)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(r.Alloc) != fmt.Sprint(want.Alloc) {
			t.Fatalf("element %d (n=%d): served %v, core.Combined %v", i, sizes[i], r.Alloc, want.Alloc)
		}
		if sizes[i] == triple {
			tiers[r.Tier]++
		}
	}
	if batch.Responses[0].Tier != "hit" {
		t.Fatalf("resident plan answered %q, want hit", batch.Responses[0].Tier)
	}
	if tiers["miss"] != 1 || tiers["miss"]+tiers["shared"]+tiers["hit"] != 3 {
		t.Fatalf("the triple's tiers %v: want one miss, the others shared or hit", tiers)
	}
	first := batch.Responses[2]
	for _, i := range []int{4, 5} {
		if !bytes.Equal(raw.Responses[i]["alloc"], raw.Responses[2]["alloc"]) ||
			!bytes.Equal(raw.Responses[i]["slope"], raw.Responses[2]["slope"]) ||
			math.Float64bits(batch.Responses[i].Slope) != math.Float64bits(first.Slope) ||
			batch.Responses[i].Stats != first.Stats {
			t.Fatalf("copy %d differs from copy 2:\n%s\n%s", i, raw.Responses[i]["alloc"], raw.Responses[2]["alloc"])
		}
	}
	after := d.cache.Stats()
	if got := after.Misses - before.Misses; got != 3 {
		t.Fatalf("the batch computed %d plans, want the 3 distinct fresh ones", got)
	}
	if got := d.Store().Stats().WALRecords - walBefore; got > 1 {
		t.Fatalf("the batch appended %d WAL records, want at most the triple's admission", got)
	}
}

// TestDaemonCountsWALAppendFailures seals a primary's store, as Demote does
// between its SetReadOnly and Seal, and admits a plan into it: the plan is
// still served, but the refused WAL append must show in /v1/stats.
func TestDaemonCountsWALAppendFailures(t *testing.T) {
	d, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=lab", testClusterDoc(t, 6, 12), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	d.Store().Seal()
	ask := []byte(`{"model":"lab","n":450000}`)
	for i := 0; i < 2; i++ { // the second ask admits the plan
		var r partitionReply
		if code := postJSON(t, base+"/v1/partition", ask, &r); code != 200 {
			t.Fatalf("ask %d on a sealed store: HTTP %d: %+v", i+1, code, r)
		}
	}
	var stats statsReply
	getJSON(t, base+"/v1/stats", &stats)
	if stats.Cache.Admitted != 1 || stats.WALAppendFailures != 1 {
		t.Fatalf("admitted %d, walAppendFailures %d; want 1 and 1", stats.Cache.Admitted, stats.WALAppendFailures)
	}
}

// TestDaemonClampedDomains serves a model whose first domain ends below
// the even share n/p, the case where Figure 18's shallow ray falls short
// of n: each plan must be core.Exact's allocation, reached with at most 2p
// fine-tuning moves rather than one move per missing element.
func TestDaemonClampedDomains(t *testing.T) {
	doc, err := json.Marshal(clusterio.Cluster{Processors: []clusterio.Processor{
		{Name: "short", Points: []speed.Point{{X: 1e3, Y: 2e7}, {X: 1e9, Y: 2e7}}},
		{Name: "long", Points: []speed.Point{{X: 1e3, Y: 1e7}, {X: 1e11, Y: 1e7}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fns := docFunctions(t, doc)
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=clamped", doc, nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	for _, n := range []int64{2_500_000_000, 30_000_000_000} {
		want, err := core.Exact(n, fns)
		if err != nil {
			t.Fatal(err)
		}
		var got partitionReply
		if code := postJSON(t, base+"/v1/partition", []byte(fmt.Sprintf(`{"model":"clamped","n":%d}`, n)), &got); code != 200 {
			t.Fatalf("n=%d: HTTP %d: %+v", n, code, got)
		}
		if fmt.Sprint(got.Alloc) != fmt.Sprint(want.Alloc) {
			t.Fatalf("n=%d: served %v, Exact %v", n, got.Alloc, want.Alloc)
		}
		if got.Stats.FineTuneMoves > 2*len(fns) {
			t.Fatalf("n=%d: %d fine-tune moves, want ≤ %d", n, got.Stats.FineTuneMoves, 2*len(fns))
		}
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	doc := testClusterDoc(t, 3, 8)
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models", doc, nil); code != 400 {
		t.Fatalf("upload without label: HTTP %d", code)
	}
	if code := postJSON(t, base+"/v1/models?label=lab", []byte("{"), nil); code != 400 {
		t.Fatalf("bad JSON model: HTTP %d", code)
	}
	postJSON(t, base+"/v1/models?label=lab", doc, nil)
	for _, body := range []string{
		`{"model":"lab","n":-5}`,
		`{"model":"lab","n":10,"algo":"newton"}`,
		`{"model":"lab","n":10,"options":{"bisection":"sideways"}}`,
		`{"model":"ghost","n":10}`,
		`not json`,
	} {
		if code := postJSON(t, base+"/v1/partition", []byte(body), nil); code == 200 {
			t.Fatalf("accepted %q", body)
		}
	}
}

// TestDaemonModelUploadMatchesReference posts every seed document of
// clusterio's FuzzLoad to /v1/models and requires the status and body the
// encoding/json decoder Load's one-pass scanner stands in for produces:
// its error, or the expansion's, as a 400, or the upload's 200.
func TestDaemonModelUploadMatchesReference(t *testing.T) {
	seeds, err := os.ReadFile("../clusterio/testdata/load_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	tried := 0
	for _, line := range strings.Split(string(seeds), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		doc, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("seed %s: %v", line, err)
		}
		dec := json.NewDecoder(strings.NewReader(doc))
		dec.DisallowUnknownFields()
		var c clusterio.Cluster
		if err = dec.Decode(&c); err != nil {
			err = fmt.Errorf("clusterio: %w", err)
		} else if err = c.Validate(); err == nil {
			_, _, err = c.Functions(1e9)
		}
		code, got := postBody(t, base+"/v1/models?label=seed", doc)
		switch {
		case err != nil:
			if want := appendErrorBody(nil, err.Error()); code != http.StatusBadRequest || !bytes.Equal(got, want) {
				t.Errorf("seed %s: HTTP %d %q, want 400 %q", line, code, got, want)
			}
		case code != http.StatusOK:
			t.Errorf("seed %s: HTTP %d %q, want 200", line, code, got)
		}
		tried++
	}
	if tried < 50 {
		t.Fatalf("only %d seeds", tried)
	}
}

// TestDaemonStepCappedRequestIsFast asks for a plan whose one-step search
// leaves most of two billion units to fine-tuning, which a client may do
// with "maxSteps": 1, and requires the answer within a second.
func TestDaemonStepCappedRequestIsFast(t *testing.T) {
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=m", testClusterDoc(t, 12, 5), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	start := time.Now()
	var rep partitionReply
	code := postJSON(t, base+"/v1/partition", []byte(`{"model":"m","n":2000000000,"options":{"maxSteps":1}}`), &rep)
	if elapsed := time.Since(start); code != 200 || elapsed > time.Second {
		t.Fatalf("HTTP %d after %v, want 200 within a second", code, elapsed)
	}
	if rep.Stats.FineTuneMoves < 100_000_000 {
		t.Fatalf("%d fine-tune moves: the search left fine-tuning little to do", rep.Stats.FineTuneMoves)
	}
}

func TestDaemonModelRefreshInvalidates(t *testing.T) {
	docA := testClusterDoc(t, 5, 9)
	docB := testClusterDoc(t, 5, 10)
	d, base := startDaemon(t, Config{Dir: t.TempDir()})

	postJSON(t, base+"/v1/models?label=lab", docA, nil)
	ask := []byte(`{"model":"lab","n":500000}`)
	var r1, r2 partitionReply
	postJSON(t, base+"/v1/partition", ask, &r1)
	postJSON(t, base+"/v1/partition", ask, &r2) // admitted

	// A replacing upload logs exactly two records: the model and the old
	// model's invalidation.
	walBefore := d.Store().Stats().WALRecords
	var up modelReply
	if code := postJSON(t, base+"/v1/models?label=lab", docB, &up); code != 200 || !up.Replaced {
		t.Fatalf("refresh: HTTP %d %+v", code, up)
	}
	if up.Invalidated == 0 {
		t.Fatalf("refresh invalidated no plans: %+v", up)
	}
	if got := d.Store().Stats().WALRecords - walBefore; got != 2 {
		t.Fatalf("replacing upload appended %d WAL records, want 2 (model + invalidation)", got)
	}
	// The label now serves the new model from scratch.
	var r3 partitionReply
	postJSON(t, base+"/v1/partition", ask, &r3)
	if r3.Tier != "miss" {
		t.Fatalf("stale plan served after refresh: %+v", r3)
	}
	// The store dropped the old model too.
	if got := len(d.Store().Models()); got != 1 {
		t.Fatalf("%d stored models after refresh", got)
	}
}

func TestDaemonGracefulShutdownSnapshots(t *testing.T) {
	dir := t.TempDir()
	doc := testClusterDoc(t, 6, 11)
	d, base := startDaemon(t, Config{Dir: dir})
	postJSON(t, base+"/v1/models?label=lab", doc, nil)
	for i := 0; i < 2; i++ { // twice: admitted past the doorkeeper
		postJSON(t, base+"/v1/partition", []byte(`{"model":"lab","n":400000}`), nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	st.Close()
	if !stats.LoadedFromSnapshot || stats.WALBytes != 0 {
		t.Fatalf("graceful shutdown left no clean snapshot: %+v", stats)
	}
	if stats.Plans == 0 || stats.Models != 1 {
		t.Fatalf("snapshot missing state: %+v", stats)
	}

	// A second daemon on the same dir serves the plan as an immediate hit.
	_, base2 := startDaemon(t, Config{Dir: dir})
	var warm partitionReply
	if code := postJSON(t, base2+"/v1/partition", []byte(`{"model":"lab","n":400000}`), &warm); code != 200 {
		t.Fatalf("warm daemon: HTTP %d", code)
	}
	if warm.Tier != "hit" {
		t.Fatalf("restarted daemon's first answer is %q, want hit", warm.Tier)
	}
}
