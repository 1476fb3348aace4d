package rpc

// Equivalence suite for the pooled wire codec: the hand-rolled encoder
// must be byte-identical to encoding/json on the response shapes it
// replaces, and the parser must accept/reject bodies exactly as
// json.Decoder fills the reference structs (modulo the documented
// maxSteps bound). Golden tables pin the known corners; the fuzz targets
// chase the rest.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/geometry"
	"heteropart/internal/plancache"
)

// toOpts is the reference option validation wireRequest.toOpts must
// agree with (checkOptsDifferential).
func (o *requestOptions) toOpts() ([]core.Option, error) {
	if o == nil {
		return nil, nil
	}
	var opts []core.Option
	if o.FineTune != nil && !*o.FineTune {
		opts = append(opts, core.WithoutFineTune())
	}
	if o.MaxSteps < 0 {
		return nil, fmt.Errorf("maxSteps must be positive")
	}
	if o.MaxSteps > 0 {
		opts = append(opts, core.WithMaxSteps(o.MaxSteps))
	}
	if o.Elasticity < 0 {
		return nil, fmt.Errorf("elasticity must be positive")
	}
	if o.Elasticity > 0 {
		opts = append(opts, core.WithElasticityThreshold(o.Elasticity))
	}
	switch o.Bisection {
	case "":
	case "tangents":
		opts = append(opts, core.WithBisection(geometry.BisectTangents))
	case "angles":
		opts = append(opts, core.WithBisection(geometry.BisectAngles))
	default:
		return nil, fmt.Errorf("unknown bisection %q (want tangents or angles)", o.Bisection)
	}
	return opts, nil
}

// goldenReply marshals a partitionReply with encoding/json exactly as the
// old writeJSON path did (json.Encoder appends '\n').
func goldenReply(t testing.TB, pr partitionReply) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(pr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wireReply(pr partitionReply) []byte {
	out := appendReply(nil, pr.Alloc, pr.Slope, pr.Tier, &pr.Stats, pr.Error)
	return append(out, '\n')
}

func TestAppendReplyGolden(t *testing.T) {
	cases := []partitionReply{
		{},
		{Alloc: []int64{1, 2, 3}, Slope: 0.25, Tier: "hit",
			Stats: core.Stats{Algorithm: "combined", Steps: 7, Intersections: 3, FineTuneMoves: 2, UsedModified: true}},
		{Alloc: []int64{9223372036854775807, -1, 0}, Slope: 1e21, Tier: "miss",
			Stats: core.Stats{Algorithm: "basic"}},
		{Slope: 1e-7, Tier: "shared", Stats: core.Stats{Algorithm: "modified", Steps: -1}},
		{Slope: math.SmallestNonzeroFloat64, Tier: "hit", Stats: core.Stats{}},
		{Slope: -math.MaxFloat64, Stats: core.Stats{Algorithm: "<esc&>\u2028\u2029"}},
		{Error: "unknown model \"x\u00e9\" (upload it via /v1/models)", Stats: core.Stats{}},
		{Error: "line\nbreak\ttab\rret \x01ctl", Stats: core.Stats{}},
		{Error: "bad utf8 \xff\xfe trailing", Stats: core.Stats{}},
		{Tier: "hit", Stats: core.Stats{Algorithm: "a\"quote\\slash/"}},
		{Slope: 0.1, Stats: core.Stats{Algorithm: "\u0000\u001f"}},
		{Slope: 123456789.123456, Stats: core.Stats{}},
		{Slope: 5e-324, Stats: core.Stats{}},
		{Slope: 1e20, Stats: core.Stats{}},
		{Slope: 1e21, Stats: core.Stats{}},
		{Slope: 2.5e22, Stats: core.Stats{}},
		{Slope: 1e-6, Stats: core.Stats{}},
		{Slope: 9.9e-7, Stats: core.Stats{}},
	}
	for i, pr := range cases {
		want := goldenReply(t, pr)
		got := wireReply(pr)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

func TestAppendErrorBodyGolden(t *testing.T) {
	msgs := []string{
		"use POST",
		"bad JSON: invalid character 'x' at offset 3",
		"unknown algorithm \"f\u00fcnf\"",
		"html <b>&amp;</b>",
		"ctl \x00\x1f\ttab",
		"invalid \xffutf8",
	}
	for _, msg := range msgs {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(map[string]string{"error": msg}); err != nil {
			t.Fatal(err)
		}
		got := appendErrorBody(nil, msg)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("errorBody(%q):\n got %q\nwant %q", msg, got, buf.Bytes())
		}
	}
	// The pre-encoded static bodies are golden too.
	statics := map[string][]byte{
		"use POST":                 bodyUsePOST,
		"booting: store replaying": bodyBooting,
		"replica syncing; retry when /readyz is 200": bodySyncing,
		"bad JSON: http: request body too large":     bodyTooLarge,
	}
	for msg, body := range statics {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(map[string]string{"error": msg}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, buf.Bytes()) {
			t.Errorf("static %q:\n got %q\nwant %q", msg, body, buf.Bytes())
		}
	}
}

// refDecodeSingle decodes a single-request body the way the old handler
// did: json.Decoder stream semantics into partitionRequest.
func refDecodeSingle(body []byte) (partitionRequest, error) {
	var pr partitionRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&pr)
	return pr, err
}

// wireFields flattens a parsed wireRequest for comparison with the
// reference partitionRequest.
func wireFields(sc *wireScratch, wr *wireRequest) partitionRequest {
	pr := partitionRequest{
		Model: string(sc.spanBytes(wr.model)),
		N:     wr.n,
		Algo:  string(sc.spanBytes(wr.algo)),
	}
	if wr.hasFineTune || wr.maxSteps != 0 || wr.elasticity != 0 || wr.bisection.n > 0 {
		o := &requestOptions{
			MaxSteps:   wr.maxSteps,
			Elasticity: wr.elasticity,
			Bisection:  string(sc.spanBytes(wr.bisection)),
		}
		if wr.hasFineTune {
			ft := wr.fineTune
			o.FineTune = &ft
		}
		pr.Options = o
	}
	return pr
}

func optionsEqual(a, b *requestOptions) bool {
	an, bn := a == nil, b == nil
	if an || bn {
		// The wire parser cannot distinguish {"options":{}} from no
		// options; both mean "all defaults".
		zero := requestOptions{}
		if an && !bn {
			return *b == zero
		}
		if bn && !an {
			return *a == zero
		}
		return true
	}
	if (a.FineTune == nil) != (b.FineTune == nil) {
		return false
	}
	if a.FineTune != nil && *a.FineTune != *b.FineTune {
		return false
	}
	return a.MaxSteps == b.MaxSteps && a.Elasticity == b.Elasticity && a.Bisection == b.Bisection
}

// checkOptsDifferential runs the wire option validation against the
// reference: the same error text, or the same number of core options.
func checkOptsDifferential(t testing.TB, body []byte, sc *wireScratch, wr *wireRequest, ref *requestOptions) {
	t.Helper()
	got, gotErr := wr.toOpts(sc)
	want, wantErr := ref.toOpts()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || len(got) != len(want) {
		t.Fatalf("options divergence on %q: wire %d opts, err %v; ref %d opts, err %v",
			body, len(got), gotErr, len(want), wantErr)
	}
}

// checkParseDifferential runs one body through the wire parser and the
// json.Decoder reference, failing on any divergence that is not a
// documented one. Returns true if the body parsed successfully.
func checkParseDifferential(t testing.TB, body []byte) bool {
	t.Helper()
	sc := &wireScratch{body: body}
	batch, wireErr := sc.parsePartition()

	if batch {
		var pb partitionBatch
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&pb)
		if (wireErr == nil) != (refErr == nil) {
			// The single branch's documented tightening, for the element
			// that carries it.
			if wireErr != nil && refErr == nil && maxStepsOverflow(wireErr, pb.Requests) {
				return false
			}
			t.Fatalf("batch divergence on %q: wire=%v ref=%v", body, wireErr, refErr)
		}
		if wireErr != nil {
			return false
		}
		if len(sc.reqs) != len(pb.Requests) {
			t.Fatalf("batch len divergence on %q: wire=%d ref=%d", body, len(sc.reqs), len(pb.Requests))
		}
		for i := range sc.reqs {
			got := wireFields(sc, &sc.reqs[i])
			want := pb.Requests[i]
			if got.Model != want.Model || got.N != want.N || got.Algo != want.Algo || !optionsEqual(got.Options, want.Options) {
				t.Fatalf("batch field divergence on %q [%d]:\n got %+v\nwant %+v", body, i, got, want)
			}
			checkOptsDifferential(t, body, sc, &sc.reqs[i], want.Options)
		}
		return true
	}

	want, refErr := refDecodeSingle(body)
	if (wireErr == nil) != (refErr == nil) {
		// Documented tightening: maxSteps is capped at int32 range where
		// encoding/json fills a 64-bit platform int.
		if wireErr != nil && refErr == nil && strings.Contains(wireErr.Error(), "maxSteps") {
			return false
		}
		t.Fatalf("divergence on %q: wire=%v ref=%v", body, wireErr, refErr)
	}
	if wireErr != nil {
		return false
	}
	got := wireFields(sc, &sc.reqs[0])
	if got.Model != want.Model || got.N != want.N || got.Algo != want.Algo || !optionsEqual(got.Options, want.Options) {
		t.Fatalf("field divergence on %q:\n got %+v\nwant %+v", body, got, want)
	}
	checkOptsDifferential(t, body, sc, &sc.reqs[0], want.Options)
	return true
}

// maxStepsOverflow reports whether err is the wire's int32 bound on an
// ask's maxSteps: its text is exactly "maxSteps <v>: integer overflow",
// and an ask the reference decoded has maxSteps v, outside int32 range.
func maxStepsOverflow(err error, asks []partitionRequest) bool {
	for _, a := range asks {
		if o := a.Options; o != nil && o.MaxSteps != int(int32(o.MaxSteps)) &&
			err.Error() == fmt.Sprintf("maxSteps %d: integer overflow", o.MaxSteps) {
			return true
		}
	}
	return false
}

func TestParseDifferentialGolden(t *testing.T) {
	tru := true
	_ = tru
	bodies := []string{
		`{}`,
		`null`,
		`  {"model":"m","n":500}  trailing garbage ignored`,
		`{"model":"m","n":500,"algo":"basic"}`,
		`{"MODEL":"m","N":7,"ALGO":"modified"}`,
		`{"model":"a","model":"b"}`,
		`{"model":"a","model":null}`,
		`{"model":"\u0041\u00e9\ud83d\ude00"}`,
		`{"model":"\ud800 lone surrogate"}`,
		`{"model":"\ud800\ud800"}`,
		`{"model":"esc\"\\\/\b\f\n\r\t"}`,
		"{\"model\":\"raw\x01ctl\"}",
		`{"model":123}`,
		`{"n":3.5}`,
		`{"n":-0}`,
		`{"n":1e3}`,
		`{"n":9223372036854775807}`,
		`{"n":9223372036854775808}`,
		`{"n":-9223372036854775808}`,
		`{"n":null}`,
		`{"unknown":{"deep":[1,2,{"x":null}]},"n":5}`,
		`{"options":{"fineTune":false,"maxSteps":9,"elasticity":0.5,"bisection":"angles"}}`,
		`{"options":{"FINETUNE":true,"MaxSteps":3}}`,
		`{"options":null}`,
		`{"options":{}}`,
		`{"options":{"maxSteps":5},"options":{"elasticity":1}}`,
		`{"options":{"unknown":[true,false]}}`,
		`{"options":"nope"}`,
		`{"requests":[]}`,
		`{"requests":null}`,
		`{"requests":[{"model":"a","n":1},null,{}]}`,
		`{"requests":[{"model":"a"}],"requests":[{"model":"b"}]}`,
		`{"REQUESTS":[{"model":"up"}]}`,
		`{"requests":[{"model":"a"}],"extra":1}`,
		`{"requests":"x"}`,
		`{"requests":[{"model":"a"},]}`,
		`[1,2]`,
		`"string"`,
		`123`,
		`true`,
		``,
		`   `,
		`{`,
		`{"model"`,
		`{"model":}`,
		`{"model":"a",}`,
		`{"n":01}`,
		`{"n":1.}`,
		`{"n":1e}`,
		`{"n":--1}`,
		"{\"model\":\"bad\xff\xfeutf8\"}",
		`{"model":"\uZZZZ"}`,
		`{"model":"\q"}`,
		`{"n":-9223372036854775809}`,
		`{"options":{"maxSteps":2147483647}}`,
		`{"options":{"maxSteps":2147483648}}`,
		`{"options":{"maxSteps":-2147483649}}`,
		"{\"model\":\"m\",\x00\"n\":1}",
		`{"options":{"fineTune":truex}}`,
		`{"options":{"maxSteps":1,"maxSteps":2}}`,
		`{"n":1.0}`,
		`{"options":{"elasticity":1e400}}`,
		" \t{ \"requests\" :\n[ { \"model\" : \"t1/p540\" , \"n\" : 5 } ,\r{ \"model\" : \"m\" } ] } ",
		`{"requests":[{"model":"m","options":{"maxSteps":2147483648}}]}`,
	}
	okCount := 0
	for _, b := range bodies {
		if checkParseDifferential(t, []byte(b)) {
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no body parsed successfully; table is broken")
	}
	// Deep nesting: both sides must reject past encoding/json's depth cap.
	deep := strings.Repeat(`{"x":`, 10000+2) + `1` + strings.Repeat(`}`, 10000+2)
	checkParseDifferential(t, []byte(`{"unknown":`+deep+`}`))
}

// TestParseScannedShapeAllocs requires the scanned shape to parse without
// allocating: a single with algo and all four options, a 16-ask batch of
// tenant labels, and the empty single and batch. The handler benchmarks'
// gates send only option-free bodies.
func TestParseScannedShapeAllocs(t *testing.T) {
	var batch strings.Builder
	batch.WriteString(`{"requests":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"model":"t1/p540","n":%d}`, 5_000_000+i*100_000)
	}
	batch.WriteString(`]}`)
	for _, body := range []string{
		`{"model":"t0/p270","n":5000000,"algo":"basic","options":{"fineTune":false,"maxSteps":64,"elasticity":0.5,"bisection":"angles"}}`,
		batch.String(),
		`{}`,
		`{"requests":[]}`,
	} {
		sc := &wireScratch{body: []byte(body)}
		if _, err := sc.parsePartition(); err != nil { // grows the scratch
			t.Fatalf("%s: %v", body, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { sc.parsePartition() }); allocs != 0 {
			t.Errorf("%s: parsePartition allocates %v allocs/op, want 0", body, allocs)
		}
	}
}

// FuzzWireCodec chases decoder divergence from json.Decoder (any fuzz
// input) and encoder divergence from encoding/json (replies synthesized
// from the input bytes).
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte(`{"model":"m","n":500,"algo":"basic","options":{"maxSteps":3}}`))
	f.Add([]byte(`{"requests":[{"model":"\ud83d\ude00","n":-1}]}`))
	f.Add([]byte(`{"n":9223372036854775807,"x":[{}]}`))
	f.Add([]byte(`{"model":"\ud800\udc00\ufffd"}`))
	f.Add([]byte(`{"requests":[{"model":"m","options":{"maxSteps":2147483648}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseDifferential(t, body)

		// Encoder differential: build a reply out of the fuzz bytes.
		var alloc []int64
		for i := 0; i+8 <= len(body) && len(alloc) < 4; i += 8 {
			var v int64
			for j := 0; j < 8; j++ {
				v = v<<8 | int64(body[i+j])
			}
			alloc = append(alloc, v)
		}
		slope := 0.0
		if len(body) > 0 {
			slope = float64(int(body[0])-128) / 16
		}
		if len(body) > 2 && body[2]%3 == 0 {
			slope = math.Ldexp(slope, int(body[2])-128)
		}
		s := string(body)
		pr := partitionReply{
			Alloc: alloc,
			Slope: slope,
			Tier:  s[:len(s)/3],
			Stats: core.Stats{
				Algorithm:     s[len(s)/2:],
				Steps:         len(body),
				Intersections: -len(body),
				UsedModified:  len(body)%2 == 0,
			},
			Error: s[len(s)/3 : len(s)/2],
		}
		want := goldenReply(t, pr)
		got := wireReply(pr)
		if !bytes.Equal(got, want) {
			t.Fatalf("reply encoding diverged:\n got %q\nwant %q", got, want)
		}
		// A cached plan's encoding, answered at each tier, is appendReply's
		// reply.
		res := core.Result{Alloc: pr.Alloc, Slope: pr.Slope, Stats: pr.Stats}
		enc := encodePlan(res)
		for tier, name := range map[plancache.Tier]string{plancache.TierMiss: "miss", plancache.TierHit: "hit", plancache.TierShared: "shared"} {
			if got, want := appendPlanReply(nil, enc, tier), appendReply(nil, pr.Alloc, pr.Slope, name, &pr.Stats, ""); !bytes.Equal(got, want) {
				t.Fatalf("cached %s reply diverged:\n got %q\nwant %q", name, got, want)
			}
		}
		var eb bytes.Buffer
		if err := json.NewEncoder(&eb).Encode(map[string]string{"error": s}); err != nil {
			t.Fatal(err)
		}
		if gotE := appendErrorBody(nil, s); !bytes.Equal(gotE, eb.Bytes()) {
			t.Fatalf("error body diverged:\n got %q\nwant %q", gotE, eb.Bytes())
		}
	})
}

// postBody posts a body and returns status + raw response bytes.
func postBody(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestPartitionDispatchBehavior pins the documented dispatch contract: a
// body whose first key is "requests" is a batch all the way down (one
// consistent 400 when malformed, never a silent retry as a single
// request), and an empty batch answers an empty batch.
func TestPartitionDispatchBehavior(t *testing.T) {
	doc := testClusterDoc(t, 4, 3)
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=m", doc, nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	url := base + "/v1/partition"

	// Malformed batches: every one is a 400 with a JSON error body.
	for _, body := range []string{
		`{"requests":"not an array"}`,
		`{"requests":[{"model":"m","n":}]}`,
		`{"requests":[{"model":"m"},]}`,
		`{"requests":{}}`,
		`{"requests":[`,
	} {
		code, data := postBody(t, url, body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %q: HTTP %d, want 400 (body %q)", body, code, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("POST %q: body %q is not a JSON error", body, data)
		}
	}

	// Empty batch answers an empty batch, not "missing model".
	code, data := postBody(t, url, `{"requests":[]}`)
	if code != 200 || string(data) != "{\"responses\":[]}\n" {
		t.Errorf(`{"requests":[]}: HTTP %d body %q, want 200 {"responses":[]}`, code, data)
	}

	// A mixed batch serves the good requests and reports the bad ones in
	// place, in order.
	code, data = postBody(t, url, `{"requests":[{"model":"m","n":100000},{"model":"ghost","n":1},{"model":"m","n":100000,"algo":"bogus"}]}`)
	if code != 200 {
		t.Fatalf("mixed batch: HTTP %d body %q", code, data)
	}
	var batch struct {
		Responses []partitionReply `json:"responses"`
	}
	if err := json.Unmarshal(data, &batch); err != nil || len(batch.Responses) != 3 {
		t.Fatalf("mixed batch body %q: %v", data, err)
	}
	if batch.Responses[0].Error != "" || len(batch.Responses[0].Alloc) == 0 {
		t.Errorf("good request answered %+v", batch.Responses[0])
	}
	if !strings.Contains(batch.Responses[1].Error, "unknown model") {
		t.Errorf("ghost model answered %+v", batch.Responses[1])
	}
	if !strings.Contains(batch.Responses[2].Error, "unknown algorithm") {
		t.Errorf("bogus algo answered %+v", batch.Responses[2])
	}

	// Single-request validation errors keep their exact texts.
	for body, wantErr := range map[string]string{
		`{}`:                         "missing model",
		`{"model":"m","n":-5}`:       "negative n -5",
		`{"model":"nope"}`:           `unknown model "nope" (upload it via /v1/models)`,
		`{"model":"m","algo":"zig"}`: `unknown algorithm "zig"`,
		`{"model":"m","options":{"maxSteps":-1}}`:   "maxSteps must be positive",
		`{"model":"m","options":{"elasticity":-1}}`: "elasticity must be positive",
		`{"model":"m","options":{"bisection":"x"}}`: `unknown bisection "x" (want tangents or angles)`,
	} {
		code, data := postBody(t, url, body)
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("POST %q: body %q: %v", body, data, err)
		}
		if code != http.StatusBadRequest || e["error"] != wantErr {
			t.Errorf("POST %q: HTTP %d error %q, want 400 %q", body, code, e["error"], wantErr)
		}
	}

	// Warm responses stay byte-identical to an encoding/json rendering of
	// the same reply (the golden contract, over real HTTP).
	warm := `{"model":"m","n":200000}`
	postBody(t, url, warm)
	postBody(t, url, warm)
	_, first := postBody(t, url, warm)
	var pr partitionReply
	if err := json.Unmarshal(first, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Tier != "hit" {
		t.Fatalf("expected warm hit, got %+v", pr)
	}
	if want := goldenReply(t, pr); !bytes.Equal(first, want) {
		t.Errorf("warm response not byte-identical to encoding/json:\n got %q\nwant %q", first, want)
	}
	_, second := postBody(t, url, warm)
	if !bytes.Equal(first, second) {
		t.Errorf("warm responses differ across requests:\n %q\n %q", first, second)
	}
}

func TestPartitionOversizeBody(t *testing.T) {
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	big := `{"model":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	code, data := postBody(t, base+"/v1/partition", big)
	if code != http.StatusBadRequest {
		t.Fatalf("oversize body: HTTP %d %q", code, data)
	}
	if !bytes.Equal(data, bodyTooLarge) {
		t.Errorf("oversize body answered %q, want %q", data, bodyTooLarge)
	}
}

func TestHTTPErrorShape(t *testing.T) {
	// httpError's pooled encoding keeps the {"error": msg} document and
	// formats like fmt.Sprintf.
	msg := fmt.Sprintf("bad JSON: %v", "top-level value must be an object")
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]string{"error": msg}); err != nil {
		t.Fatal(err)
	}
	if got := appendErrorBody(nil, msg); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("error shape:\n got %q\nwant %q", got, buf.Bytes())
	}
}

// unknownModelNames are names no catalog holds, covering every way %q and
// JSON escape a byte: ASCII, non-ASCII UTF-8, invalid UTF-8, quotes,
// backslashes, control, HTML and unprintable characters, runes past the
// BMP, and a name over 32 bytes.
var unknownModelNames = []string{
	"nosuch", "modèle/日本語", "\xff\xfe", "half\xc3", `q"u'o"te`, `back\slash\\`,
	strings.Repeat("long-model-name-", 4), "tab\tnl\nnul\x00del\x7f\x1b", "<b>&amp;</b>",
	"sep\u2028\u2029", "\ufffd", "emoji\U0001f600", "tag\U000e0001", "nbsp\u00a0soft\u00ad",
}

// TestUnknownModelBodyMatchesFmt holds the unknown-model errors, appended
// straight into the response, to the fmt formatting they replaced
// (fmt.Errorf's %q of the name, encoded by appendErrorBody or appendReply)
// byte for byte: from the appender for every name, and over a real daemon,
// as a single request's 400 and as a batch element, for every name the
// parser can deliver (it decodes invalid UTF-8 to U+FFFD, as
// encoding/json does).
func TestUnknownModelBodyMatchesFmt(t *testing.T) {
	var zero core.Stats
	message := func(name []byte) string {
		return fmt.Errorf("unknown model %q (upload it via /v1/models)", name).Error()
	}
	for _, name := range unknownModelNames {
		msg := message([]byte(name))
		sc, wr := &wireScratch{body: []byte(name)}, &wireRequest{model: span{n: len(name)}}
		got := append(appendAskError([]byte(`{"error":`), errUnknownModel, sc, wr), "}\n"...)
		if want := appendErrorBody(nil, msg); !bytes.Equal(got, want) {
			t.Errorf("name %q: body\n got %q\nwant %q", name, got, want)
		}
		got = append(appendAskError(append(appendReplyHead(nil, nil, 0, "", &zero), `,"error":`...), errUnknownModel, sc, wr), '}')
		if want := appendReply(nil, nil, 0, "", &zero, msg); !bytes.Equal(got, want) {
			t.Errorf("name %q: batch entry\n got %q\nwant %q", name, got, want)
		}
	}
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	for _, name := range unknownModelNames {
		// The name as a JSON string, escaping only what JSON requires, so
		// non-ASCII and invalid bytes reach the parser raw.
		raw := []byte{'"'}
		for _, c := range []byte(name) {
			switch {
			case c == '"' || c == '\\':
				raw = append(raw, '\\', c)
			case c < 0x20:
				raw = fmt.Appendf(raw, `\u%04x`, c)
			default:
				raw = append(raw, c)
			}
		}
		raw = append(raw, '"')
		var decoded string
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("name %q: %v", name, err)
		}
		msg := message([]byte(decoded))
		code, got := postBody(t, base+"/v1/partition", `{"model":`+string(raw)+`,"n":5}`)
		if want := appendErrorBody(nil, msg); code != http.StatusBadRequest || !bytes.Equal(got, want) {
			t.Errorf("name %q: HTTP %d body\n got %q\nwant 400 %q", name, code, got, want)
		}
		code, got = postBody(t, base+"/v1/partition", `{"requests":[{"model":`+string(raw)+`,"n":5}]}`)
		want := append(append([]byte(`{"responses":[`), appendReply(nil, nil, 0, "", &zero, msg)...), "]}\n"...)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("name %q: batch HTTP %d body\n got %q\nwant 200 %q", name, code, got, want)
		}
	}
}

// TestAskErrorBodiesMatchFmt holds the partition route's other 400s —
// missing model, negative n, unknown algorithm or bisection, non-positive
// maxSteps or elasticity — to the fmt formatting they replaced, byte for
// byte: from appendAskError for every value, and over a real daemon as a
// single request's 400 and as a batch element.
func TestAskErrorBodiesMatchFmt(t *testing.T) {
	var zero core.Stats
	type ask struct {
		fields string // the ask's fields after "model" and "n"
		msg    string // the message fmt built for it
	}
	asks := []ask{
		{`"n":5`, fmt.Errorf("missing model").Error()},
		{`"model":"m","n":-7`, fmt.Errorf("negative n %d", -7).Error()},
		{`"model":"m","n":-9223372036854775808`, fmt.Errorf("negative n %d", int64(math.MinInt64)).Error()},
		{`"model":"m","n":5,"options":{"maxSteps":-1}`, fmt.Errorf("maxSteps must be positive").Error()},
		{`"model":"m","n":5,"options":{"elasticity":-0.5}`, fmt.Errorf("elasticity must be positive").Error()},
	}
	for _, name := range unknownModelNames {
		raw, err := json.Marshal(name)
		if err != nil {
			t.Fatal(err)
		}
		var decoded string
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatal(err)
		}
		asks = append(asks,
			ask{`"model":"m","n":5,"algo":` + string(raw), fmt.Errorf("unknown algorithm %q", []byte(decoded)).Error()},
			ask{`"model":"m","n":5,"options":{"bisection":` + string(raw) + `}`, fmt.Errorf("unknown bisection %q (want tangents or angles)", []byte(decoded)).Error()})

		sc := &wireScratch{body: []byte(name)}
		for _, c := range []struct {
			err error
			wr  wireRequest
			msg string
		}{
			{errUnknownAlgorithm, wireRequest{algo: span{n: len(name)}}, fmt.Errorf("unknown algorithm %q", []byte(name)).Error()},
			{errUnknownBisection, wireRequest{bisection: span{n: len(name)}}, fmt.Errorf("unknown bisection %q (want tangents or angles)", []byte(name)).Error()},
		} {
			got := append(appendAskError([]byte(`{"error":`), c.err, sc, &c.wr), "}\n"...)
			if want := appendErrorBody(nil, c.msg); !bytes.Equal(got, want) {
				t.Errorf("%v %q: body\n got %q\nwant %q", c.err, name, got, want)
			}
		}
	}
	_, base := startDaemon(t, Config{Dir: t.TempDir()})
	if code := postJSON(t, base+"/v1/models?label=m", testClusterDoc(t, 4, 3), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	for _, a := range asks {
		code, got := postBody(t, base+"/v1/partition", `{`+a.fields+`}`)
		if want := appendErrorBody(nil, a.msg); code != http.StatusBadRequest || !bytes.Equal(got, want) {
			t.Errorf("%s: HTTP %d body\n got %q\nwant 400 %q", a.fields, code, got, want)
		}
		code, got = postBody(t, base+"/v1/partition", `{"requests":[{`+a.fields+`}]}`)
		want := append(append([]byte(`{"responses":[`), appendReply(nil, nil, 0, "", &zero, a.msg)...), "]}\n"...)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: batch HTTP %d body\n got %q\nwant 200 %q", a.fields, code, got, want)
		}
	}
}

// TestParseFingerprintMatchesParseUint holds the daemon's allocation-free
// fingerprint parse to strconv.ParseUint's base-16 rule after an optional
// "0x": the same accepted names and the same values.
func TestParseFingerprintMatchesParseUint(t *testing.T) {
	names := []string{"", "0x", "0", "0x0", "ff", "FF", "0xdeadBEEF", "0X1f", "1f_2", "+1", "-1", "g",
		"ffffffffffffffff", "0xffffffffffffffff", "10000000000000000", "00000000000000000001",
		"t0/p270", "m1", "model", "0x0x1", " 1", "1 "}
	s := uint32(7)
	for i := 0; i < 2000; i++ {
		b := make([]byte, 1+i%20)
		for j := range b {
			s = s*1664525 + 1013904223
			const alphabet = "0123456789abcdefABCDEFxX_g/ "
			b[j] = alphabet[s%uint32(len(alphabet))]
		}
		names = append(names, string(b))
	}
	for _, name := range names {
		want, err := strconv.ParseUint(strings.TrimPrefix(name, "0x"), 16, 64)
		got, ok := parseFingerprint([]byte(name))
		if ok != (err == nil) || ok && got != want {
			t.Fatalf("%q: parseFingerprint (%x, %v), ParseUint (%x, %v)", name, got, ok, want, err)
		}
	}
}
