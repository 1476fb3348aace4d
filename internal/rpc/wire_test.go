package rpc

// Equivalence suite for the pooled wire codec: the hand-rolled encoder
// must be byte-identical to encoding/json on the response shapes it
// replaces, and the single-pass parser must accept/reject bodies exactly
// as json.Decoder filled the old wire structs (modulo the documented
// dispatch changes). Golden tables pin the known corners; the fuzz
// targets chase the rest.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"heteropart/internal/core"
	"heteropart/internal/geometry"
)

// partitionRequest is the encoding/json reference for one partition ask:
// the struct the handler decoded before the wire codec, kept as the
// oracle the parser is checked against.
type partitionRequest struct {
	// Model names the cluster: a stored label or a hex fingerprint.
	Model string `json:"model"`
	N     int64  `json:"n"`
	// Algo is "basic", "modified" or "combined" (the default).
	Algo    string          `json:"algo,omitempty"`
	Options *requestOptions `json:"options,omitempty"`
}

// partitionBatch wraps multiple requests in one POST.
type partitionBatch struct {
	Requests []partitionRequest `json:"requests"`
}

// requestOptions maps the result-affecting partitioner options onto JSON.
type requestOptions struct {
	FineTune   *bool   `json:"fineTune,omitempty"`   // default true
	MaxSteps   int     `json:"maxSteps,omitempty"`   // default 256
	Elasticity float64 `json:"elasticity,omitempty"` // Combined's threshold
	Bisection  string  `json:"bisection,omitempty"`  // "tangents" | "angles"
}

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
	// Deep nesting: both sides must reject past the shared depth cap.
	deep := strings.Repeat(`{"x":`, maxParseDepth+2) + `1` + strings.Repeat(`}`, maxParseDepth+2)
	checkParseDifferential(t, []byte(`{"unknown":`+deep+`}`))
}

// FuzzWireCodec chases decoder divergence from json.Decoder (any fuzz
// input) and encoder divergence from encoding/json (replies synthesized
// from the input bytes).
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte(`{"model":"m","n":500,"algo":"basic","options":{"maxSteps":3}}`))
	f.Add([]byte(`{"requests":[{"model":"\ud83d\ude00","n":-1}]}`))
	f.Add([]byte(`{"n":9223372036854775807,"x":[{}]}`))
	f.Add([]byte(`{"model":"\ud800\udc00\ufffd"}`))
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
	msg := fmt.Sprintf("bad JSON: %v", errTopLevelNotObj)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]string{"error": msg}); err != nil {
		t.Fatal(err)
	}
	if got := appendErrorBody(nil, msg); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("error shape:\n got %q\nwant %q", got, buf.Bytes())
	}
}
