package heteropart

// Over-HTTP daemon benchmarks: where BENCH_partition.json measures the
// partitioner and the plan cache in process, these measure what a client
// actually sees — the hetpartd wire path, request parse to response
// bytes. Two levels:
//
//   - BenchmarkDaemonThroughput drives a real daemon over loopback HTTP
//     with keep-alive connections: warm single requests, batched
//     requests, an error mix, and a cold-miss mix. The req/s metric is
//     the daemon's end-to-end ceiling on this host; ci.sh gates warm and
//     batch16 at 0 allocs/op.
//   - BenchmarkDaemonHandler calls the daemon's net/http handler directly
//     with a recycled request/response pair, so B/op and allocs/op
//     describe the handler path itself with the connection machinery
//     excluded. ci.sh gates the warm, batch16, hit1080, error and badalgo
//     rows at 0 B/op and 0 allocs/op, at -cpu 1.
//   - BenchmarkDaemonModelUpload measures model ingest: the decode of
//     perfbench's cold upload documents, and their upload over HTTP.
//
// scripts/bench.sh daemon records all three into BENCH_daemon.json.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"heteropart/internal/clusterio"
	"heteropart/internal/fabric"
	"heteropart/internal/rpc"
	"heteropart/internal/speed"
)

// benchClusterDoc builds a deterministic clusterio document with p
// processors (the same generator the rpc tests use).
func benchClusterDoc(p int, seed uint32) []byte {
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
		panic(err)
	}
	return data
}

// startBenchDaemon boots a daemon over a fresh store, uploads a model
// labeled "m", and returns its base URL.
func startBenchDaemon(b *testing.B) string {
	b.Helper()
	d, err := rpc.New(rpc.Config{Addr: "127.0.0.1:0", Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := d.Listen()
	if err != nil {
		b.Fatal(err)
	}
	go d.Serve()
	b.Cleanup(func() { d.Shutdown(b.Context()) })
	base := "http://" + addr.String()
	resp, err := http.Post(base+"/v1/models?label=m", "application/json",
		bytes.NewReader(benchClusterDoc(8, 77)))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("model upload: HTTP %d", resp.StatusCode)
	}
	return base
}

// rawConn is a keep-alive HTTP/1.1 load-generator connection: requests
// are preformatted bytes, responses are parsed in place, just enough to
// find the status and drain the body. The client side of the benchmark
// must cost less than the server under test — net/http's client would cost
// more — and it allocates nothing, so allocs/op counts the daemon alone.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(b *testing.B, addr string) *rawConn {
	b.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// rawRequest formats one complete HTTP/1.1 request.
func rawRequest(path string, body []byte) []byte {
	return []byte(fmt.Sprintf(
		"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body))
}

// send writes req (which may hold several pipelined requests) and reads
// count responses, asserting each status.
func (rc *rawConn) send(b *testing.B, req []byte, count int, wantStatus string) {
	if _, err := rc.c.Write(req); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < count; i++ {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.HasPrefix(line, []byte(wantStatus)) {
			b.Fatalf("status %q, want prefix %q", line, wantStatus)
		}
		length, chunked := -1, false
		for {
			h, err := rc.br.ReadSlice('\n')
			if err != nil {
				b.Fatal(err)
			}
			if len(h) <= 2 {
				break
			}
			if v, ok := bytes.CutPrefix(h, []byte("Content-Length: ")); ok {
				if length, err = fabric.ParseSize(bytes.TrimSpace(v), 10); err != nil {
					b.Fatal(err)
				}
			}
			if bytes.HasPrefix(h, []byte("Transfer-Encoding: chunked")) {
				chunked = true
			}
		}
		switch {
		case chunked:
			// A reply that reaches the daemon's 64 KiB streaming threshold
			// arrives chunked: hex-size frames closed by a zero chunk.
			for {
				sz, err := rc.br.ReadSlice('\n')
				if err != nil {
					b.Fatal(err)
				}
				n, err := fabric.ParseSize(bytes.TrimSpace(sz), 16)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rc.br.Discard(n + 2); err != nil { // chunk + CRLF
					b.Fatal(err)
				}
				if n == 0 {
					break
				}
			}
		case length >= 0:
			if _, err := rc.br.Discard(length); err != nil {
				b.Fatal(err)
			}
		default:
			b.Fatalf("response %d without Content-Length (status %q)", i, line)
		}
	}
}

// BenchmarkDaemonThroughput measures the daemon end to end over loopback
// HTTP with keep-alive connections. The req/s metric counts partition
// requests: a pipelined burst of 16 counts 16, as does a batch of 16.
func BenchmarkDaemonThroughput(b *testing.B) {
	base := startBenchDaemon(b)
	addr := strings.TrimPrefix(base, "http://")

	warmBody := []byte(`{"model":"m","n":5000000}`)
	const batchSize = 16
	var batchBody bytes.Buffer
	batchBody.WriteString(`{"requests":[`)
	for i := 0; i < batchSize; i++ {
		if i > 0 {
			batchBody.WriteByte(',')
		}
		fmt.Fprintf(&batchBody, `{"model":"m","n":%d}`, 5_000_000+int64(i)*100_000)
	}
	batchBody.WriteString(`]}`)

	warmReq := rawRequest("/v1/partition", warmBody)
	batchReq := rawRequest("/v1/partition", batchBody.Bytes())
	errReq := rawRequest("/v1/partition", []byte(`{"model":"nosuch","n":5000000}`))
	pipeReq := bytes.Repeat(warmReq, batchSize)

	// Warm the cache past the doorkeeper: twice per distinct key.
	warmup := dialRaw(b, addr)
	for i := 0; i < 2; i++ {
		warmup.send(b, warmReq, 1, "HTTP/1.1 200")
		warmup.send(b, batchReq, 1, "HTTP/1.1 200")
	}

	// responses = HTTP responses per iteration; served = partition
	// requests answered per iteration (a batch answers 16 in 1 response).
	run := func(name string, responses, served int, req []byte, wantStatus string) {
		b.Run(name, func(b *testing.B) {
			rc := dialRaw(b, addr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.send(b, req, responses, wantStatus)
			}
			b.ReportMetric(float64(b.N*served)/b.Elapsed().Seconds(), "req/s")
		})
	}

	run("warm", 1, 1, warmReq, "HTTP/1.1 200")
	run("warmpipe16", batchSize, batchSize, pipeReq, "HTTP/1.1 200")
	run("batch16", 1, batchSize, batchReq, "HTTP/1.1 200")
	run("errors", 1, 1, errReq, "HTTP/1.1 400")
	b.Run("coldmix", func(b *testing.B) {
		rc := dialRaw(b, addr)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := fmt.Sprintf(`{"model":"m","n":%d}`, 10_000_000+int64(i)*1_000)
			rc.send(b, rawRequest("/v1/partition", []byte(body)), 1, "HTTP/1.1 200")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// replayBody is an io.ReadCloser the handler benchmark rewinds between
// iterations, so one request value serves every iteration.
type replayBody struct {
	data []byte
	off  int
}

func (rb *replayBody) Read(p []byte) (int, error) {
	if rb.off >= len(rb.data) {
		return 0, io.EOF
	}
	n := copy(p, rb.data[rb.off:])
	rb.off += n
	return n, nil
}
func (rb *replayBody) Close() error { return nil }
func (rb *replayBody) rewind()      { rb.off = 0 }

// nullResponseWriter discards the response while recording the status,
// allocating nothing per request.
type nullResponseWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = 200
	}
	w.n += len(p)
	return len(p), nil
}

// handlerRig is a daemon plus a recycled request/response pair aimed at
// one route.
type handlerRig struct {
	h    http.Handler
	req  *http.Request
	body *replayBody
	w    *nullResponseWriter
}

func newHandlerRig(b *testing.B, h http.Handler, method, target string, body []byte) *handlerRig {
	b.Helper()
	req, err := http.NewRequest(method, "http://bench"+target, nil)
	if err != nil {
		b.Fatal(err)
	}
	rb := &replayBody{data: body}
	req.Body = rb
	req.ContentLength = int64(len(body))
	return &handlerRig{h: h, req: req, body: rb, w: &nullResponseWriter{h: make(http.Header)}}
}

// do replays the canned request through the handler once.
func (r *handlerRig) do(b *testing.B, wantCode int) {
	r.body.rewind()
	r.w.code = 0
	r.w.n = 0
	r.h.ServeHTTP(r.w, r.req)
	if r.w.code != wantCode {
		b.Fatalf("handler answered HTTP %d, want %d", r.w.code, wantCode)
	}
}

// BenchmarkDaemonHandler measures the handler path with net/http's
// connection machinery excluded: B/op and allocs/op here are the wire
// codec's own footprint. ci.sh gates the warm path, the 16-plan batch, a
// resident plan on uploadDocs' 1080-processor model (hit1080: a reply of
// about 9 KB, copied from the plan's cached encoding) and the 400s for an
// unknown model (error) and an unknown algorithm (badalgo).
func BenchmarkDaemonHandler(b *testing.B) {
	d, err := rpc.New(rpc.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Shutdown(b.Context()) })
	h := d.Handler()

	upload := newHandlerRig(b, h, http.MethodPost, "/v1/models?label=m", benchClusterDoc(8, 77))
	upload.do(b, 200)

	warm := newHandlerRig(b, h, http.MethodPost, "/v1/partition", []byte(`{"model":"m","n":5000000}`))
	warm.do(b, 200)
	warm.do(b, 200) // past the doorkeeper: the plan is resident now

	var batchBody strings.Builder
	batchBody.WriteString(`{"requests":[`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			batchBody.WriteByte(',')
		}
		fmt.Fprintf(&batchBody, `{"model":"m","n":%d}`, 5_000_000+int64(i)*100_000)
	}
	batchBody.WriteString(`]}`)
	batch := newHandlerRig(b, h, http.MethodPost, "/v1/partition", []byte(batchBody.String()))
	batch.do(b, 200)
	batch.do(b, 200)

	labels, docs := uploadDocs()
	if labels[3] != "t0/p1080" {
		b.Fatalf("uploadDocs' fourth model is %q, want t0/p1080", labels[3])
	}
	newHandlerRig(b, h, http.MethodPost, "/v1/models?label="+labels[3], docs[3]).do(b, 200)
	hit1080 := newHandlerRig(b, h, http.MethodPost, "/v1/partition", []byte(`{"model":"t0/p1080","n":1000000000}`))
	hit1080.do(b, 200)
	hit1080.do(b, 200)

	errRig := newHandlerRig(b, h, http.MethodPost, "/v1/partition", []byte(`{"model":"nosuch","n":5000000}`))
	errRig.do(b, 400)
	badAlgo := newHandlerRig(b, h, http.MethodPost, "/v1/partition", []byte(`{"model":"m","n":5000000,"algo":"nosuch"}`))
	badAlgo.do(b, 400)

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			warm.do(b, 200)
		}
	})
	b.Run("batch16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch.do(b, 200)
		}
	})
	b.Run("hit1080", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hit1080.do(b, 200)
		}
	})
	b.Run("error", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			errRig.do(b, 400)
		}
	})
	b.Run("badalgo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			badAlgo.do(b, 400)
		}
	})
}

// uploadDocs returns the upload documents perfbench's cold workload draws
// with seed 1 (2.0 MB, 5,400 processors): for each of two tenants, one
// model per processor count 270, 540, 810 and 1080, each processor's
// knots drawn as perfbench's speedKnots draws them.
func uploadDocs() (labels []string, docs [][]byte) {
	rng := rand.New(rand.NewSource(1))
	for t := 0; t < 2; t++ {
		for _, p := range []int{270, 540, 810, 1080} {
			var doc clusterio.Cluster
			for j := 0; j < p; j++ {
				peak, paging := 1e7*(1+9*rng.Float64()), 1e7*(1+49*rng.Float64())
				speedAt := func(x float64) speed.Point {
					r := x / paging
					return speed.Point{X: x, Y: peak * (0.02 + 0.98/(1+r*r))}
				}
				var pts []speed.Point
				for x := 1e3; x < 2e9/4; x *= 8 {
					pts = append(pts, speedAt(x))
				}
				pts = append(pts, speedAt(2e9))
				doc.Processors = append(doc.Processors, clusterio.Processor{Name: "p" + strconv.Itoa(j), Points: pts})
			}
			data, err := json.Marshal(doc)
			if err != nil {
				panic(err)
			}
			labels = append(labels, fmt.Sprintf("t%d/p%d", t, p))
			docs = append(docs, data)
		}
	}
	return labels, docs
}

// BenchmarkDaemonModelUpload measures model ingest on uploadDocs, all
// eight documents per op: decode is clusterio.Load's one-pass scan,
// encodingjson the reference decoder it replaced (json.Decoder with
// DisallowUnknownFields, then Validate), and http posts the eight to a
// real daemon over loopback, which also expands, fingerprints and stores
// each model. ci.sh requires decode at most half of encodingjson's ns/op
// in one run.
func BenchmarkDaemonModelUpload(b *testing.B) {
	labels, docs := uploadDocs()
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, doc := range docs {
				if _, err := clusterio.Load(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, doc := range docs {
				dec := json.NewDecoder(bytes.NewReader(doc))
				dec.DisallowUnknownFields()
				var c clusterio.Cluster
				if err := dec.Decode(&c); err != nil {
					b.Fatal(err)
				}
				if err := c.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		rc := dialRaw(b, strings.TrimPrefix(startBenchDaemon(b), "http://"))
		reqs := make([][]byte, len(docs))
		for i, doc := range docs {
			reqs[i] = rawRequest("/v1/models?label="+labels[i], doc)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				rc.send(b, req, 1, "HTTP/1.1 200")
			}
		}
	})
}
