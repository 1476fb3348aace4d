package rpc

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heteropart/internal/fabric"
	"heteropart/internal/plancache"
)

// serveEdge serves d through Serve, the raw edge, and returns its address
// and a count of the connections the edge handed to net/http.
func serveEdge(t *testing.T, d *Daemon) (string, *atomic.Int64) {
	t.Helper()
	handed := new(atomic.Int64)
	d.srv.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			handed.Add(1)
		}
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
	return addr.String(), handed
}

// serveTwin serves d's handler from a plain http.Server with today's
// settings: the reference the edge is compared against.
func serveTwin(t *testing.T, d *Daemon) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// edgeStream is a raw byte stream sent on one connection: parts are
// written in turn with a pause between them, and replies final responses
// are read back. onEdge says whether the edge serves the stream itself or
// hands the connection to net/http; varies lists replies whose bodies
// legitimately differ between two daemons.
type edgeStream struct {
	name    string
	parts   []string
	replies int
	onEdge  bool
	varies  []int
}

// edgeReply is what the differential compares of one response.
type edgeReply struct {
	status int
	hdr    string
	body   []byte
}

var comparedHeaders = []string{"Content-Type", "Retry-After", fabric.TierHeader, fabric.SameModelHeader}

// runStream sends st to addr and returns its responses (1xx included) and
// whether the connection still answers a request afterwards; read, when
// not nil, runs once the responses are in, before that probe.
func runStream(t *testing.T, addr string, st edgeStream, read func()) ([]edgeReply, bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	for i, p := range st.parts {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		if _, err := c.Write([]byte(p)); err != nil {
			t.Fatalf("%s: write: %v", st.name, err)
		}
	}
	br := bufio.NewReader(c)
	var out []edgeReply
	for final := 0; final < st.replies; {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: response %d: %v", st.name, len(out), err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: body %d: %v", st.name, len(out), err)
		}
		r := edgeReply{status: resp.StatusCode, body: body}
		for _, h := range comparedHeaders {
			r.hdr += h + "=" + strings.Join(resp.Header.Values(h), ",") + ";"
		}
		out = append(out, r)
		if resp.StatusCode >= 200 {
			final++
		}
	}
	if read != nil {
		read()
	}
	c.Write([]byte("GET /healthz HTTP/1.1\r\nHost: probe\r\n\r\n"))
	resp, err := http.ReadResponse(br, nil)
	if err == nil {
		resp.Body.Close()
	}
	return out, err == nil
}

// post frames a partition POST with the head perfbench sends.
func post(body string, extra ...string) string {
	return "POST /v1/partition HTTP/1.1\r\nHost: edge\r\nContent-Type: application/json\r\n" +
		strings.Join(append(extra, ""), "\r\n") + fmt.Sprintf("Content-Length: %d\r\n\r\n", len(body)) + body
}

func ask(n int) string { return fmt.Sprintf(`{"model":"lab","n":%d}`, n) }

// compareStreams runs every stream on the edge daemon and on its twin and
// requires the same responses and the same connection fate, and that the
// edge served or handed over each stream as it declares.
func compareStreams(t *testing.T, edgeAddr string, handed *atomic.Int64, twinAddr string, streams []edgeStream) {
	t.Helper()
	for _, st := range streams {
		before := handed.Load()
		got, gotOpen := runStream(t, edgeAddr, st, func() {
			if n := handed.Load() - before; (n == 0) != st.onEdge {
				t.Errorf("%s: the edge handed over %d connections, want served on the edge %v", st.name, n, st.onEdge)
			}
		})
		want, wantOpen := runStream(t, twinAddr, st, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: edge answered %d responses, net/http %d", st.name, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.status != w.status || g.hdr != w.hdr {
				t.Errorf("%s: response %d: edge %d %s, net/http %d %s", st.name, i, g.status, g.hdr, w.status, w.hdr)
			}
			if !bytes.Equal(g.body, w.body) && !slices.Contains(st.varies, i) {
				t.Errorf("%s: response %d body:\nedge     %.300q\nnet/http %.300q", st.name, i, g.body, w.body)
			}
		}
		if gotOpen != wantOpen {
			t.Errorf("%s: connection open after the stream: edge %v, net/http %v", st.name, gotOpen, wantOpen)
		}
	}
}

// TestRawEdgeDifferential feeds the same raw byte streams to a daemon
// served through the raw edge and to its twin served by a plain
// http.Server, and compares every response: status, the headers clients
// act on, the de-framed body, and whether the connection stays open.
func TestRawEdgeDifferential(t *testing.T) {
	doc := testClusterDoc(t, 6, 31)
	newPair := func(cfg Config) (string, *atomic.Int64, string, *Daemon) {
		cfg.Addr = "127.0.0.1:0"
		cfg.Dir = t.TempDir()
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Dir = t.TempDir()
		twin, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		edgeAddr, handed := serveEdge(t, d)
		twinAddr := serveTwin(t, twin)
		for _, a := range []string{edgeAddr, twinAddr} {
			if code := postJSON(t, "http://"+a+"/v1/models?label=lab", doc, nil); code != 200 {
				t.Fatalf("upload: HTTP %d", code)
			}
		}
		return edgeAddr, handed, twinAddr, d
	}

	edgeAddr, handed, twinAddr, d := newPair(Config{})
	m, ok := d.Store().ModelByLabel([]byte("lab"))
	if !ok {
		t.Fatal("uploaded model not in the catalog")
	}
	fp := fmt.Sprintf("X-Hetpart-Model: %016x", m.Fingerprint())
	// The big batch repeats eight sizes; asked first as one small batch of
	// the eight, twice, they are resident, so its tiers do not depend on
	// which copy of a size the worker pool computes.
	batch := func(k int) string {
		var b strings.Builder
		b.WriteString(`{"requests":[`)
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ask(2_000_000 + (i%8)*10_000))
		}
		return b.String() + `]}`
	}
	eight, big := post(batch(8)), post(batch(3000))
	small := `{"requests":[` + ask(1_100_000) + `,` + ask(1_200_000) + `]}`
	warm := post(ask(1_100_000))
	cl := fmt.Sprint(len(ask(1_100_000)))
	chunkedBody := ask(1_400_000)
	streams := []edgeStream{
		{name: "miss then hit", parts: []string{warm + warm}, replies: 2, onEdge: true},
		{name: "warm hit", parts: []string{warm}, replies: 1, onEdge: true},
		{name: "small batch", parts: []string{post(small)}, replies: 1, onEdge: true},
		{name: "batch past 64 KiB", parts: []string{eight + eight, big + big}, replies: 4, onEdge: true},
		{name: "bad JSON", parts: []string{post(`{"model":`)}, replies: 1, onEdge: true},
		{name: "unknown model", parts: []string{post(`{"model":"nosuch","n":5}`)}, replies: 1, onEdge: true},
		{name: "oversize Content-Length", parts: []string{fmt.Sprintf(
			"POST /v1/partition HTTP/1.1\r\nHost: edge\r\nContent-Length: %d\r\n\r\n{", maxBodyBytes+1)}, replies: 1},
		{name: "forwarding fence", parts: []string{post(ask(1_300_000)) + post(ask(1_300_000)) +
			post(ask(1_300_000), "X-Hetpart-Forwarded: 1", fp) +
			post(ask(1_300_000), "X-Hetpart-Forwarded: 1", "X-Hetpart-Model: 0x1") +
			post(ask(1_300_001), "X-Hetpart-Forwarded: 1", fp)}, replies: 5, onEdge: true},
		{name: "three pipelined", parts: []string{post(ask(1_100_000)) + post(`{"model":"nosuch","n":1}`) + post(small)},
			replies: 3, onEdge: true},
		{name: "head split across writes", parts: []string{"POST /v1/partition HTTP/1.1\r\nHo",
			"st: edge\r\nContent-Length: " + cl + "\r\n\r\n" + ask(1_100_000)}, replies: 1, onEdge: true},
		{name: "GET", parts: []string{"GET /v1/partition HTTP/1.1\r\nHost: edge\r\n\r\n"}, replies: 1, onEdge: true},
		{name: "stats then partition", parts: []string{"GET /v1/stats HTTP/1.1\r\nHost: edge\r\n\r\n" + warm},
			replies: 2, varies: []int{0}},
		{name: "chunked body", parts: []string{"POST /v1/partition HTTP/1.1\r\nHost: edge\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(chunkedBody), chunkedBody)}, replies: 1},
		{name: "Expect: 100-continue", parts: []string{post(ask(1_100_000), "Expect: 100-continue")}, replies: 1},
		{name: "HTTP/1.0", parts: []string{strings.Replace(warm, "HTTP/1.1", "HTTP/1.0", 1)}, replies: 1},
		{name: "Connection: close", parts: []string{post(ask(1_100_000), "Connection: close")}, replies: 1},
		{name: "Connection: keep-alive", parts: []string{post(ask(1_100_000), "Connection: keep-alive")}, replies: 1, onEdge: true},
		{name: "lowercase names", parts: []string{"POST /v1/partition HTTP/1.1\r\nhost: edge\r\ncontent-length: " + cl + "\r\n" +
			"x-hetpart-forwarded: 1\r\n\r\n" + ask(1_100_000)}, replies: 1, onEdge: true},
		{name: "missing Host", parts: []string{"POST /v1/partition HTTP/1.1\r\nContent-Length: " + cl + "\r\n\r\n" + ask(1_100_000)}, replies: 1},
		{name: "duplicate Host", parts: []string{post(ask(1_100_000), "Host: again")}, replies: 1},
		{name: "duplicate Content-Length", parts: []string{post(ask(1_100_000), "Content-Length: "+cl)}, replies: 1},
		{name: "bare LF", parts: []string{"GET /v1/partition HTTP/1.1\nHost: edge\n\n"}, replies: 1},
		{name: "head over 4 KiB", parts: []string{post(ask(1_100_000), "X-Pad: "+strings.Repeat("p", edgeBufSize))}, replies: 1},
	}
	compareStreams(t, edgeAddr, handed, twinAddr, streams)

	t.Run("quota", func(t *testing.T) {
		edgeAddr, handed, twinAddr, _ := newPair(Config{TenantQPS: 0.001, TenantBurst: 1})
		compareStreams(t, edgeAddr, handed, twinAddr, []edgeStream{
			{name: "second ask refused", parts: []string{warm + warm}, replies: 2, onEdge: true},
		})
	})
	t.Run("booting", func(t *testing.T) {
		shell := func() *Daemon {
			d, err := newShell(Config{Addr: "127.0.0.1:0", Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		edgeAddr, handed := serveEdge(t, shell())
		compareStreams(t, edgeAddr, handed, serveTwin(t, shell()), []edgeStream{
			{name: "503 while booting", parts: []string{warm + warm}, replies: 2, onEdge: true},
		})
	})
}

// FuzzRawEdgeHead holds the edge's head parser to net/http: on any bytes
// it never panics; when it refuses a head it has consumed nothing, so the
// connection net/http takes over replays the input exactly; and when it
// accepts one, a real http.Server fed the same bytes calls its handler with
// the same method, path, Content-Length, forwarding fence and
// X-Hetpart-Model value.
func FuzzRawEdgeHead(f *testing.F) {
	body := ask(5_000_000)
	for _, head := range []string{
		// perfbench's partition POST and its probe's GET.
		"POST /v1/partition HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: 25\r\n\r\n",
		"GET /v1/partition HTTP/1.1\r\nHost: perfbench\r\n\r\n",
		// The fabric relay's forwarded single.
		"POST /v1/partition HTTP/1.1\r\nHost: 127.0.0.1:7411\r\nContent-Type: application/json\r\n" +
			"X-Hetpart-Forwarded: 1\r\nContent-Length: 25\r\nX-Hetpart-Model: 00000000deadbeef\r\n\r\n",
		// Go's http.Client.
		"POST /v1/partition HTTP/1.1\r\nHost: 127.0.0.1:7411\r\nUser-Agent: Go-http-client/1.1\r\n" +
			"Content-Length: 25\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n",
		"POST /v1/partition HTTP/1.1\r\nhost: x\r\ncontent-length: 025\r\nconnection: Keep-Alive\r\n\r\n",
		"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: 25\r\nX-Hetpart-Model: 0x1\r\nX-Hetpart-Model: 2\r\n\r\n",
		"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: 25\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /v1/partition HTTP/1.1\r\nHost: x\r\n Content-Length: 25\r\n\r\n",
		"POST /v1/partition HTTP/1.1\r\nHost: a b\r\nContent-Length: 25\r\n\r\n",
		"POST /v1/partition HTTP/1.0\r\nContent-Length: 25\r\n\r\n",
		"POST /v1/partition HTTP/1.1\nHost: x\nContent-Length: 25\n\n",
		"POST /v1/partition HTTP/1.1\r\nHost: x\r\nContent-Length: 25\r\n",
		"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		f.Add([]byte(head), []byte(body))
	}
	type seen struct {
		method, path string
		length       int64
		ask          partitionAsk
	}
	type ctxKey struct{}
	type pipeConn struct {
		net.Conn
		seen chan seen
	}
	hl := &handoffListener{conns: make(chan net.Conn), done: make(chan struct{})}
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case r.Context().Value(ctxKey{}).(chan seen) <- seen{r.Method, r.RequestURI, r.ContentLength, askOf(r)}:
			default:
			}
		}),
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			return context.WithValue(ctx, ctxKey{}, c.(*pipeConn).seen)
		},
		ReadHeaderTimeout: 10 * time.Second,
	}
	go srv.Serve(hl)
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, head, body []byte) {
		data := append(append([]byte(nil), head...), body...)
		var h reqHead
		br := bufio.NewReaderSize(bytes.NewReader(data), edgeBufSize)
		ok, err := readHead(br, &h, nil, 0, false)
		if err != nil {
			if len(data) > 0 {
				t.Fatalf("read error %v on %d bytes in memory", err, len(data))
			}
			return
		}
		if !ok {
			if rest, _ := io.ReadAll(br); !bytes.Equal(rest, data) {
				t.Fatalf("refused head consumed input:\n in  %q\n out %q", data, rest)
			}
			return
		}
		cli, end := net.Pipe()
		defer cli.Close()
		ch := make(chan seen, 1)
		hl.deliver(&pipeConn{Conn: end, seen: ch})
		go func() {
			cli.Write(data)
			io.Copy(io.Discard, cli)
		}()
		want := seen{"GET", "/v1/partition", h.length, h.ask}
		if h.ask.post {
			want.method = "POST"
		}
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("edge parsed %+v, net/http %+v, from %q", want, got, data)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the edge accepted a head net/http never served: %q", data)
		}
	})
}

// TestRawEdgeShutdownDrains shuts a daemon down while the edge is serving a
// request whose plan admission is held in the WAL tap: the idle edge
// connection closes at once, the held request still answers 200 with
// Connection: close, the connection net/http took over is drained too,
// Serve returns nil, and no goroutine is left behind.
func TestRawEdgeShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	d, err := New(Config{Addr: "127.0.0.1:0", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Listen()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve() }()
	if code := postJSON(t, "http://"+addr.String()+"/v1/models?label=lab", testClusterDoc(t, 6, 31), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	http.DefaultClient.CloseIdleConnections()

	dial := func() (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c, bufio.NewReader(c)
	}
	roundTrip := func(c net.Conn, br *bufio.Reader, req string) *http.Response {
		if _, err := c.Write([]byte(req)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	closed := func(c net.Conn, br *bufio.Reader) bool {
		_, err := br.ReadByte()
		return err == io.EOF
	}

	idle, idleR := dial()
	roundTrip(idle, idleR, post(ask(900_000)))
	handed, handedR := dial()
	if resp := roundTrip(handed, handedR, "GET /v1/stats HTTP/1.1\r\nHost: edge\r\n\r\n"); resp.StatusCode != 200 {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	busy, busyR := dial()
	roundTrip(busy, busyR, post(ask(1_000_000))) // the miss parks in the window

	entered, open := make(chan struct{}), make(chan struct{})
	d.cache.SetInsertTap(func(plancache.PlanRecord) {
		close(entered)
		<-open
	})
	if _, err := busy.Write([]byte(post(ask(1_000_000)))); err != nil {
		t.Fatal(err)
	}
	<-entered // the second ask's admission is held in flight

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- d.Shutdown(ctx)
	}()
	if !closed(idle, idleR) {
		t.Fatal("the idle edge connection was not closed")
	}
	close(open)
	resp, err := http.ReadResponse(busyR, nil)
	if err != nil {
		t.Fatalf("the request in flight lost its answer: %v", err)
	}
	if resp.StatusCode != 200 || !resp.Close {
		t.Fatalf("the request in flight answered %d, Connection: close %v; want 200 and close", resp.StatusCode, resp.Close)
	}
	io.Copy(io.Discard, resp.Body)
	if !closed(busy, busyR) {
		t.Fatal("the edge kept the drained connection open")
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after a graceful shutdown: %v", err)
	}
	if !closed(handed, handedR) {
		t.Fatal("net/http did not close the connection handed to it")
	}
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines after shutdown, %d before the daemon", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRawEdgeHeaderTimeout: as with net/http, a head stalled after its
// first read, and a new connection that sends nothing, are closed without
// a reply once the server's ReadHeaderTimeout expires, while a connection
// idle between requests waits with no deadline.
func TestRawEdgeHeaderTimeout(t *testing.T) {
	d, err := New(Config{Addr: "127.0.0.1:0", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 100 * time.Millisecond
	d.srv.ReadHeaderTimeout = timeout
	addr, _ := serveEdge(t, d)
	if code := postJSON(t, "http://"+addr+"/v1/models?label=lab", testClusterDoc(t, 6, 31), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	dial := func() net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	idle := dial()
	idleR := bufio.NewReader(idle)
	roundTrip := func() {
		if _, err := idle.Write([]byte(post(ask(1_000_000)))); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(idleR, nil)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("idle connection: %v %v", resp, err)
		}
		io.Copy(io.Discard, resp.Body)
	}
	roundTrip()
	for name, head := range map[string]string{"stalled head": "POST /v1/partition HTTP/1.1\r\nHost: edge\r\n", "silent connection": ""} {
		c := dial()
		start := time.Now()
		if _, err := c.Write([]byte(head)); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read %d bytes, %v; want the connection closed without a reply", name, n, err)
		}
		if took := time.Since(start); took < timeout {
			t.Fatalf("%s: closed after %v, before the %v timeout", name, took, timeout)
		}
	}
	time.Sleep(timeout)
	roundTrip() // more than 2 x timeout after its last request
}

// TestRawEdgeSplitBody: a body that arrives in many small writes is read
// whole, and answers what it answers in one piece.
func TestRawEdgeSplitBody(t *testing.T) {
	d, err := New(Config{Addr: "127.0.0.1:0", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	addr, handed := serveEdge(t, d)
	if code := postJSON(t, "http://"+addr+"/v1/models?label=lab", testClusterDoc(t, 6, 31), nil); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	body := `{"requests":[` + ask(1_100_000) + `,` + ask(1_200_000) + `,` + ask(1_300_000) + `]}`
	req := post(body)
	head := len(req) - len(body)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	read := func() []byte {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("HTTP %d %v: %s", resp.StatusCode, err, data)
		}
		return data
	}
	c.Write([]byte(req))
	read()
	c.Write([]byte(req))
	whole := read() // every element is resident now
	before := handed.Load()
	c.Write([]byte(req[:head]))
	for off := head; off < len(req); off += 7 {
		time.Sleep(time.Millisecond)
		c.Write([]byte(req[off:min(off+7, len(req))]))
	}
	if got := read(); !bytes.Equal(got, whole) {
		t.Fatalf("split body answered\n%s\nwant\n%s", got, whole)
	}
	if handed.Load() != before {
		t.Fatal("the edge handed the split body to net/http")
	}
}
