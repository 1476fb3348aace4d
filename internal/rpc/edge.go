package rpc

// The raw HTTP/1.1 edge. The daemon's listener is served by a loop per
// connection that answers POST and GET /v1/partition itself: it parses the
// head straight out of a pooled bufio.Reader, hands the body reader to the
// partition route, and writes the whole reply with one write. The first
// request on a connection that falls outside that strict subset hands the
// whole connection, with its buffered bytes unconsumed, to the daemon's
// http.Server, which serves it from then on — so every other route, and
// every request shape the edge does not take, keeps net/http's semantics.
// DESIGN §13 lists the subset and the framing.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteropart/internal/fabric"
)

// edgeBufSize is the edge's read buffer, and so the longest head it takes.
const edgeBufSize = 4 << 10

var edgeReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, edgeBufSize) }}

// edge serves the daemon's listener and tracks its connections for
// Shutdown.
type edge struct {
	d       *Daemon
	handoff *handoffListener
	closing atomic.Bool
	mu      sync.Mutex
	conns   map[*edgeConn]struct{} // guarded by mu, as is each conn's idle
	wg      sync.WaitGroup         // one per tracked connection
}

func newEdge(d *Daemon) *edge {
	return &edge{d: d, conns: make(map[*edgeConn]struct{}),
		handoff: &handoffListener{conns: make(chan net.Conn), done: make(chan struct{})}}
}

// serve accepts on ln until Shutdown closes it, and then returns nil.
// Temporary accept errors are retried with net/http's backoff.
func (e *edge) serve(ln net.Listener) error {
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() && !e.closing.Load() {
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		} else if err != nil {
			if e.closing.Load() {
				return nil
			}
			return err
		}
		delay = 0
		e.mu.Lock()
		if e.closing.Load() {
			nc.Close()
		} else {
			c := &edgeConn{e: e, nc: nc}
			e.conns[c] = struct{}{}
			e.wg.Add(1)
			go c.serve()
		}
		e.mu.Unlock()
	}
}

// setIdle records whether c waits between requests, and reports false
// once Shutdown has begun: the connection then closes instead of waiting.
func (e *edge) setIdle(c *edgeConn, idle bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	c.idle = idle
	return !e.closing.Load()
}

// closeIdle closes the connections waiting between requests, or all of
// them.
func (e *edge) closeIdle(all bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for c := range e.conns {
		if c.idle || all {
			c.nc.Close()
		}
	}
}

// shutdown closes ln (nil when the daemon never listened) and the idle
// connections, and waits under ctx for the requests in flight, which answer
// with Connection: close. When ctx expires first, the rest are closed.
func (e *edge) shutdown(ctx context.Context, ln net.Listener) error {
	e.mu.Lock()
	e.closing.Store(true)
	e.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	e.closeIdle(false)
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		e.closeIdle(true)
		return ctx.Err()
	}
}

// edgeConn is one connection the edge serves.
type edgeConn struct {
	e    *edge
	nc   net.Conn
	br   *bufio.Reader
	head reqHead
	body io.LimitedReader
	w    edgeWriter
	idle bool
}

func (c *edgeConn) serve() {
	c.br = edgeReaders.Get().(*bufio.Reader)
	c.br.Reset(c.nc)
	c.w = edgeWriter{nc: c.nc, h: make(http.Header)}
	defer func() {
		if err := recover(); err != nil {
			log.Printf("rpc: panic serving %v: %v\n%s", c.nc.RemoteAddr(), err, debug.Stack())
		}
		if c.br != nil { // not handed over
			c.nc.Close()
			c.br.Reset(nil)
			edgeReaders.Put(c.br)
		}
		c.e.mu.Lock()
		delete(c.e.conns, c)
		c.e.mu.Unlock()
		c.e.wg.Done()
	}()
	// As net/http, a new connection's first head is due within the header
	// timeout; later ones only once their first bytes arrive.
	timeout := c.e.d.srv.ReadHeaderTimeout
	armed := timeout > 0
	if armed {
		c.nc.SetReadDeadline(time.Now().Add(timeout))
	}
	for post := false; ; post, armed = c.head.ask.post, false {
		if c.br.Buffered() == 0 {
			if !c.e.setIdle(c, true) {
				return
			}
			_, err := c.br.Peek(1)
			if !c.e.setIdle(c, false) || err != nil {
				return
			}
		}
		if post { // as net/http, skip the stray CRLF old clients send after a POST body
			peek, _ := c.br.Peek(4)
			c.br.Discard(len(peek) - len(bytes.TrimLeft(peek, "\r\n")))
		}
		ok, err := readHead(c.br, &c.head, c.nc, timeout, armed)
		if err != nil {
			return
		}
		if !ok {
			c.e.handoff.deliver(&handedConn{Conn: c.nc, br: c.br})
			c.br = nil
			return
		}
		c.body = io.LimitedReader{R: c.br, N: c.head.length}
		clear(c.w.h)
		c.w.code, c.w.chunked, c.w.body = 0, false, c.w.body[:0]
		c.e.d.partition(&c.w, c.head.ask, &c.body, c.head.length)
		c.w.close = c.e.closing.Load()
		if c.w.finish() != nil || c.w.close {
			return
		}
		if _, err := c.br.Discard(int(c.body.N)); err != nil {
			return
		}
	}
}

// readHead waits for a complete head at the front of br and parses it
// into h. It reports false, having consumed nothing, when the head is
// outside the edge's subset, overfills the buffer, or is half-closed: net/http
// then reads the same bytes. A head still incomplete after its first read
// arms timeout on nc (none when timeout <= 0; armed says it already is);
// err is a read error or that timeout, and the connection closes without a
// reply.
func readHead(br *bufio.Reader, h *reqHead, nc net.Conn, timeout time.Duration, armed bool) (bool, error) {
	for {
		buf, _ := br.Peek(br.Buffered())
		n := parseHead(buf, h)
		if n != 0 || len(buf) == edgeBufSize {
			if armed {
				nc.SetReadDeadline(time.Time{})
			}
			if n > 0 {
				br.Discard(n)
			}
			return n > 0, nil
		}
		if !armed && timeout > 0 {
			nc.SetReadDeadline(time.Now().Add(timeout))
			armed = true
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			if err == io.EOF && br.Buffered() > 0 {
				err = nil // a head the peer half-closed: net/http answers it
			}
			return false, err
		}
	}
}

// reqHead is a head the edge serves: the partition route's view of it and
// the body length.
type reqHead struct {
	ask    partitionAsk
	length int64
}

// parseHead decides the head at the front of buf against the edge's subset
// (DESIGN §13). It returns the head's length, with h filled, when buf starts
// with a complete head inside the subset; 0 when buf ends inside the head
// and every line so far is inside it; -1 otherwise.
func parseHead(buf []byte, h *reqHead) int {
	*h = reqHead{length: -1}
	var hosts, conns, models int
	var model []byte
	for off := 0; ; {
		i := bytes.IndexByte(buf[off:], '\n')
		if i < 0 {
			return 0
		}
		line := buf[off : off+i+1]
		if !bytes.HasSuffix(line, []byte("\r\n")) {
			return -1
		}
		line = line[:len(line)-2]
		first := off == 0
		off += i + 1
		switch {
		case first && string(line) == "POST /v1/partition HTTP/1.1":
			h.ask.post = true
			continue
		case first && string(line) == "GET /v1/partition HTTP/1.1":
			continue
		case first:
			return -1
		case len(line) == 0:
			if hosts != 1 || conns > 1 || h.ask.post != (h.length >= 0) {
				return -1
			}
			h.length = max(h.length, 0)
			if models == 1 {
				h.ask.model, h.ask.hasModel = parseFingerprint(model)
			}
			return off
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || len(name) == 0 || !only(name, "!#$%&'*+-.^_`|~") ||
			bytes.ContainsFunc(value, func(c rune) bool { return c < ' ' && c != '\t' || c == 0x7f }) {
			return -1
		}
		value = bytes.Trim(value, " \t")
		switch {
		case fabric.HeaderIs(name, "Host"):
			hosts++
			if !only(value, "!$%&'()*+,-.:;=[]_~") {
				return -1
			}
		case fabric.HeaderIs(name, "Content-Length"):
			n, err := fabric.ParseSize(value, 10)
			if h.length >= 0 || err != nil || n > maxBodyBytes {
				return -1
			}
			h.length = int64(n)
		case fabric.HeaderIs(name, "Connection"):
			if conns++; !fabric.HeaderIs(value, "keep-alive") {
				return -1
			}
		case fabric.HeaderIs(name, "Transfer-Encoding"), fabric.HeaderIs(name, "Expect"),
			fabric.HeaderIs(name, "Upgrade"), fabric.HeaderIs(name, "Trailer"):
			return -1
		case fabric.HeaderIs(name, fabric.ForwardedHeader):
			h.ask.forwarded = true
		case fabric.HeaderIs(name, fabric.ModelHeader):
			models, model = models+1, value
		}
	}
}

// only reports whether b holds nothing but ASCII letters, digits and the
// bytes of extra: with net/http's token symbols, a header name it accepts;
// with its Host symbols, a Host value it accepts.
func only(b []byte, extra string) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z' || strings.IndexByte(extra, c) >= 0) {
			return false
		}
	}
	return true
}

// edgeWriter is the http.ResponseWriter the edge gives the partition
// route. It buffers the reply and sends head and body in one write; once
// the buffered body reaches batchFlushBytes it switches to chunked framing
// and sends each later Write as one chunk, so a streamed batch keeps
// O(batchFlushBytes) of memory.
type edgeWriter struct {
	nc      net.Conn
	h       http.Header
	code    int
	chunked bool
	close   bool // answer Connection: close
	body    []byte
	out     []byte
	err     error
	dateSec int64
	date    []byte // the Date line, formatted once per second
}

func (w *edgeWriter) Header() http.Header { return w.h }

func (w *edgeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *edgeWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	if w.err != nil {
		return 0, w.err
	}
	if w.chunked {
		if len(p) == 0 { // an empty chunk would end the body
			return 0, nil
		}
		w.out = appendChunk(w.out[:0], p)
	} else if w.body = append(w.body, p...); len(w.body) >= batchFlushBytes {
		w.chunked = true
		w.out = appendChunk(w.appendHead(w.out[:0], -1), w.body)
	} else {
		return len(p), nil
	}
	_, w.err = w.nc.Write(w.out)
	return len(p), w.err
}

// finish sends what the route left: the whole reply, or the last chunk.
func (w *edgeWriter) finish() error {
	w.WriteHeader(http.StatusOK)
	if w.chunked {
		w.out = append(w.out[:0], "0\r\n\r\n"...)
	} else {
		w.out = append(w.appendHead(w.out[:0], len(w.body)), w.body...)
	}
	if w.err == nil {
		_, w.err = w.nc.Write(w.out)
	}
	if cap(w.out) > 1<<20 { // an outlier reply (a relayed batch) is not kept
		w.body, w.out = nil, nil
	}
	return w.err
}

// appendHead appends the status line, the route's headers, Date, and the
// framing: Content-Length when length >= 0, else chunked.
func (w *edgeWriter) appendHead(dst []byte, length int) []byte {
	dst = strconv.AppendInt(append(dst, "HTTP/1.1 "...), int64(w.code), 10)
	dst = append(append(append(dst, ' '), http.StatusText(w.code)...), "\r\n"...)
	for k, vs := range w.h {
		for _, v := range vs {
			dst = append(append(append(append(dst, k...), ": "...), v...), "\r\n"...)
		}
	}
	if now := time.Now(); now.Unix() != w.dateSec || w.date == nil {
		w.dateSec = now.Unix()
		w.date = append(now.UTC().AppendFormat(append(w.date[:0], "Date: "...), http.TimeFormat), "\r\n"...)
	}
	dst = append(dst, w.date...)
	if w.close {
		dst = append(dst, "Connection: close\r\n"...)
	}
	if length < 0 {
		return append(dst, "Transfer-Encoding: chunked\r\n\r\n"...)
	}
	return append(strconv.AppendInt(append(dst, "Content-Length: "...), int64(length), 10), "\r\n\r\n"...)
}

func appendChunk(dst, p []byte) []byte {
	dst = append(strconv.AppendInt(dst, int64(len(p)), 16), "\r\n"...)
	return append(append(dst, p...), "\r\n"...)
}

// handoffListener is the listener the daemon's http.Server serves: the
// edge delivers to it each connection it hands over.
type handoffListener struct {
	addr  net.Addr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *handoffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *handoffListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *handoffListener) Addr() net.Addr { return l.addr }

// deliver hands c to the server, or closes it once the server has stopped.
func (l *handoffListener) deliver(c net.Conn) {
	select {
	case l.conns <- c:
	case <-l.done:
		c.Close()
	}
}

// handedConn reads through the edge's reader, so net/http first sees the
// bytes the edge buffered but did not consume. It keeps CloseWrite, which
// net/http's graceful close uses.
type handedConn struct {
	net.Conn
	br *bufio.Reader
}

func (c *handedConn) Read(p []byte) (int, error) { return c.br.Read(p) }

func (c *handedConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}
