package fabric

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeMember is a scripted HTTP/1.1 peer. It accepts connections, checks
// that each request is the relay's fenced POST, and writes whatever reply
// returns for it; conn counts accepted connections from 1 and req counts
// requests on that connection from 1. An empty reply hangs up without
// answering.
type fakeMember struct {
	ln      net.Listener
	url     string
	accepts atomic.Int32
	// hangups receives the index of each connection the relay closed.
	hangups chan int
	// models records each request's X-Hetpart-Model values, in order.
	mu     sync.Mutex
	models [][]string
}

func startFakeMember(t *testing.T, reply func(conn, req int, body []byte) string) *fakeMember {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fm := &fakeMember{ln: ln, url: "http://" + ln.Addr().String(), hangups: make(chan int, 64)}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conn := int(fm.accepts.Add(1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				fm.serve(t, nc, conn, reply)
			}()
		}
	}()
	return fm
}

func (fm *fakeMember) serve(t *testing.T, nc net.Conn, conn int, reply func(conn, req int, body []byte) string) {
	tp := textproto.NewReader(bufio.NewReader(nc))
	for req := 1; ; req++ {
		line, err := tp.ReadLine()
		if err != nil {
			if errors.Is(err, io.EOF) {
				select {
				case fm.hangups <- conn:
				default:
				}
			}
			return
		}
		hdr, err := tp.ReadMIMEHeader()
		if err != nil {
			t.Errorf("conn %d: reading request header: %v", conn, err)
			return
		}
		if line != "POST /v1/partition HTTP/1.1" || hdr.Get(ForwardedHeader) != "1" ||
			hdr.Get("Host") != fm.ln.Addr().String() || hdr.Get("Content-Type") != "application/json" {
			t.Errorf("conn %d: unexpected request %q %v", conn, line, hdr)
			return
		}
		fm.mu.Lock()
		fm.models = append(fm.models, hdr[ModelHeader])
		fm.mu.Unlock()
		n, err := strconv.Atoi(hdr.Get("Content-Length"))
		if err != nil {
			t.Errorf("conn %d: Content-Length: %v", conn, err)
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(tp.R, body); err != nil {
			t.Errorf("conn %d: reading body: %v", conn, err)
			return
		}
		out := reply(conn, req, body)
		if out == "" {
			return
		}
		if _, err := io.WriteString(nc, out); err != nil {
			return
		}
	}
}

// waitHangup returns the index of the next connection the relay closed.
func (fm *fakeMember) waitHangup(t *testing.T) int {
	t.Helper()
	select {
	case conn := <-fm.hangups:
		return conn
	case <-time.After(5 * time.Second):
		t.Fatal("no connection was closed by the relay")
		return 0
	}
}

// lengthReply frames body with Content-Length; extra headers go first.
func lengthReply(status int, body string, extra ...string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.1 %d X\r\n", status)
	for _, h := range extra {
		sb.WriteString(h + "\r\n")
	}
	fmt.Fprintf(&sb, "Content-Length: %d\r\n\r\n%s", len(body), body)
	return sb.String()
}

// chunkedReply frames body as chunks of at most size bytes.
func chunkedReply(status int, body string, size int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.1 %d X\r\nTransfer-Encoding: chunked\r\n\r\n", status)
	for len(body) > 0 {
		n := min(size, len(body))
		fmt.Fprintf(&sb, "%x;ext=1\r\n%s\r\n", n, body[:n])
		body = body[n:]
	}
	sb.WriteString("0\r\nTrailer-X: y\r\n\r\n")
	return sb.String()
}

// relayTo builds a two-member fabric whose other member is fm, returning
// the fabric and fm's member index.
func relayTo(t *testing.T, fm *fakeMember, timeout time.Duration) (*Fabric, int) {
	t.Helper()
	f, err := New("http://127.0.0.1:1", []string{fm.url}, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for i := range f.members {
		if !f.IsSelf(i) {
			return f, i
		}
	}
	t.Fatal("no remote member")
	return nil, 0
}

func TestNewRejectsNonHTTPMembers(t *testing.T) {
	for _, u := range []string{
		"https://a:1", "a:1", "http://a", "http://a:", "http://:1", "http://a:x",
		"http://a:70000", "http://a:1/", "http://a:1/v1", "http://u@a:1", "http://a:1?q",
	} {
		if _, err := New("http://self:1", []string{u}, 0); err == nil {
			t.Errorf("peer %q accepted", u)
		}
		if _, err := New(u, nil, 0); err == nil {
			t.Errorf("self %q accepted", u)
		}
	}
	if _, err := New("http://[::1]:7411", []string{"http://10.0.0.2:7411"}, 0); err != nil {
		t.Fatalf("plain host:port members rejected: %v", err)
	}
}

// Both framings relay the body verbatim, the tier header sets remoteHit,
// and the bytes land after whatever dst already held.
func TestForwardFramings(t *testing.T) {
	const body = `{"alloc":[1,2,3],"tier":"hit"}` + "\n"
	fm := startFakeMember(t, func(conn, req int, in []byte) string {
		switch string(in) {
		case "length":
			return lengthReply(200, body, "X-Hetpart-Tier: hit")
		case "chunked":
			return chunkedReply(422, body, 7)
		default:
			return lengthReply(400, "")
		}
	})
	f, owner := relayTo(t, fm, 0)
	status, hit, _, out, err := f.Forward(owner, 0, []byte("length"), []byte("pre:"))
	if err != nil || status != 200 || !hit || string(out) != "pre:"+body {
		t.Fatalf("Content-Length reply: status %d hit %v out %q err %v", status, hit, out, err)
	}
	status, hit, _, out, err = f.Forward(owner, 0, []byte("chunked"), out[:0])
	if err != nil || status != 422 || hit || string(out) != body {
		t.Fatalf("chunked reply: status %d hit %v out %q err %v", status, hit, out, err)
	}
	status, _, _, out, err = f.Forward(owner, 0, []byte("empty"), out[:0])
	if err != nil || status != 400 || len(out) != 0 {
		t.Fatalf("empty reply: status %d out %q err %v", status, out, err)
	}
	if n := fm.accepts.Load(); n != 1 {
		t.Fatalf("%d connections for three forwards, want 1 kept alive", n)
	}
}

// The request names the edge's model fingerprint, as 16 hex digits, only
// when it has one, and the owner's X-Hetpart-Same-Model sets sameModel.
func TestForwardModelHeaders(t *testing.T) {
	fm := startFakeMember(t, func(conn, req int, in []byte) string {
		if string(in) == "same" {
			return lengthReply(200, "x", "X-Hetpart-Tier: hit", "X-Hetpart-Same-Model: 1")
		}
		return lengthReply(200, "x", "X-Hetpart-Tier: hit")
	})
	f, owner := relayTo(t, fm, 0)
	if _, hit, same, _, err := f.Forward(owner, 0, []byte("none"), nil); err != nil || !hit || same {
		t.Fatalf("no fingerprint: hit %v same %v err %v", hit, same, err)
	}
	if _, hit, same, _, err := f.Forward(owner, 0xabcdef0123, []byte("same"), nil); err != nil || !hit || !same {
		t.Fatalf("confirmed fingerprint: hit %v same %v err %v", hit, same, err)
	}
	if _, _, same, _, err := f.Forward(owner, 1<<63, []byte("other"), nil); err != nil || same {
		t.Fatalf("unconfirmed fingerprint: same %v err %v", same, err)
	}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	want := [][]string{nil, {"000000abcdef0123"}, {"8000000000000000"}}
	if fmt.Sprint(fm.models) != fmt.Sprint(want) {
		t.Fatalf("%s values %q, want %q", ModelHeader, fm.models, want)
	}
}

// A reply over the 64 MiB bound fails under either framing before its
// body is read, and its connection is closed, not pooled.
func TestForwardResponseBound(t *testing.T) {
	fm := startFakeMember(t, func(conn, req int, in []byte) string {
		if string(in) == "length" {
			return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", maxForwardBody+1)
		}
		// Two chunk sizes within the bound each, over it together: the
		// relay must refuse the second before reading its data.
		return "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("a\r\n0123456789\r\n%x\r\n", maxForwardBody-9)
	})
	f, owner := relayTo(t, fm, 0)
	for i, in := range []string{"length", "chunked"} {
		if _, _, _, _, err := f.Forward(owner, 0, []byte(in), nil); !errors.Is(err, errTooLarge) {
			t.Fatalf("%s reply over the bound: err %v, want %v", in, err, errTooLarge)
		}
		if got := fm.waitHangup(t); got != i+1 {
			t.Fatalf("%s: relay closed conn %d, want %d", in, got, i+1)
		}
	}
	if n := len(f.pools[owner].idle); n != 0 {
		t.Fatalf("%d connections pooled after failed forwards", n)
	}
}

// "Connection: close" and HTTP/1.0 replies are relayed, and their
// connections are closed instead of pooled.
func TestForwardConnectionClose(t *testing.T) {
	fm := startFakeMember(t, func(conn, req int, in []byte) string {
		if conn == 1 {
			return lengthReply(200, "a", "Connection: Close")
		}
		return strings.Replace(lengthReply(200, "b"), "HTTP/1.1", "HTTP/1.0", 1)
	})
	f, owner := relayTo(t, fm, 0)
	for i, want := range []string{"a", "b", "b"} {
		if _, _, _, out, err := f.Forward(owner, 0, []byte("x"), nil); err != nil || string(out) != want {
			t.Fatalf("forward %d: out %q err %v", i, out, err)
		}
		if got := fm.waitHangup(t); got != i+1 {
			t.Fatalf("forward %d: relay closed conn %d, want %d", i, got, i+1)
		}
	}
}

// A pooled connection the member closed while idle is retried once on a
// fresh dial; a fresh connection that fails is not retried.
func TestForwardRetryRule(t *testing.T) {
	fm := startFakeMember(t, func(conn, req int, in []byte) string {
		switch {
		case string(in) == "drop" && conn > 2:
			return "" // hang up on the fresh dial too
		case req > 1:
			return "" // the member dropped its idle keep-alive
		}
		return lengthReply(200, fmt.Sprintf("conn%d", conn))
	})
	f, owner := relayTo(t, fm, 0)
	if _, _, _, out, err := f.Forward(owner, 0, []byte("ok"), nil); err != nil || string(out) != "conn1" {
		t.Fatalf("first forward: %q %v", out, err)
	}
	// Conn 1 is pooled; the member drops it on its second request, so the
	// relay retries on conn 2.
	if _, _, _, out, err := f.Forward(owner, 0, []byte("ok"), nil); err != nil || string(out) != "conn2" {
		t.Fatalf("forward over a dropped keep-alive: %q %v", out, err)
	}
	// Conn 2 is pooled and dropped, the retry on conn 3 is dropped too:
	// the error surfaces, with no third attempt.
	if _, _, _, _, err := f.Forward(owner, 0, []byte("drop"), nil); err == nil {
		t.Fatal("forward whose retry failed reported success")
	}
	if n := fm.accepts.Load(); n != 3 {
		t.Fatalf("%d connections dialed, want 3 (one retry per forward)", n)
	}
	// A fresh dial that fails is not retried: an empty pool, conn 4 drops.
	if _, _, _, _, err := f.Forward(owner, 0, []byte("drop"), nil); err == nil {
		t.Fatal("dropped fresh connection reported success")
	}
	if n := fm.accepts.Load(); n != 4 {
		t.Fatalf("%d connections dialed, want 4 (fresh dials are not retried)", n)
	}
}

// Concurrent forwards share the pool safely; the pool keeps at most
// maxIdlePerMember connections, and Close hangs up on all of them.
func TestForwardConcurrentPool(t *testing.T) {
	fm := startFakeMember(t, func(conn, req int, in []byte) string {
		return lengthReply(200, string(in))
	})
	f, owner := relayTo(t, fm, 0)
	const workers, each = 24, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []byte
			for i := 0; i < each; i++ {
				in := []byte(fmt.Sprintf("w%d-%d", w, i))
				var err error
				if _, _, _, out, err = f.Forward(owner, 0, in, out[:0]); err != nil || !bytes.Equal(out, in) {
					t.Errorf("worker %d forward %d: out %q err %v", w, i, out, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	p := f.pools[owner]
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	if idle == 0 || idle > maxIdlePerMember {
		t.Fatalf("%d idle connections after the burst, want 1..%d", idle, maxIdlePerMember)
	}
	// Every connection past the cap was closed on its return; Close
	// closes the rest, so the member sees every connection hang up.
	f.Close()
	for i := int(fm.accepts.Load()); i > 0; i-- {
		fm.waitHangup(t)
	}
	// A closed fabric still forwards; it just keeps nothing open.
	if _, _, _, _, err := f.Forward(owner, 0, []byte("late"), nil); err != nil {
		t.Fatalf("forward after Close: %v", err)
	}
	if n := len(p.idle); n != 0 {
		t.Fatalf("closed pool kept %d connections", n)
	}
}
