package fabric

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Wire headers of the forwarding protocol.
const (
	// ForwardedHeader is the single-hop loop fence: a member answering a
	// request that carries it always serves locally, never re-forwards —
	// so a stale or disagreeing member list can cost one extra hop's
	// latency but can never form a forwarding cycle. Owners also skip
	// per-tenant quota charging under the fence (the edge that accepted
	// the client request already charged it).
	ForwardedHeader = "X-Hetpart-Forwarded"
	// TierHeader is set by the owner on forwarded single requests so the
	// forwarding edge can count remote cache hits without parsing the
	// response body it relays verbatim.
	TierHeader = "X-Hetpart-Tier"
	// ModelHeader carries the fingerprint the forwarding edge resolved the
	// request's model to, as 16 hex digits; it is absent when the edge
	// could not resolve it.
	ModelHeader = "X-Hetpart-Model"
	// SameModelHeader is the owner's "1" on a forwarded single it answered
	// as a hit on a model whose fingerprint equals ModelHeader's: the
	// relayed plan is the one the edge would compute, so it may keep it.
	SameModelHeader = "X-Hetpart-Same-Model"
)

// maxForwardBody bounds a relayed response (matches the request-side
// body bound in rpc).
const maxForwardBody = 64 << 20

// maxIdlePerMember caps the keep-alive connections kept open to one
// member between forwards. A burst wider than this dials extra
// connections and closes them when it drains.
const maxIdlePerMember = 16

var (
	errTooLarge  = fmt.Errorf("response exceeds %d bytes", maxForwardBody)
	errMalformed = errors.New("malformed response")
	errUnframed  = errors.New("response has neither Content-Length nor chunked framing")
)

// memberAddr checks that a member base URL is plain "http://host:port" —
// the daemon serves no TLS and the relay sends to a fixed path — and
// returns its host:port, which the relay dials and sends as Host.
func memberAddr(u string) (string, error) {
	hostport, ok := strings.CutPrefix(u, "http://")
	if ok && !strings.ContainsAny(hostport, "/?#@") {
		host, port, err := net.SplitHostPort(hostport)
		if _, perr := strconv.ParseUint(port, 10, 16); err == nil && perr == nil && host != "" {
			return hostport, nil
		}
	}
	return "", fmt.Errorf("fabric: member URL %q is not http://host:port", u)
}

// pool is the relay's keep-alive connections to one member. Each forward
// takes a connection (the most recently used idle one, else a fresh
// dial), sends one request, reads one response, and puts the connection
// back only if the exchange ended cleanly and the member did not ask to
// close it.
type pool struct {
	addr string // host:port: the dial address and the Host header
	// head is the request head up to the Content-Length value; every
	// connection starts its head buffer with a copy of it.
	head []byte

	mu     sync.Mutex
	idle   []*relayConn
	closed bool
}

func newPool(addr string) *pool {
	return &pool{
		addr: addr,
		head: []byte("POST /v1/partition HTTP/1.1\r\nHost: " + addr +
			"\r\nContent-Type: application/json\r\n" + ForwardedHeader + ": 1\r\nContent-Length: "),
	}
}

// relayConn is one keep-alive connection and the buffers its exchanges
// reuse: the request head, the two-element write vector, and the reader
// the response is parsed from.
type relayConn struct {
	nc   net.Conn
	br   *bufio.Reader
	head []byte
	iov  [2][]byte
	vec  net.Buffers
}

func (p *pool) dial(deadline time.Time) (*relayConn, error) {
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	return &relayConn{
		nc:   nc,
		br:   bufio.NewReader(nc),
		head: append(make([]byte, 0, len(p.head)+64), p.head...),
	}, nil
}

func (p *pool) get() *relayConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return c
}

func (p *pool) put(c *relayConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdlePerMember {
		p.idle = append(p.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.nc.Close()
	}
}

// close closes the idle connections; connections out on a forward are
// closed when it returns instead of being pooled.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// forward relays one /v1/partition body and appends the response body to
// dst; model, when not 0, goes out as ModelHeader. The timeout is one
// deadline over the whole exchange, dial and retry included. A reused
// idle connection that fails before the first response byte is the member
// having closed it while it sat in the pool, so the request is sent once
// more on a fresh dial; no other failure is retried. On error the
// returned slice is still dst's (possibly grown) buffer, so the caller
// can keep it.
func (p *pool) forward(model uint64, body, dst []byte, timeout time.Duration) (status int, hit, same bool, out []byte, err error) {
	deadline := time.Now().Add(timeout)
	c := p.get()
	if c != nil {
		if err = p.send(c, model, body, deadline); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			c.nc.Close()
			c = nil
		}
	}
	if c == nil {
		if c, err = p.dial(deadline); err != nil {
			return 0, false, false, dst, err
		}
		err = p.send(c, model, body, deadline)
	}
	out, keep := dst, false
	if err == nil {
		status, hit, same, keep, out, err = c.readResponse(dst)
	}
	if err != nil || !keep || c.br.Buffered() > 0 {
		c.nc.Close()
	} else {
		p.put(c)
	}
	return status, hit, same, out, err
}

// send writes the request head and body with one writev and waits for
// the first byte of the response.
func (p *pool) send(c *relayConn, model uint64, body []byte, deadline time.Time) error {
	if err := c.nc.SetDeadline(deadline); err != nil {
		return err
	}
	c.head = strconv.AppendInt(c.head[:len(p.head)], int64(len(body)), 10)
	if model != 0 {
		c.head = append(c.head, "\r\n"+ModelHeader+": "...)
		for shift := 60; shift >= 0; shift -= 4 {
			c.head = append(c.head, "0123456789abcdef"[model>>shift&0xf])
		}
	}
	c.head = append(c.head, "\r\n\r\n"...)
	c.iov = [2][]byte{c.head, body}
	c.vec = c.iov[:]
	_, err := c.vec.WriteTo(c.nc)
	c.iov[1] = nil // do not pin the caller's body
	if err != nil {
		return err
	}
	_, err = c.br.Peek(1)
	return err
}

// readResponse parses the status line and the headers the relay acts on
// (the framing, Connection, X-Hetpart-Tier and X-Hetpart-Same-Model), then
// appends the body to dst. keep reports whether the connection may carry
// another request.
func (c *relayConn) readResponse(dst []byte) (status int, hit, same, keep bool, out []byte, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, false, false, dst, err
	}
	// "HTTP/1.1 200 OK\r\n": an HTTP/1.0 reply closes after its body.
	if len(line) < 13 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' ||
		(line[12] != ' ' && line[12] != '\r' && line[12] != '\n') {
		return 0, false, false, false, dst, errMalformed
	}
	keep = line[7] == '1'
	for _, b := range line[9:12] {
		if b < '0' || b > '9' {
			return 0, false, false, false, dst, errMalformed
		}
		status = status*10 + int(b-'0')
	}
	length, chunked := -1, false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, false, false, false, dst, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, false, false, false, dst, errMalformed
		}
		value = bytes.TrimSpace(value)
		switch {
		case HeaderIs(name, "Content-Length"):
			if length, err = ParseSize(value, 10); err != nil {
				return 0, false, false, false, dst, err
			}
		case HeaderIs(name, "Transfer-Encoding"):
			if !HeaderIs(value, "chunked") {
				return 0, false, false, false, dst, errUnframed
			}
			chunked = true
		case HeaderIs(name, "Connection"):
			// net/http sends a bare "close"; a close hidden in a token
			// list would cost one retry on the connection's next use.
			if HeaderIs(value, "close") {
				keep = false
			}
		case HeaderIs(name, TierHeader):
			hit = string(value) == "hit"
		case HeaderIs(name, SameModelHeader):
			same = string(value) == "1"
		}
	}
	switch {
	case chunked:
		out, err = readChunked(c.br, dst)
	case length >= 0:
		out, err = readN(c.br, dst, length)
	default:
		return 0, false, false, false, dst, errUnframed
	}
	return status, hit, same, keep, out, err
}

// headerIs compares a header name or token case-insensitively.
func HeaderIs(b []byte, want string) bool {
	return len(b) == len(want) && strings.EqualFold(string(b), want)
}

// parseSize parses a Content-Length (base 10) or chunk size (base 16),
// rejecting anything past the relay's response bound before a byte of
// the body is read.
func ParseSize(b []byte, base int) (int, error) {
	if len(b) == 0 {
		return 0, errMalformed
	}
	n := 0
	for _, ch := range b {
		d := 0
		switch {
		case ch >= '0' && ch <= '9':
			d = int(ch - '0')
		case base == 16 && ch|0x20 >= 'a' && ch|0x20 <= 'f':
			d = int(ch|0x20-'a') + 10
		default:
			return 0, errMalformed
		}
		if n = n*base + d; n > maxForwardBody {
			return 0, errTooLarge
		}
	}
	return n, nil
}

// readN appends exactly n body bytes to dst.
func readN(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	dst = slices.Grow(dst, n)
	m := len(dst)
	if _, err := io.ReadFull(br, dst[m:m+n]); err != nil {
		return dst[:m], err
	}
	return dst[:m+n], nil
}

// readChunked appends a chunked body to dst: hex-size lines (extensions
// ignored), each chunk followed by CRLF, a zero chunk, then a trailer
// section ended by an empty line. The bound applies to the sum of the
// chunks.
func readChunked(br *bufio.Reader, dst []byte) ([]byte, error) {
	start := len(dst)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return dst, err
		}
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := ParseSize(bytes.TrimSpace(line), 16)
		if err != nil {
			return dst, err
		}
		if size == 0 {
			break
		}
		if len(dst)-start+size > maxForwardBody {
			return dst, errTooLarge
		}
		if dst, err = readN(br, dst, size); err != nil {
			return dst, err
		}
		if line, err = br.ReadSlice('\n'); err != nil {
			return dst, err
		}
		if len(bytes.TrimRight(line, "\r\n")) != 0 {
			return dst, errMalformed
		}
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return dst, err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return dst, nil
		}
	}
}
