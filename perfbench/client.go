package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a keep-alive HTTP/1.1 connection that writes preformatted
// requests and parses responses only as far as status, framing and body.
// The load generator shares the host with the daemon, so it must cost far
// less per request than net/http's client would.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // last response body, reused across round trips

	// sent and first stamp the last round trip: when the request write
	// returned and when the first response byte arrived.
	sent, first time.Time
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// roundTrip writes one request and reads its response into c.body,
// returning the status code.
func (c *conn) roundTrip(req []byte) (int, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, err
	}
	c.sent = time.Now()
	if _, err := c.br.Peek(1); err != nil {
		return 0, err
	}
	c.first = time.Now()
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(h) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(h, []byte("Content-Length: ")); ok {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, fmt.Errorf("bad header %q", h)
			}
		} else if bytes.HasPrefix(h, []byte("Transfer-Encoding: chunked")) {
			chunked = true
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		// Replies past net/http's buffering threshold arrive as hex-sized
		// chunks closed by a zero-size one.
		for {
			sz, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(sz)), 16, 64)
			if err != nil {
				return 0, fmt.Errorf("bad chunk size %q", sz)
			}
			if err := c.readBody(int(n)); err != nil {
				return 0, err
			}
			if _, err := c.br.Discard(2); err != nil { // CRLF after each chunk
				return 0, err
			}
			if n == 0 {
				return status, nil
			}
		}
	case length >= 0:
		return status, c.readBody(length)
	default:
		return 0, errors.New("response has neither Content-Length nor chunked framing")
	}
}

// readBody appends the next n bytes of the stream to c.body.
func (c *conn) readBody(n int) error {
	off := len(c.body)
	if cap(c.body) < off+n {
		c.body = append(c.body[:cap(c.body)], make([]byte, off+n-cap(c.body))...)
	}
	c.body = c.body[:off+n]
	_, err := io.ReadFull(c.br, c.body[off:])
	return err
}

// appendPost frames body as a POST to path.
func appendPost(dst []byte, path string, body []byte) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// splitObject cuts the JSON object at the front of b from the rest.
func splitObject(b []byte) (obj, rest []byte, err error) {
	if len(b) == 0 || b[0] != '{' {
		return nil, nil, fmt.Errorf("want an object at %.40q", b)
	}
	depth, inStr := 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '{':
			depth++
		case c == '}':
			if depth--; depth == 0 {
				return b[:i+1], b[i+1:], nil
			}
		}
	}
	return nil, nil, fmt.Errorf("unterminated object %.40q", b)
}

// reply is the part of one partition reply the checks read.
type reply struct {
	alloc   []int64
	slope   float64
	hit     bool   // served from the plan cache
	content []byte // the alloc and slope fields, verbatim
}

// parseReply reads {"alloc":[...],"slope":...,"tier":"...",...} into r,
// reusing r.alloc. The daemon's encoder writes these fields first and in
// this order.
func parseReply(obj []byte, r *reply) error {
	rest, ok := bytes.CutPrefix(obj, []byte(`{"alloc":[`))
	if !ok {
		return fmt.Errorf("not a plan: %.200s", obj)
	}
	// Shares are non-negative integers; parsing them by hand keeps the
	// check allocation-free.
	r.alloc = r.alloc[:0]
	for {
		var x int64
		i := 0
		for ; i < len(rest) && rest[i] >= '0' && rest[i] <= '9' && i < 18; i++ {
			x = x*10 + int64(rest[i]-'0')
		}
		if i == 0 || i == len(rest) || (rest[i] != ',' && rest[i] != ']') {
			return fmt.Errorf("bad alloc in %.200s", obj)
		}
		r.alloc = append(r.alloc, x)
		end := rest[i]
		rest = rest[i+1:]
		if end == ']' {
			break
		}
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"slope":`))
	if !ok {
		return fmt.Errorf("no slope: %.200s", obj)
	}
	i := bytes.IndexByte(rest, ',')
	if i < 0 {
		return fmt.Errorf("unterminated slope: %.200s", obj)
	}
	var err error
	if r.slope, err = strconv.ParseFloat(string(rest[:i]), 64); err != nil {
		return fmt.Errorf("bad slope %q", rest[:i])
	}
	r.content = obj[:len(obj)-len(rest)+i]
	rest, ok = bytes.CutPrefix(rest[i:], []byte(`,"tier":"`))
	if !ok {
		return fmt.Errorf("no tier: %.200s", obj)
	}
	if i = bytes.IndexByte(rest, '"'); i < 0 {
		return fmt.Errorf("unterminated tier: %.200s", obj)
	}
	r.hit = string(rest[:i]) == "hit"
	return nil
}
