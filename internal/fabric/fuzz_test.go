package fabric

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// FuzzRelayResponse feeds arbitrary bytes to the relay's response parser.
// It must never panic, and a body it returns never exceeds maxForwardBody.
// Where net/http.ReadResponse also accepts the bytes with Content-Length
// or chunked framing, both must read the same status and body bytes.
func FuzzRelayResponse(f *testing.F) {
	for _, seed := range []string{
		// A reply captured from hetpartd.
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Hetpart-Tier: hit\r\n" +
			"Date: Sun, 18 Oct 2026 06:39:52 GMT\r\nContent-Length: 179\r\n\r\n" +
			`{"alloc":[373225,57955,224343,344477],"slope":534.8956859832196,"tier":"hit",` +
			`"stats":{"Algorithm":"combined","Steps":7,"Intersections":36,"FineTuneMoves":2,"UsedModified":false}}` + "\n",
		// An owner's same-model hit on a forwarded single.
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Hetpart-Same-Model: 1\r\nX-Hetpart-Tier: hit\r\n" +
			"Content-Length: 143\r\n\r\n" +
			`{"alloc":[10,20],"slope":3.5,"tier":"hit",` +
			`"stats":{"Algorithm":"combined","Steps":2,"Intersections":4,"FineTuneMoves":0,"UsedModified":false}}` + "\n",
		// Chunked, with a chunk extension and a trailer.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: yes\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 5\r\n\r\nbusy\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 3\n\nabc",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &relayConn{br: bufio.NewReader(bytes.NewReader(data))}
		status, _, _, _, body, err := c.readResponse(nil)
		if len(body) > maxForwardBody {
			t.Fatalf("body of %d bytes, bound %d", len(body), maxForwardBody)
		}
		if err != nil {
			return
		}
		resp, herr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if herr != nil {
			return
		}
		defer resp.Body.Close()
		want, herr := io.ReadAll(resp.Body)
		chunked := len(resp.TransferEncoding) == 1 && resp.TransferEncoding[0] == "chunked"
		// net/http reads no body for 1xx, 204 and 304 replies and ignores
		// Transfer-Encoding on HTTP/1.0, where the relay reads the framing
		// it is given.
		framed := chunked || resp.ContentLength >= 0 && resp.Header.Get("Transfer-Encoding") == ""
		if herr != nil || !framed || resp.StatusCode < 200 || resp.StatusCode == 204 || resp.StatusCode == 304 {
			return
		}
		if status != resp.StatusCode || !bytes.Equal(body, want) {
			t.Fatalf("relay read status %d body %q, net/http %d %q (input %q)",
				status, body, resp.StatusCode, want, strings.ToValidUTF8(string(data), "?"))
		}
	})
}
