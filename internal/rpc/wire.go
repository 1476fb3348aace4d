package rpc

// The partition wire codec: a pooled, allocation-free request parser and
// response encoder for /v1/partition, the daemon's hot path.
//
// The stdlib path this replaces cost ~30 allocations per warm request: a
// fresh json.Decoder, the whole body buffered into a json.RawMessage,
// *two* unmarshals of that raw message (batch probe, then single), and a
// fresh json.Encoder plus interface boxing on the way out. Here one
// wireScratch — body buffer, parse scratch, response buffer, allocation
// arena — is pooled per request, the body is parsed in a single pass
// (batch vs single decided by the first key of the top-level object), and
// the fixed response shape is encoded by hand, byte-identical to
// encoding/json (proved by the golden + fuzz suite in wire_test.go).
//
// Parser compatibility contract (mirrors how json.Decoder behaved here):
// duplicate keys last-wins, null leaves the field untouched, unknown
// fields are skipped but syntax-validated, \uXXXX escapes and surrogate
// pairs decode, invalid UTF-8 coerces to U+FFFD, raw control characters
// in strings are rejected, int64 fields accept only integer literals,
// nesting is capped at the same depth encoding/json enforces, and
// trailing bytes after the first top-level value are ignored (stream
// semantics, as json.Decoder.Decode had).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"heteropart/internal/core"
	"heteropart/internal/fabric"
	"heteropart/internal/serve"
)

// maxParseDepth matches encoding/json's nesting limit, so the fuzz
// differential cannot diverge on pathological inputs.
const maxParseDepth = 10000

// Shared header values: assigning a prebuilt []string into the header map
// avoids the slice Header.Set allocates per call.
var (
	headerJSON   = []string{"application/json"}
	headerRetry1 = []string{"1"}
	// Prebuilt X-Hetpart-Tier values: the owner side of a forwarded
	// request announces the serving tier in a header (the body is relayed
	// verbatim by the edge, which must not parse it), and assigning these
	// keeps the warm forwarded path allocation-free.
	headerTierHit    = []string{"hit"}
	headerTierShared = []string{"shared"}
	headerTierMiss   = []string{"miss"}
)

// batchFlushBytes is the streaming threshold for batch responses: once
// the encode buffer passes it, the bytes so far are flushed to the client
// and the buffer reused, bounding memory at O(threshold) instead of
// O(batch). Small batches still go out in one write with Content-Length.
const batchFlushBytes = 64 << 10

// Pre-encoded bodies for the recurring fixed responses (the trailing
// newline matches json.Encoder.Encode).
var (
	bodyUsePOST        = []byte(`{"error":"use POST"}` + "\n")
	bodyBooting        = []byte(`{"error":"booting: store replaying"}` + "\n")
	bodySyncing        = []byte(`{"error":"replica syncing; retry when /readyz is 200"}` + "\n")
	bodyTooLarge       = []byte(`{"error":"bad JSON: http: request body too large"}` + "\n")
	errBodyTooLarge    = errors.New("http: request body too large")
	errUnexpectedEnd   = errors.New("unexpected end of JSON input")
	errTopLevelNotObj  = errors.New("top-level value must be an object")
	errRequestsNotArr  = errors.New("requests must be an array")
	errRequestNotObj   = errors.New("each request must be an object")
	errDepth           = errors.New("exceeded max nesting depth")
	errStringCtl       = errors.New("invalid control character in string literal")
	errBadEscape       = errors.New("invalid escape in string literal")
	errBadNumber       = errors.New("invalid number literal")
	errNotInteger      = errors.New("not an integer")
	errIntegerOverflow = errors.New("integer overflow")
)

// wireItem is the per-request state of a batch: a validation error, a
// quota rejection, a synchronously served cache hit (allocation stored in
// the scratch arena), or a pending engine submission.
type wireItem struct {
	err      error
	wait     <-chan serve.Response
	hit      bool
	slope    float64
	stats    core.Stats
	allocOff int
	allocLen int
	// ts is the element's tenant counter block, resolved during the
	// admission pass and charged during the encode pass.
	ts *fabric.TenantStats
	// retry > 0 marks a quota rejection: the element answers an error
	// entry telling the tenant to retry after that many seconds.
	retry int
}

// wireScratch is everything one request needs, pooled across requests. A
// warm single request touches only memory owned here.
type wireScratch struct {
	body   []byte        // request body
	out    []byte        // response bytes, encoded here or relayed from the owner
	strBuf []byte        // unescaped string data (spans point into it)
	reqs   []wireRequest // parsed requests (len 1 for a single)
	items  []wireItem    // batch serving state
	arena  core.Allocation
	pos    int // parser cursor into body
}

var wirePool = sync.Pool{New: func() any { return &wireScratch{} }}

// releaseWire returns a scratch to the pool, dropping buffers an outlier
// request blew up (an 8 MiB body should not be retained forever).
func releaseWire(sc *wireScratch) {
	const keep = 1 << 20
	if cap(sc.body) > keep {
		sc.body = nil
	}
	if cap(sc.out) > keep {
		sc.out = nil
	}
	if cap(sc.strBuf) > keep {
		sc.strBuf = nil
	}
	wirePool.Put(sc)
}

// span locates a parsed string: in the body when the literal had no
// escapes, in strBuf when it was unescaped. Offsets stay valid across
// strBuf growth, unlike aliased slices.
type span struct {
	off, n int
	inBuf  bool
}

func (sc *wireScratch) spanBytes(sp span) []byte {
	if sp.inBuf {
		return sc.strBuf[sp.off : sp.off+sp.n]
	}
	return sc.body[sp.off : sp.off+sp.n]
}

// wireRequest is one parsed partition ask, held without allocating:
// strings are spans, options are flattened values with presence flags.
// Its fields are the wire document's {"model", "n", "algo", "options":
// {"fineTune", "maxSteps", "elasticity", "bisection"}}; wire_test.go's
// partitionRequest is the encoding/json reference it is checked against.
type wireRequest struct {
	model span
	n     int64
	algo  span

	fineTune    bool
	hasFineTune bool
	maxSteps    int
	elasticity  float64
	bisection   span
}

func (wr *wireRequest) reset() { *wr = wireRequest{} }

// ---------------------------------------------------------------------------
// Body intake

// readBody fills sc.body from the request, enforcing maxBodyBytes without
// the http.MaxBytesReader allocation.
func (sc *wireScratch) readBody(r *http.Request) error {
	if cl := r.ContentLength; cl >= 0 {
		if cl > maxBodyBytes {
			return errBodyTooLarge
		}
		if int64(cap(sc.body)) < cl {
			sc.body = make([]byte, cl)
		}
		sc.body = sc.body[:cl]
		off := 0
		for off < len(sc.body) {
			n, err := r.Body.Read(sc.body[off:])
			off += n
			if err != nil {
				if off == len(sc.body) {
					break
				}
				return fmt.Errorf("reading body: %v", err)
			}
		}
		return nil
	}
	// Chunked (unknown length): grow until EOF or the limit.
	sc.body = sc.body[:0]
	if cap(sc.body) == 0 {
		sc.body = make([]byte, 0, 4096)
	}
	for {
		if len(sc.body) == cap(sc.body) {
			if len(sc.body) >= maxBodyBytes {
				return errBodyTooLarge
			}
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Body.Read(sc.body[len(sc.body):cap(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if err != nil {
			if len(sc.body) > maxBodyBytes {
				return errBodyTooLarge
			}
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("reading body: %v", err)
		}
	}
}

// ---------------------------------------------------------------------------
// Parser

func (sc *wireScratch) skipWS() {
	for sc.pos < len(sc.body) {
		switch sc.body[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// peek returns the next significant byte without consuming it.
func (sc *wireScratch) peek() (byte, error) {
	sc.skipWS()
	if sc.pos >= len(sc.body) {
		return 0, errUnexpectedEnd
	}
	return sc.body[sc.pos], nil
}

func (sc *wireScratch) invalidChar() error {
	return fmt.Errorf("invalid character %q at offset %d", sc.body[sc.pos], sc.pos)
}

// parsePartition parses the body as a single request or a batch, deciding
// from the first key of the top-level object — the single pass that
// replaces the old RawMessage double-decode. On return sc.reqs holds the
// parsed requests (exactly one for a single).
func (sc *wireScratch) parsePartition() (batch bool, err error) {
	sc.pos = 0
	sc.strBuf = sc.strBuf[:0]
	sc.reqs = sc.reqs[:0]

	c, err := sc.peek()
	if err != nil {
		return false, err
	}
	if c == 'n' {
		// Top-level null decodes into an untouched struct (so: an empty
		// single request), exactly as json.Decoder.Decode had it.
		if err := sc.parseNull(); err != nil {
			return false, err
		}
		sc.reqs = sc.growReqs(1)
		sc.reqs[0].reset()
		return false, nil
	}
	if c != '{' {
		return false, errTopLevelNotObj
	}
	sc.pos++
	c, err = sc.peek()
	if err != nil {
		return false, err
	}
	if c == '}' {
		// {} is a single empty request (model validation rejects it later,
		// exactly as unmarshaling into an empty struct did).
		sc.pos++
		sc.reqs = sc.growReqs(1)
		sc.reqs[0].reset()
		return false, nil
	}
	firstKey, err := sc.parseString()
	if err != nil {
		return false, err
	}
	if err := sc.expect(':'); err != nil {
		return false, err
	}
	if bytes.EqualFold(sc.spanBytes(firstKey), keyRequests) {
		return true, sc.parseBatchBody()
	}
	sc.reqs = sc.growReqs(1)
	sc.reqs[0].reset()
	return false, sc.parseRequestFields(&sc.reqs[0], firstKey)
}

// growReqs returns sc.reqs extended to n entries, reusing capacity.
func (sc *wireScratch) growReqs(n int) []wireRequest {
	if cap(sc.reqs) < n {
		out := make([]wireRequest, n, n*2)
		copy(out, sc.reqs)
		return out
	}
	return sc.reqs[:n]
}

// parseBatchBody parses the remainder of a batch object whose "requests"
// key has just been consumed. Later duplicate "requests" keys re-parse
// (last wins, as encoding/json had it); other keys are skipped.
func (sc *wireScratch) parseBatchBody() error {
	if err := sc.parseRequestsArray(); err != nil {
		return err
	}
	for {
		c, err := sc.peek()
		if err != nil {
			return err
		}
		switch c {
		case '}':
			sc.pos++
			return nil
		case ',':
			sc.pos++
		default:
			return sc.invalidChar()
		}
		key, err := sc.parseString()
		if err != nil {
			return err
		}
		if err := sc.expect(':'); err != nil {
			return err
		}
		if bytes.EqualFold(sc.spanBytes(key), keyRequests) {
			sc.reqs = sc.reqs[:0]
			if err := sc.parseRequestsArray(); err != nil {
				return err
			}
			continue
		}
		if err := sc.skipValue(0); err != nil {
			return err
		}
	}
}

// parseRequestsArray parses the value of a "requests" key: null (no-op)
// or an array of request objects appended to sc.reqs.
func (sc *wireScratch) parseRequestsArray() error {
	c, err := sc.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return sc.parseNull()
	}
	if c != '[' {
		return errRequestsNotArr
	}
	sc.pos++
	c, err = sc.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		sc.pos++
		return nil
	}
	for {
		sc.reqs = sc.growReqs(len(sc.reqs) + 1)
		wr := &sc.reqs[len(sc.reqs)-1]
		wr.reset()
		if err := sc.parseRequestObject(wr); err != nil {
			return err
		}
		c, err := sc.peek()
		if err != nil {
			return err
		}
		switch c {
		case ',':
			sc.pos++
		case ']':
			sc.pos++
			return nil
		default:
			return sc.invalidChar()
		}
	}
}

// parseRequestObject parses one {...} request (null is a no-op element,
// as unmarshaling null into a struct is).
func (sc *wireScratch) parseRequestObject(wr *wireRequest) error {
	c, err := sc.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return sc.parseNull()
	}
	if c != '{' {
		return errRequestNotObj
	}
	sc.pos++
	c, err = sc.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		sc.pos++
		return nil
	}
	key, err := sc.parseString()
	if err != nil {
		return err
	}
	if err := sc.expect(':'); err != nil {
		return err
	}
	return sc.parseRequestFields(wr, key)
}

// parseRequestFields parses request fields starting from an already-read
// first key, through the closing brace.
func (sc *wireScratch) parseRequestFields(wr *wireRequest, key span) error {
	for {
		if err := sc.parseRequestField(wr, key); err != nil {
			return err
		}
		c, err := sc.peek()
		if err != nil {
			return err
		}
		switch c {
		case '}':
			sc.pos++
			return nil
		case ',':
			sc.pos++
		default:
			return sc.invalidChar()
		}
		if key, err = sc.parseString(); err != nil {
			return err
		}
		if err := sc.expect(':'); err != nil {
			return err
		}
	}
}

// Field-name candidates for the case-insensitive fallback match
// encoding/json applies when no field name matches a key exactly.
var (
	keyModel    = []byte("model")
	keyN        = []byte("n")
	keyAlgo     = []byte("algo")
	keyOptions  = []byte("options")
	keyRequests = []byte("requests")
	keyFineTune = []byte("fineTune")
	keyMaxSteps = []byte("maxSteps")
	keyElastic  = []byte("elasticity")
	keyBisect   = []byte("bisection")
)

func (sc *wireScratch) parseRequestField(wr *wireRequest, key span) error {
	k := sc.spanBytes(key)
	switch string(k) {
	case "model":
		return sc.parseStringField(&wr.model)
	case "n":
		return sc.parseInt64Field(&wr.n, "n")
	case "algo":
		return sc.parseStringField(&wr.algo)
	case "options":
		return sc.parseOptions(wr)
	}
	// Exact match failed; fold-match the way encoding/json resolves keys
	// (the field names are distinct under folding, so order is moot).
	switch {
	case bytes.EqualFold(k, keyModel):
		return sc.parseStringField(&wr.model)
	case bytes.EqualFold(k, keyN):
		return sc.parseInt64Field(&wr.n, "n")
	case bytes.EqualFold(k, keyAlgo):
		return sc.parseStringField(&wr.algo)
	case bytes.EqualFold(k, keyOptions):
		return sc.parseOptions(wr)
	}
	return sc.skipValue(0)
}

// parseOptions parses the options object into the request's flattened
// option fields.
func (sc *wireScratch) parseOptions(wr *wireRequest) error {
	c, err := sc.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return sc.parseNull()
	}
	if c != '{' {
		return fmt.Errorf("options must be an object")
	}
	sc.pos++
	c, err = sc.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		sc.pos++
		return nil
	}
	for {
		key, err := sc.parseString()
		if err != nil {
			return err
		}
		if err := sc.expect(':'); err != nil {
			return err
		}
		if err := sc.parseOptionField(wr, key); err != nil {
			return err
		}
		c, err := sc.peek()
		if err != nil {
			return err
		}
		switch c {
		case '}':
			sc.pos++
			return nil
		case ',':
			sc.pos++
		default:
			return sc.invalidChar()
		}
	}
}

// parseOptionField parses one options-object field, exact match first,
// then encoding/json's case-insensitive fallback.
func (sc *wireScratch) parseOptionField(wr *wireRequest, key span) error {
	k := sc.spanBytes(key)
	switch string(k) {
	case "fineTune":
		return sc.parseBoolField(&wr.fineTune, &wr.hasFineTune)
	case "maxSteps":
		return sc.parseMaxSteps(wr)
	case "elasticity":
		return sc.parseFloatField(&wr.elasticity)
	case "bisection":
		return sc.parseStringField(&wr.bisection)
	}
	switch {
	case bytes.EqualFold(k, keyFineTune):
		return sc.parseBoolField(&wr.fineTune, &wr.hasFineTune)
	case bytes.EqualFold(k, keyMaxSteps):
		return sc.parseMaxSteps(wr)
	case bytes.EqualFold(k, keyElastic):
		return sc.parseFloatField(&wr.elasticity)
	case bytes.EqualFold(k, keyBisect):
		return sc.parseStringField(&wr.bisection)
	}
	return sc.skipValue(0)
}

// parseMaxSteps bounds the int field at int32 range — tighter than the
// platform int encoding/json fills, and deliberately so: a step budget
// past 2^31 is garbage input, not a plan anyone wants computed.
func (sc *wireScratch) parseMaxSteps(wr *wireRequest) error {
	v := int64(wr.maxSteps)
	if err := sc.parseInt64Field(&v, "maxSteps"); err != nil {
		return err
	}
	if v > math.MaxInt32 || v < math.MinInt32 {
		return fmt.Errorf("maxSteps %d: %w", v, errIntegerOverflow)
	}
	wr.maxSteps = int(v)
	return nil
}

// parseStringField sets *dst unless the value is null.
func (sc *wireScratch) parseStringField(dst *span) error {
	c, err := sc.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return sc.parseNull()
	}
	sp, err := sc.parseString()
	if err != nil {
		return err
	}
	*dst = sp
	return nil
}

func (sc *wireScratch) parseBoolField(dst *bool, set *bool) error {
	c, err := sc.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return sc.parseNull()
	case 't':
		if err := sc.parseLiteral("true"); err != nil {
			return err
		}
		*dst, *set = true, true
		return nil
	case 'f':
		if err := sc.parseLiteral("false"); err != nil {
			return err
		}
		*dst, *set = false, true
		return nil
	default:
		return sc.invalidChar()
	}
}

// parseInt64Field parses an integer number the way encoding/json fills an
// int64: the literal must be a JSON number with no fraction or exponent,
// in range.
func (sc *wireScratch) parseInt64Field(dst *int64, field string) error {
	c, err := sc.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return sc.parseNull()
	}
	lit, err := sc.scanNumber()
	if err != nil {
		return err
	}
	v, err := parseWireInt(lit)
	if err != nil {
		return fmt.Errorf("%s %s: %w", field, lit, err)
	}
	*dst = v
	return nil
}

func (sc *wireScratch) parseFloatField(dst *float64) error {
	c, err := sc.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return sc.parseNull()
	}
	lit, err := sc.scanNumber()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return errBadNumber
	}
	*dst = v
	return nil
}

func (sc *wireScratch) parseNull() error { return sc.parseLiteral("null") }

func (sc *wireScratch) parseLiteral(lit string) error {
	if len(sc.body)-sc.pos < len(lit) || string(sc.body[sc.pos:sc.pos+len(lit)]) != lit {
		return fmt.Errorf("invalid literal at offset %d", sc.pos)
	}
	sc.pos += len(lit)
	return nil
}

func (sc *wireScratch) expect(c byte) error {
	got, err := sc.peek()
	if err != nil {
		return err
	}
	if got != c {
		return sc.invalidChar()
	}
	sc.pos++
	return nil
}

// parseString consumes a string literal. The common escape-free ASCII
// literal aliases the body; anything else is unescaped into strBuf with
// encoding/json's semantics (\uXXXX with surrogate pairs, invalid UTF-8
// to U+FFFD, raw control characters rejected).
func (sc *wireScratch) parseString() (span, error) {
	c, err := sc.peek()
	if err != nil {
		return span{}, err
	}
	if c != '"' {
		return span{}, sc.invalidChar()
	}
	sc.pos++
	start := sc.pos
	for i := sc.pos; i < len(sc.body); i++ {
		b := sc.body[i]
		if b == '"' {
			sc.pos = i + 1
			return span{off: start, n: i - start}, nil
		}
		if b == '\\' || b < 0x20 || b >= utf8.RuneSelf {
			break
		}
	}
	return sc.parseStringSlow(start)
}

func (sc *wireScratch) parseStringSlow(start int) (span, error) {
	bufStart := len(sc.strBuf)
	i := start
	for i < len(sc.body) {
		b := sc.body[i]
		switch {
		case b == '"':
			sc.pos = i + 1
			return span{off: bufStart, n: len(sc.strBuf) - bufStart, inBuf: true}, nil
		case b == '\\':
			i++
			if i >= len(sc.body) {
				return span{}, errUnexpectedEnd
			}
			switch sc.body[i] {
			case '"':
				sc.strBuf = append(sc.strBuf, '"')
			case '\\':
				sc.strBuf = append(sc.strBuf, '\\')
			case '/':
				sc.strBuf = append(sc.strBuf, '/')
			case 'b':
				sc.strBuf = append(sc.strBuf, '\b')
			case 'f':
				sc.strBuf = append(sc.strBuf, '\f')
			case 'n':
				sc.strBuf = append(sc.strBuf, '\n')
			case 'r':
				sc.strBuf = append(sc.strBuf, '\r')
			case 't':
				sc.strBuf = append(sc.strBuf, '\t')
			case 'u':
				r, n, err := sc.decodeUnicodeEscape(i - 1)
				if err != nil {
					return span{}, err
				}
				sc.strBuf = utf8.AppendRune(sc.strBuf, r)
				// n counts from the backslash; land on the escape's last
				// byte so the shared i++ below steps past it.
				i += n - 2
			default:
				return span{}, errBadEscape
			}
			i++
		case b < 0x20:
			return span{}, errStringCtl
		case b < utf8.RuneSelf:
			sc.strBuf = append(sc.strBuf, b)
			i++
		default:
			r, size := utf8.DecodeRune(sc.body[i:])
			if r == utf8.RuneError && size == 1 {
				sc.strBuf = utf8.AppendRune(sc.strBuf, utf8.RuneError)
				i++
			} else {
				sc.strBuf = append(sc.strBuf, sc.body[i:i+size]...)
				i += size
			}
		}
	}
	return span{}, errUnexpectedEnd
}

// decodeUnicodeEscape decodes \uXXXX at offset i (pointing at the
// backslash), combining surrogate pairs; it returns the rune and how many
// input bytes the escape(s) consumed.
func (sc *wireScratch) decodeUnicodeEscape(i int) (rune, int, error) {
	r, ok := hex4(sc.body, i+2)
	if !ok {
		return 0, 0, errBadEscape
	}
	if !utf16.IsSurrogate(r) {
		return r, 6, nil
	}
	// A surrogate followed by a \uXXXX completing a valid pair combines
	// and consumes both escapes; any other arrangement writes U+FFFD and
	// consumes only the first, exactly as encoding/json unquotes it.
	if i+12 <= len(sc.body) && sc.body[i+6] == '\\' && sc.body[i+7] == 'u' {
		if r2, ok := hex4(sc.body, i+8); ok {
			if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
				return dec, 12, nil
			}
		}
	}
	return utf8.RuneError, 6, nil
}

func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, false
		}
	}
	return r, true
}

// scanNumber validates JSON number grammar and returns the literal.
func (sc *wireScratch) scanNumber() ([]byte, error) {
	sc.skipWS()
	start := sc.pos
	i := sc.pos
	n := len(sc.body)
	if i < n && sc.body[i] == '-' {
		i++
	}
	switch {
	case i < n && sc.body[i] == '0':
		i++
	case i < n && sc.body[i] >= '1' && sc.body[i] <= '9':
		for i < n && sc.body[i] >= '0' && sc.body[i] <= '9' {
			i++
		}
	default:
		if i >= n {
			return nil, errUnexpectedEnd
		}
		sc.pos = i
		return nil, sc.invalidChar()
	}
	if i < n && sc.body[i] == '.' {
		i++
		if i >= n || sc.body[i] < '0' || sc.body[i] > '9' {
			return nil, errBadNumber
		}
		for i < n && sc.body[i] >= '0' && sc.body[i] <= '9' {
			i++
		}
	}
	if i < n && (sc.body[i] == 'e' || sc.body[i] == 'E') {
		i++
		if i < n && (sc.body[i] == '+' || sc.body[i] == '-') {
			i++
		}
		if i >= n || sc.body[i] < '0' || sc.body[i] > '9' {
			return nil, errBadNumber
		}
		for i < n && sc.body[i] >= '0' && sc.body[i] <= '9' {
			i++
		}
	}
	sc.pos = i
	return sc.body[start:i], nil
}

// parseWireInt is strconv.ParseInt(lit, 10, 64) without the string
// conversion; lit is a syntactically valid JSON number.
func parseWireInt(lit []byte) (int64, error) {
	neg := false
	i := 0
	if lit[0] == '-' {
		neg = true
		i = 1
	}
	var v uint64
	for ; i < len(lit); i++ {
		c := lit[i]
		if c < '0' || c > '9' {
			return 0, errNotInteger
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, errIntegerOverflow
		}
		v = v*10 + d
	}
	if neg {
		if v > math.MaxInt64+1 {
			return 0, errIntegerOverflow
		}
		return -int64(v), nil
	}
	if v > math.MaxInt64 {
		return 0, errIntegerOverflow
	}
	return int64(v), nil
}

// skipValue consumes one JSON value of any shape, validating syntax, for
// unknown fields.
func (sc *wireScratch) skipValue(depth int) error {
	if depth > maxParseDepth {
		return errDepth
	}
	c, err := sc.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		sc.pos++
		c, err := sc.peek()
		if err != nil {
			return err
		}
		if c == '}' {
			sc.pos++
			return nil
		}
		for {
			if _, err := sc.parseString(); err != nil {
				return err
			}
			if err := sc.expect(':'); err != nil {
				return err
			}
			if err := sc.skipValue(depth + 1); err != nil {
				return err
			}
			c, err := sc.peek()
			if err != nil {
				return err
			}
			if c == '}' {
				sc.pos++
				return nil
			}
			if c != ',' {
				return sc.invalidChar()
			}
			sc.pos++
		}
	case '[':
		sc.pos++
		c, err := sc.peek()
		if err != nil {
			return err
		}
		if c == ']' {
			sc.pos++
			return nil
		}
		for {
			if err := sc.skipValue(depth + 1); err != nil {
				return err
			}
			c, err := sc.peek()
			if err != nil {
				return err
			}
			if c == ']' {
				sc.pos++
				return nil
			}
			if c != ',' {
				return sc.invalidChar()
			}
			sc.pos++
		}
	case '"':
		// Skipped strings still validate escapes; rewind strBuf afterwards
		// so skipped data costs no retained scratch.
		mark := len(sc.strBuf)
		_, err := sc.parseString()
		sc.strBuf = sc.strBuf[:mark]
		return err
	case 't':
		return sc.parseLiteral("true")
	case 'f':
		return sc.parseLiteral("false")
	case 'n':
		return sc.parseLiteral("null")
	default:
		_, err := sc.scanNumber()
		return err
	}
}

// ---------------------------------------------------------------------------
// Encoder — byte-identical to encoding/json for the response shapes.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json encodes it (HTML escaping on, U+2028/29 escaped, invalid
// UTF-8 to �).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\':
				dst = append(dst, '\\', '\\')
			case '"':
				dst = append(dst, '\\', '"')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json encodes a float64. Non-finite
// values (which encoding/json refuses outright) encode as 0 — the
// partitioner never produces them.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, '0')
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendStats appends core.Stats (no json tags: Go field names, every
// field present, declaration order).
func appendStats(dst []byte, st *core.Stats) []byte {
	dst = append(dst, `{"Algorithm":`...)
	dst = appendJSONString(dst, st.Algorithm)
	dst = append(dst, `,"Steps":`...)
	dst = strconv.AppendInt(dst, int64(st.Steps), 10)
	dst = append(dst, `,"Intersections":`...)
	dst = strconv.AppendInt(dst, int64(st.Intersections), 10)
	dst = append(dst, `,"FineTuneMoves":`...)
	dst = strconv.AppendInt(dst, int64(st.FineTuneMoves), 10)
	dst = append(dst, `,"UsedModified":`...)
	if st.UsedModified {
		dst = append(dst, "true"...)
	} else {
		dst = append(dst, "false"...)
	}
	return append(dst, '}')
}

// appendReply appends one partitionReply object: field order and
// omitempty semantics match the struct tags exactly.
func appendReply(dst []byte, alloc []int64, slope float64, tier string, st *core.Stats, errMsg string) []byte {
	dst = append(dst, '{')
	if len(alloc) > 0 {
		dst = append(dst, `"alloc":[`...)
		for i, x := range alloc {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, x, 10)
		}
		dst = append(dst, `],`...)
	}
	if slope != 0 {
		dst = append(dst, `"slope":`...)
		dst = appendJSONFloat(dst, slope)
		dst = append(dst, ',')
	}
	if tier != "" {
		dst = append(dst, `"tier":`...)
		dst = appendJSONString(dst, tier)
		dst = append(dst, ',')
	}
	dst = append(dst, `"stats":`...)
	dst = appendStats(dst, st)
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, errMsg)
	}
	return append(dst, '}')
}

// appendErrorBody appends the {"error": msg} document httpError sends.
func appendErrorBody(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendJSONString(dst, msg)
	return append(dst, '}', '\n')
}

// ---------------------------------------------------------------------------
// Response writing

// writeBody sends a fully encoded JSON body with the pooled header value.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(code)
	w.Write(body)
}

// writeStatic sends a pre-encoded body; retry adds the Retry-After hint
// every transient 503 carries.
func writeStatic(w http.ResponseWriter, code int, body []byte, retry bool) {
	h := w.Header()
	if retry {
		h["Retry-After"] = headerRetry1
	}
	h["Content-Type"] = headerJSON
	w.WriteHeader(code)
	w.Write(body)
}
