package rpc

// The partition wire codec: a pooled request parser and response encoder
// for /v1/partition, the daemon's hot path. One wireScratch — body buffer,
// parse scratch, response buffer — is pooled per request, and the fixed
// response shapes are encoded by hand, byte-identical to encoding/json. A
// plan's reply is formatted once, by encodePlan, and kept with the plan in
// the plan cache; every answer of it copies those bytes around its tier.
//
// Parser contract: every body means what json.Decoder.Decode makes of it
// in the reference structs below, a partitionBatch when the top-level
// object's first key folds to "requests" and a partitionRequest otherwise,
// with maxSteps bounded to int32 range. A jsonscan.Scanner takes the shape
// partition asks carry, {"model", "n", "algo", "options": {"fineTune",
// "maxSteps", "elasticity", "bisection"}} or {"requests": [ask, ...]},
// with exact-case keys at most once, printable-ASCII strings without
// escapes and JSON-grammar numbers, in one pass that holds strings as
// spans of the body and allocates nothing. Every other body goes to
// encoding/json itself, which owns its result and every error text.
// wire_test.go's golden tables and FuzzWireCodec hold both halves to
// encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"heteropart/internal/core"
	"heteropart/internal/fabric"
	"heteropart/internal/jsonscan"
	"heteropart/internal/plancache"
)

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
	// headerSameModel is the owner's X-Hetpart-Same-Model confirmation.
	headerSameModel = []string{"1"}
)

// batchFlushBytes is the streaming threshold for batch responses: once
// the encode buffer passes it, the bytes so far are flushed to the client
// and the buffer reused, bounding memory at O(threshold) instead of
// O(batch). On the raw edge (edge.go) a reply shorter than this goes out
// in one write with Content-Length, and a longer one is chunked.
const batchFlushBytes = 64 << 10

// Pre-encoded bodies for the recurring fixed responses (the trailing
// newline matches json.Encoder.Encode).
var (
	bodyUsePOST     = []byte(`{"error":"use POST"}` + "\n")
	bodyBooting     = []byte(`{"error":"booting: store replaying"}` + "\n")
	bodySyncing     = []byte(`{"error":"replica syncing; retry when /readyz is 200"}` + "\n")
	bodyTooLarge    = []byte(`{"error":"bad JSON: http: request body too large"}` + "\n")
	errBodyTooLarge = errors.New("http: request body too large")
)

// wireItem is the per-request state of a batch: a validation error, a
// quota rejection, a cache hit, or a miss (its request, then the plan
// computed for it).
type wireItem struct {
	err  error
	tier plancache.Tier
	// req is a miss's request; enc is the plan's encoding, a hit's or a
	// computed miss's, read-only.
	req planRequest
	enc plancache.Encoding
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
	strBuf []byte        // strings encoding/json decoded (spans point into it)
	reqs   []wireRequest // parsed requests (len 1 for a single)
	items  []wireItem    // batch serving state
	misses []int         // indices of the batch items that missed
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

// span locates a parsed string: in the body when the scanner read it, in
// strBuf when encoding/json decoded it. Offsets stay valid across strBuf
// growth, unlike aliased slices.
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
// Its fields are partitionRequest's.
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

// partitionRequest is one partition ask as encoding/json decodes it.
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

// ---------------------------------------------------------------------------
// Body intake

// readBody fills sc.body from a request body of length bytes (or, when
// length is negative, up to EOF), enforcing maxBodyBytes without the
// http.MaxBytesReader allocation.
func (sc *wireScratch) readBody(body io.Reader, length int64) error {
	if length >= 0 {
		if length > maxBodyBytes {
			return errBodyTooLarge
		}
		if int64(cap(sc.body)) < length {
			sc.body = make([]byte, length)
		}
		sc.body = sc.body[:length]
		off := 0
		for off < len(sc.body) {
			n, err := body.Read(sc.body[off:])
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
		n, err := body.Read(sc.body[len(sc.body):cap(sc.body):cap(sc.body)])
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

// The keys of the scanned shape: a single ask's fields or a batch's
// "requests" at the top level, an ask's fields in a batch element, and the
// options object's fields.
var (
	bodyKeys   = []string{"model", "n", "algo", "options", "requests"}
	askKeys    = bodyKeys[:4]
	optionKeys = []string{"fineTune", "maxSteps", "elasticity", "bisection"}
)

// parsePartition parses the body as a single request or a batch. On return
// sc.reqs holds the parsed requests (exactly one for a single).
func (sc *wireScratch) parsePartition() (batch bool, err error) {
	sc.strBuf = sc.strBuf[:0]
	if batch, ok := sc.scan(); ok {
		return batch, nil
	}
	return sc.decode()
}

// scan parses a body in the scanned shape into sc.reqs, or reports false.
func (sc *wireScratch) scan() (batch, ok bool) {
	s := jsonscan.New(sc.body)
	sc.reqs = append(sc.reqs[:0], wireRequest{})
	keys := 0
	ok = s.Object(bodyKeys, func(key int) bool {
		if keys++; key < len(askKeys) {
			return !batch && scanAskField(&s, &sc.reqs[0], key)
		}
		if keys > 1 {
			return false // "requests" after an ask's field is a single's unknown key
		}
		batch, sc.reqs = true, sc.reqs[:0]
		return s.Array(func() bool {
			sc.reqs = append(sc.reqs, wireRequest{})
			wr := &sc.reqs[len(sc.reqs)-1]
			return s.Object(askKeys, func(key int) bool { return scanAskField(&s, wr, key) })
		})
	})
	return batch, ok
}

// scanAskField parses the value of the ask field askKeys[key] into wr.
func scanAskField(s *jsonscan.Scanner, wr *wireRequest, key int) (ok bool) {
	switch key {
	case 0:
		wr.model, ok = scanSpan(s)
	case 1:
		wr.n, ok = s.Int()
	case 2:
		wr.algo, ok = scanSpan(s)
	default:
		ok = s.Object(optionKeys, func(key int) (ok bool) {
			switch key {
			case 0:
				wr.fineTune, ok = s.Bool()
				wr.hasFineTune = true
			case 1:
				// decode reports a value outside int32 range.
				var v int64
				v, ok = s.Int()
				wr.maxSteps, ok = int(v), ok && v == int64(int32(v))
			case 2:
				wr.elasticity, ok = s.Float()
			default:
				wr.bisection, ok = scanSpan(s)
			}
			return ok
		})
	}
	return ok
}

// scanSpan parses a string and returns its span of the body.
func scanSpan(s *jsonscan.Scanner) (span, bool) {
	str, ok := s.Str()
	return span{off: s.Pos() - 1 - len(str), n: len(str)}, ok
}

// decode parses a body outside the scanned shape with encoding/json into
// the reference structs, and copies its asks into sc.reqs and their
// strings into strBuf.
func (sc *wireScratch) decode() (batch bool, err error) {
	var asks []partitionRequest
	dec := json.NewDecoder(bytes.NewReader(sc.body))
	if batch = firstKeyIsRequests(sc.body); batch {
		var pb partitionBatch
		err = dec.Decode(&pb)
		asks = pb.Requests
	} else {
		asks = make([]partitionRequest, 1)
		err = dec.Decode(&asks[0])
	}
	if err != nil {
		return batch, err
	}
	sc.reqs = sc.reqs[:0]
	for _, pr := range asks {
		wr := wireRequest{model: sc.keep(pr.Model), n: pr.N, algo: sc.keep(pr.Algo)}
		if o := pr.Options; o != nil {
			// Tighter than the platform int encoding/json fills, and
			// deliberately so: a step budget past 2^31 is garbage input,
			// not a plan anyone wants computed.
			if o.MaxSteps != int(int32(o.MaxSteps)) {
				return batch, fmt.Errorf("maxSteps %d: integer overflow", o.MaxSteps)
			}
			wr.maxSteps, wr.elasticity, wr.bisection = o.MaxSteps, o.Elasticity, sc.keep(o.Bisection)
			if o.FineTune != nil {
				wr.fineTune, wr.hasFineTune = *o.FineTune, true
			}
		}
		sc.reqs = append(sc.reqs, wr)
	}
	return batch, nil
}

// firstKeyIsRequests reports whether body's top-level object opens with a
// key that folds to "requests", the key that makes a body a batch.
func firstKeyIsRequests(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	key, err := dec.Token()
	k, _ := key.(string)
	return err == nil && strings.EqualFold(k, "requests")
}

// keep copies str into strBuf and returns its span there.
func (sc *wireScratch) keep(str string) span {
	sc.strBuf = append(sc.strBuf, str...)
	return span{off: len(sc.strBuf) - len(str), n: len(str), inBuf: true}
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
	dst = appendReplyHead(dst, alloc, slope, tier, st)
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, errMsg)
	}
	return append(dst, '}')
}

// appendReplyHead appends a partitionReply object up to its error field,
// which is last, leaving the object open.
func appendReplyHead(dst []byte, alloc []int64, slope float64, tier string, st *core.Stats) []byte {
	dst = appendPlanHead(dst, alloc, slope)
	if tier != "" {
		dst = append(dst, `"tier":`...)
		dst = appendJSONString(dst, tier)
		dst = append(dst, ',')
	}
	dst = append(dst, `"stats":`...)
	return appendStats(dst, st)
}

// appendPlanHead appends a partitionReply object up to its tier field: the
// brace, then alloc and slope, each with its comma, each omitted when
// empty.
func appendPlanHead(dst []byte, alloc []int64, slope float64) []byte {
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
	return dst
}

// encodePool holds the scratch encodePlan formats in.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// encodePlan is the plan cache's encoder: a plan's whole reply but its
// tier, cut where appendPlanReply writes the tier of each answer. It
// formats into pooled scratch and returns an exact-size copy, so a cached
// encoding carries no slack.
func encodePlan(res core.Result) plancache.Encoding {
	buf := encodePool.Get().(*[]byte)
	b := appendPlanHead((*buf)[:0], res.Alloc, res.Slope)
	cut := len(b)
	b = append(appendStats(append(b, `"stats":`...), &res.Stats), '}')
	enc := plancache.Encoding{Bytes: bytes.Clone(b), Cut: cut}
	*buf = b
	encodePool.Put(buf)
	return enc
}

// tierFields are the bytes an answer writes at its encoding's cut.
var tierFields = [...]string{
	plancache.TierMiss:   `"tier":"miss",`,
	plancache.TierHit:    `"tier":"hit",`,
	plancache.TierShared: `"tier":"shared",`,
}

// appendPlanReply appends the reply answering a plan at tier: what
// appendReply appends for it, copied from its encoding.
func appendPlanReply(dst []byte, enc plancache.Encoding, tier plancache.Tier) []byte {
	dst = append(dst, enc.Bytes[:enc.Cut]...)
	dst = append(dst, tierFields[tier]...)
	return append(dst, enc.Bytes[enc.Cut:]...)
}

// appendAskError appends the text of err, an error of wireToServe or of
// the plan it resolved, as appendJSONString encodes it. The texts that
// name a value of wr are the ones fmt built — `negative n %d`, `unknown
// model %q (upload it via /v1/models)`, `unknown algorithm %q` and
// `unknown bisection %q (want tangents or angles)` — appended without
// building a string.
func appendAskError(dst []byte, err error, sc *wireScratch, wr *wireRequest) []byte {
	switch err {
	case errNegativeN:
		dst = strconv.AppendInt(append(dst, `"negative n `...), wr.n, 10)
	case errUnknownModel:
		dst = append(appendQuoted(append(dst, `"unknown model `...), sc.spanBytes(wr.model)), " (upload it via /v1/models)"...)
	case errUnknownAlgorithm:
		dst = appendQuoted(append(dst, `"unknown algorithm `...), sc.spanBytes(wr.algo))
	case errUnknownBisection:
		dst = append(appendQuoted(append(dst, `"unknown bisection `...), sc.spanBytes(wr.bisection)), " (want tangents or angles)"...)
	default:
		return appendJSONString(dst, err.Error())
	}
	return append(dst, '"')
}

// appendQuoted appends name as fmt's %q quotes it, escaped as
// appendJSONString escapes it but without its quotes: both in one pass,
// and neither builds a string.
func appendQuoted(dst, name []byte) []byte {
	dst = append(dst, `\"`...)
	var q [16]byte
	for len(name) > 0 {
		// esc is the rune as %q writes it: printable, or an ASCII escape.
		r, w := utf8.DecodeRune(name)
		var esc []byte
		switch {
		case r == utf8.RuneError && w == 1:
			esc = append(q[:0], '\\', 'x', hexDigits[name[0]>>4], hexDigits[name[0]&0xF])
		case r == '"':
			esc = append(q[:0], '\\', '"')
		case r == '\'':
			esc = append(q[:0], '\'')
		default:
			esc = strconv.AppendQuoteRune(q[:0], r)
			esc = esc[1 : len(esc)-1]
		}
		// JSON escapes nothing else a printable rune or such an escape
		// holds.
		for _, c := range esc {
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '<', '>', '&':
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			default:
				dst = append(dst, c)
			}
		}
		name = name[w:]
	}
	return append(dst, `\"`...)
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
