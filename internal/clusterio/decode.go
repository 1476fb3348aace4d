package clusterio

// One-pass decoding of model uploads.
//
// Contract: for every byte stream, Load returns what the reference —
// json.NewDecoder(r) with DisallowUnknownFields, one Decode into a zero
// Cluster, then Validate — returns: the same Cluster, floats bit for bit
// and nil and empty slices as encoding/json leaves them, or the same error
// text. Load reads the stream whole, and a scanner decodes the shape model
// uploads carry: {"kernel", "processors": [{"name", "points": [{"size",
// "speed"}], "speed", "max"}]}, with exact-case keys, each at most once per
// object, strings of printable ASCII without escapes, and numbers in the
// JSON grammar, parsed with strconv.ParseFloat as encoding/json parses
// them. Bytes after the top-level object are ignored, as Decoder.Decode
// ignores them, and so is a read error after them. On anything else — an
// escape or a byte outside printable ASCII in a string, a case-folded,
// repeated or unknown key, null, "levels", "spec", "qualities" or
// "faults", a number ParseFloat rejects, a syntax error — the scanner
// gives up without a partial result, and the reference decodes the bytes
// read followed by the read's end, EOF or its error: encoding/json stays
// the reference for every other shape and owns every error text.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"heteropart/internal/speed"
)

// decode decodes a cluster document read whole into data; readErr ended
// the read, nil at EOF.
func decode(data []byte, readErr error) (*Cluster, error) {
	if c, ok := scanCluster(data); ok {
		return c, nil
	}
	if readErr == nil {
		readErr = io.EOF
	}
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(data), errReader{readErr}))
	dec.DisallowUnknownFields()
	var c Cluster
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("clusterio: %w", err)
	}
	return &c, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// The keys each object of the scanner's shape may hold.
var (
	clusterKeys   = []string{"kernel", "processors"}
	processorKeys = []string{"name", "points", "speed", "max"}
	pointKeys     = []string{"size", "speed"}
)

// scanner is a cursor over a document's bytes. Every method reports false
// on input outside the scanner's shape.
type scanner struct {
	b []byte
	i int
	// pts collects one processor's points before they are copied out.
	pts []speed.Point
}

// scanCluster decodes data in one pass, or reports false.
func scanCluster(data []byte) (*Cluster, bool) {
	s := scanner{b: data}
	c := new(Cluster)
	ok := s.object(clusterKeys, func(key int) bool {
		if key == 0 {
			k, ok := s.str()
			c.Kernel = string(k)
			return ok
		}
		c.Processors = []Processor{}
		return s.list('[', ']', func() bool {
			c.Processors = append(c.Processors, Processor{})
			return s.processor(&c.Processors[len(c.Processors)-1])
		})
	})
	return c, ok
}

// processor decodes one element of "processors" into p.
func (s *scanner) processor(p *Processor) bool {
	return s.object(processorKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			var name []byte
			name, ok = s.str()
			p.Name = string(name)
		case 1:
			s.pts = s.pts[:0]
			ok = s.list('[', ']', func() bool {
				var pt speed.Point
				ok := s.object(pointKeys, func(key int) (ok bool) {
					if key == 0 {
						pt.X, ok = s.num()
					} else {
						pt.Y, ok = s.num()
					}
					return ok
				})
				s.pts = append(s.pts, pt)
				return ok
			})
			// encoding/json leaves [] as an empty, non-nil slice.
			p.Points = append(make([]speed.Point, 0, len(s.pts)), s.pts...)
		case 2:
			p.Speed, ok = s.num()
		default:
			p.Max, ok = s.num()
		}
		return ok
	})
}

// object decodes an object whose keys are among keys, each at most once;
// field decodes the value of keys[key].
func (s *scanner) object(keys []string, field func(key int) bool) bool {
	var seen uint
	return s.list('{', '}', func() bool {
		name, ok := s.str()
		key := 0
		for key < len(keys) && keys[key] != string(name) {
			key++
		}
		if !ok || key == len(keys) || seen&(1<<key) != 0 || !s.eat(':') {
			return false
		}
		seen |= 1 << key
		return field(key)
	})
}

// list decodes open, elements separated by commas, and close, as JSON
// lays out arrays and objects; elem decodes one element.
func (s *scanner) list(open, close byte, elem func() bool) bool {
	if !s.eat(open) {
		return false
	}
	if s.eat(close) {
		return true
	}
	for elem() {
		if s.eat(close) {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
	return false
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// space skips JSON's whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// str decodes a string of printable ASCII without escapes and returns its
// bytes, which alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	j := s.i
	for j < len(s.b) && ' ' <= s.b[j] && s.b[j] <= '~' && s.b[j] != '"' && s.b[j] != '\\' {
		j++
	}
	if j == len(s.b) || s.b[j] != '"' {
		return nil, false
	}
	str := s.b[s.i:j]
	s.i = j + 1
	return str, true
}

// num decodes a number in the JSON grammar, -?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?,
// as encoding/json decodes it into a float64.
func (s *scanner) num() (float64, bool) {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i == s.i || b[i-1] == '-' {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); b[i-1] < '0' || b[i-1] > '9' {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	s.i = i
	return f, err == nil
}

// digits returns the index of the first byte from i on that is not a
// decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}
