package clusterio

// One-pass decoding of model uploads.
//
// Contract: for every byte stream, Load returns what the reference —
// json.NewDecoder(r) with DisallowUnknownFields, one Decode into a zero
// Cluster, then Validate — returns: the same Cluster, floats bit for bit
// and nil and empty slices as encoding/json leaves them, or the same error
// text. Load reads the stream whole, and a jsonscan.Scanner decodes the
// shape model uploads carry: {"kernel", "processors": [{"name", "points":
// [{"size", "speed"}], "speed", "max"}]}, with exact-case keys, each at
// most once per object, strings of printable ASCII without escapes, and
// numbers in the JSON grammar, parsed with strconv.ParseFloat as
// encoding/json parses them. Bytes after the top-level object are ignored, as Decoder.Decode
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

	"heteropart/internal/jsonscan"
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

// scanCluster decodes data in one pass, or reports false.
func scanCluster(data []byte) (*Cluster, bool) {
	s := jsonscan.New(data)
	c := new(Cluster)
	// pts collects one processor's points before they are copied out.
	var pts []speed.Point
	ok := s.Object(clusterKeys, func(key int) bool {
		if key == 0 {
			k, ok := s.Str()
			c.Kernel = string(k)
			return ok
		}
		c.Processors = []Processor{}
		return s.Array(func() bool {
			c.Processors = append(c.Processors, Processor{})
			return scanProcessor(&s, &c.Processors[len(c.Processors)-1], &pts)
		})
	})
	return c, ok
}

// scanProcessor decodes one element of "processors" into p, collecting
// its points in pts.
func scanProcessor(s *jsonscan.Scanner, p *Processor, pts *[]speed.Point) bool {
	return s.Object(processorKeys, func(key int) (ok bool) {
		switch key {
		case 0:
			var name []byte
			name, ok = s.Str()
			p.Name = string(name)
		case 1:
			*pts = (*pts)[:0]
			ok = s.Array(func() bool {
				var pt speed.Point
				ok := s.Object(pointKeys, func(key int) (ok bool) {
					if key == 0 {
						pt.X, ok = s.Float()
					} else {
						pt.Y, ok = s.Float()
					}
					return ok
				})
				*pts = append(*pts, pt)
				return ok
			})
			// encoding/json leaves [] as an empty, non-nil slice.
			p.Points = append(make([]speed.Point, 0, len(*pts)), *pts...)
		case 2:
			p.Speed, ok = s.Float()
		default:
			p.Max, ok = s.Float()
		}
		return ok
	})
}
