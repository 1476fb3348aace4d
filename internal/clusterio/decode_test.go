package clusterio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceLoad is Load as it was before the one-pass scanner, the
// contract decode.go keeps: one json.Decoder with DisallowUnknownFields,
// one Decode, then Validate.
func referenceLoad(r io.Reader) (*Cluster, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Cluster
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("clusterio: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// loadSeeds returns the documents of testdata/load_seeds.txt.
func loadSeeds(t testing.TB) [][]byte {
	t.Helper()
	f, err := os.Open("testdata/load_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]byte
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		doc, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("seed %q: %v", line, err)
		}
		out = append(out, []byte(doc))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// perfbenchDoc is a cluster document in the shape perfbench uploads: p
// named processors, each with about a dozen knots encoded by json.Marshal.
func perfbenchDoc(p int, seed int64) []byte {
	type point struct {
		X float64 `json:"size"`
		Y float64 `json:"speed"`
	}
	type proc struct {
		Name   string  `json:"name"`
		Points []point `json:"points"`
	}
	rng := rand.New(rand.NewSource(seed))
	var doc struct {
		Processors []proc `json:"processors"`
	}
	for j := 0; j < p; j++ {
		peak, paging := 1e7*(1+9*rng.Float64()), 1e7*(1+49*rng.Float64())
		speed := func(x float64) float64 {
			r := x / paging
			return peak * (0.02 + 0.98/(1+r*r))
		}
		var pts []point
		for x := 1e3; x < 2e9/4; x *= 8 {
			pts = append(pts, point{x, speed(x)})
		}
		pts = append(pts, point{2e9, speed(2e9)})
		doc.Processors = append(doc.Processors, proc{"p" + strconv.Itoa(j), pts})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return data
}

// sameLoad requires Load and referenceLoad, each reading from its own
// reader made by open, to return the same cluster — floats bit for bit,
// nil and empty slices alike — or the same error text.
func sameLoad(t *testing.T, name string, open func() io.Reader) {
	t.Helper()
	got, gotErr := Load(open())
	want, wantErr := referenceLoad(open())
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: Load error %v, reference %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Load %+v, reference %+v", name, got, want)
	}
	// DeepEqual holds -0 equal to 0; the encodings tell them apart.
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: Load encodes as %s, reference as %s", name, g, w)
	}
}

// FuzzLoad holds Load to the reference decoder on any bytes.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(sampleDoc))
	example, err := os.ReadFile("../../testdata/cluster.example.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add(perfbenchDoc(3, 1))
	for _, doc := range loadSeeds(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		sameLoad(t, "fuzz", func() io.Reader { return bytes.NewReader(doc) })
	})
}

// TestLoadScansUploads checks that the documents model uploads carry take
// the scanner, and that the seeds outside its shape are handed to the
// reference: a scanner that declined everything would pass FuzzLoad too.
func TestLoadScansUploads(t *testing.T) {
	for _, doc := range [][]byte{perfbenchDoc(40, 7), []byte(`{"processors":[{"name":"a","speed":1}]} trailing`)} {
		if _, ok := scanCluster(doc); !ok {
			t.Errorf("scanner declined %.80s", doc)
		}
	}
	for _, doc := range [][]byte{
		[]byte(sampleDoc),
		[]byte(`{"processors":[{"name":"a\"b","speed":1}]}`),
		[]byte(`{"processors":[{"name":"a","Speed":1}]}`),
		[]byte(`{"processors":[{"name":"a","speed":1,"speed":2}]}`),
		[]byte(`{"processors":[{"name":"a","speed":1e400}]}`),
		[]byte(`{"processors":[{"name":"a","speed":1}],"faults":[]}`),
	} {
		if _, ok := scanCluster(doc); ok {
			t.Errorf("scanner took %s", doc)
		}
	}
}

// failingReader returns data[:k] and then err. With late set, the last
// bytes and the error come in one call.
type failingReader struct {
	data []byte
	k    int
	err  error
	late bool
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.k == 0 {
		return 0, r.err
	}
	// Short reads, so the decoders see the stream in pieces.
	n := copy(p[:min(len(p), 7)], r.data[:r.k])
	r.data, r.k = r.data[n:], r.k-n
	if r.late && r.k == 0 {
		return n, r.err
	}
	return n, nil
}

// TestLoadReadErrors cuts a small document's stream with an error after
// every byte count, and requires Load to answer what the reference does.
func TestLoadReadErrors(t *testing.T) {
	doc := []byte(`{"processors":[{"name":"a","points":[{"size":1,"speed":2},{"size":3,"speed":1}]}]}  `)
	for _, cause := range []error{errors.New("read failed"), io.ErrUnexpectedEOF, io.EOF} {
		for k := 0; k <= len(doc); k++ {
			for _, late := range []bool{false, true} {
				sameLoad(t, fmt.Sprintf("%v after %d bytes (late %v)", cause, k, late), func() io.Reader {
					return &failingReader{data: doc, k: k, err: cause, late: late}
				})
			}
		}
	}
}

// TestLoadSeeds runs FuzzLoad's seed documents through Load and the
// reference decoder whole, in one-byte reads and cut short.
func TestLoadSeeds(t *testing.T) {
	docs := append(loadSeeds(t), []byte(sampleDoc), perfbenchDoc(5, 2))
	for _, doc := range docs {
		sameLoad(t, string(doc), func() io.Reader { return bytes.NewReader(doc) })
		sameLoad(t, "one byte a read: "+string(doc), func() io.Reader { return iotest.OneByteReader(bytes.NewReader(doc)) })
		half := doc[:len(doc)/2]
		sameLoad(t, "half: "+string(doc), func() io.Reader { return bytes.NewReader(half) })
	}
}
