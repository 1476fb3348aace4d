package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// Binary codec shared by snapshots and the WAL. Every record travels in a
// CRC-checked frame:
//
//	frame   := u32 payloadLen | u32 crc32c(payload) | payload
//	payload := recType u8 | body
//
// All integers are little-endian; floats are IEEE-754 bit patterns, so a
// round trip is exact and a restored model reproduces its
// speed.Fingerprint bit for bit. Record bodies (the WAL record grammar,
// DESIGN §9):
//
//	model      := fp u64 | label str | nFns u32 | fn…
//	plan       := model u64 | n i64 | algo u8 | optsKey u64 | slope f64 |
//	              steps u32 | isect u32 | moves u32 | usedModified u8 |
//	              nAlloc u32 | share i64…
//	hint       := model u64 | n i64 | slope f64    (read and skipped, never written)
//	invalidate := model u64
//	snapEnd    := models u32 | plans u32 | hints u32
//	meta       := epoch u64 | gen u64
//	delta      := oldFP u64 | newFP u64 | proc u32 | fn
//	str        := len u16 | bytes
//
// Speed functions are type-tagged like the records:
//
//	pwl      := 1 | nPts u32 | (x f64, y f64)…
//	constant := 2 | speed f64 | max f64
//	step     := 3 | nLevels u32 | (upTo f64, y f64)…
//	analytic := 4 | peak, halfRise, cacheEdge, cacheDecay,
//	                pagingPoint, pagingWidth, pagingFloor, max (f64 each)
//	scale    := 5 | xFactor f64 | fn
const (
	recModel      = 1
	recPlan       = 2
	recHint       = 3
	recInvalidate = 4
	recSnapEnd    = 5
	recMeta       = 6
	// recModelDelta refreshes one processor of an existing model in
	// place: O(one speed function) on the wire where recModel is
	// O(cluster). The new composed fingerprint travels with the record and
	// is re-derived on replay — a delta that does not reproduce it is
	// quarantined, never applied.
	recModelDelta = 7
)

const (
	fnPWL      = 1
	fnConstant = 2
	fnStep     = 3
	fnAnalytic = 4
	fnScale    = 5
)

// maxFrame bounds a frame payload; anything larger is treated as
// corruption rather than an allocation request.
const maxFrame = 16 << 20

// castagnoli is the CRC-32C table used for every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec errors.
var (
	// ErrCorruptFrame reports a frame whose checksum or length is wrong.
	ErrCorruptFrame = errors.New("store: corrupt frame")
	// errTornFrame reports bytes that end inside a frame.
	errTornFrame = errors.New("store: torn frame")
	// ErrUnsupportedModel reports a speed function with no binary encoding.
	ErrUnsupportedModel = errors.New("store: unsupported speed function type")
)

// encoder appends framed records to a byte buffer, each written in place:
// open reserves the frame header and writes the record type, the body is
// appended behind it, and close back-fills the payload's length and
// checksum. No payload is built on its own and copied into a frame, so a
// buffer presized for its frames (a group commit's, a snapshot's) is
// filled without a single further allocation.
type encoder struct{ buf []byte }

// open starts a frame for a record of type rec and returns its offset.
func (e *encoder) open(rec uint8) int {
	at := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0, rec)
	return at
}

// close back-fills the header of the frame opened at offset at. Appenders
// write a whole frame (or a group commit's concatenated frames) in one
// write call, so a crashed process leaves at most one partial frame at the
// tail.
func (e *encoder) close(at int) {
	payload := e.buf[at+8:]
	binary.LittleEndian.PutUint32(e.buf[at:at+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[at+4:at+8], crc32.Checksum(payload, castagnoli))
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// decoder consumes primitive values from a byte buffer; the first failure
// latches err and every later read returns zero values.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorruptFrame
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := int(d.u16())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *decoder) done() bool { return d.err == nil && d.off == len(d.buf) }

// splitFrames is the one frame reader, shared by snapshot replay, WAL
// replay and stream ingestion. It returns the payloads of the whole,
// CRC-clean frames at the head of b and the bytes they span. err is nil
// when b ends on a frame boundary; errTornFrame when b ends inside a frame
// (a crash mid-append, or a chunk cut mid-send: more bytes may complete
// it); ErrCorruptFrame when a frame has an impossible length or a wrong
// checksum (no further bytes can repair it).
func splitFrames(b []byte) (payloads [][]byte, n int, err error) {
	for n < len(b) {
		if len(b)-n < 8 {
			return payloads, n, errTornFrame
		}
		size := binary.LittleEndian.Uint32(b[n : n+4])
		if size == 0 || size > maxFrame {
			return payloads, n, ErrCorruptFrame
		}
		if len(b)-n-8 < int(size) {
			return payloads, n, errTornFrame
		}
		payload := b[n+8 : n+8+int(size)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[n+4:n+8]) {
			return payloads, n, ErrCorruptFrame
		}
		payloads = append(payloads, payload)
		n += 8 + int(size)
	}
	return payloads, n, nil
}

// encodeFunction appends one speed function.
func encodeFunction(e *encoder, f speed.Function) error {
	switch g := f.(type) {
	case *speed.PiecewiseLinear:
		pts := g.Points()
		e.u8(fnPWL)
		e.u32(uint32(len(pts)))
		for _, p := range pts {
			e.f64(p.X)
			e.f64(p.Y)
		}
	case speed.Constant:
		e.u8(fnConstant)
		e.f64(g.Speed())
		e.f64(g.MaxSize())
	case *speed.Step:
		levels := g.Levels()
		e.u8(fnStep)
		e.u32(uint32(len(levels)))
		for _, l := range levels {
			e.f64(l.UpTo)
			e.f64(l.Y)
		}
	case *speed.Analytic:
		e.u8(fnAnalytic)
		e.f64(g.Peak)
		e.f64(g.HalfRise)
		e.f64(g.CacheEdge)
		e.f64(g.CacheDecay)
		e.f64(g.PagingPoint)
		e.f64(g.PagingWidth)
		e.f64(g.PagingFloor)
		e.f64(g.Max)
	case *speed.Scale:
		e.u8(fnScale)
		e.f64(g.XFactor)
		return encodeFunction(e, g.F)
	default:
		return fmt.Errorf("%w: %T", ErrUnsupportedModel, f)
	}
	return nil
}

// decodeFunction reads one speed function, re-validating it through the
// same constructors the live system uses.
func decodeFunction(d *decoder) (speed.Function, error) {
	switch tag := d.u8(); tag {
	case fnPWL:
		n := int(d.u32())
		if n < 0 || n > maxFrame/16 {
			d.fail()
			return nil, ErrCorruptFrame
		}
		pts := make([]speed.Point, n)
		for i := range pts {
			pts[i].X = d.f64()
			pts[i].Y = d.f64()
		}
		if d.err != nil {
			return nil, d.err
		}
		return speed.NewPiecewiseLinear(pts)
	case fnConstant:
		s, maxSize := d.f64(), d.f64()
		if d.err != nil {
			return nil, d.err
		}
		return speed.NewConstant(s, maxSize)
	case fnStep:
		n := int(d.u32())
		if n < 0 || n > maxFrame/16 {
			d.fail()
			return nil, ErrCorruptFrame
		}
		levels := make([]speed.Level, n)
		for i := range levels {
			levels[i].UpTo = d.f64()
			levels[i].Y = d.f64()
		}
		if d.err != nil {
			return nil, d.err
		}
		return speed.NewStep(levels)
	case fnAnalytic:
		a := &speed.Analytic{
			Peak: d.f64(), HalfRise: d.f64(),
			CacheEdge: d.f64(), CacheDecay: d.f64(),
			PagingPoint: d.f64(), PagingWidth: d.f64(), PagingFloor: d.f64(),
			Max: d.f64(),
		}
		if d.err != nil {
			return nil, d.err
		}
		if err := a.Validate(); err != nil {
			return nil, err
		}
		return a, nil
	case fnScale:
		x := d.f64()
		inner, err := decodeFunction(d)
		if err != nil {
			return nil, err
		}
		return speed.NewScale(inner, x)
	default:
		d.fail()
		return nil, fmt.Errorf("%w: function tag %d", ErrCorruptFrame, tag)
	}
}

// model appends a framed model record. On error nothing is appended.
func (e *encoder) model(fp uint64, label string, fns []speed.Function) error {
	at := e.open(recModel)
	e.u64(fp)
	e.str(label)
	e.u32(uint32(len(fns)))
	for _, f := range fns {
		if err := encodeFunction(e, f); err != nil {
			e.buf = e.buf[:at]
			return err
		}
	}
	e.close(at)
	return nil
}

// decodeModel parses a model record body (after the type byte).
func decodeModel(d *decoder) (fp uint64, label string, fns []speed.Function, err error) {
	fp = d.u64()
	label = d.str()
	n := int(d.u32())
	if n < 0 || n > 1<<20 {
		d.fail()
		return 0, "", nil, ErrCorruptFrame
	}
	fns = make([]speed.Function, n)
	for i := range fns {
		fns[i], err = decodeFunction(d)
		if err != nil {
			return 0, "", nil, err
		}
	}
	if d.err != nil {
		return 0, "", nil, d.err
	}
	return fp, label, fns, nil
}

// planFrameSize is the size of r's framed plan record: the header, 51
// bytes of fixed fields and 8 bytes per share.
func planFrameSize(r *plancache.PlanRecord) int { return 8 + 51 + 8*len(r.Alloc) }

// plan appends a framed plan record of planFrameSize(r) bytes.
func (e *encoder) plan(r *plancache.PlanRecord) {
	e.buf = slices.Grow(e.buf, planFrameSize(r))
	at := e.open(recPlan)
	e.u64(r.Model)
	e.i64(r.N)
	e.u8(uint8(r.Algo))
	e.u64(r.OptsKey)
	e.f64(r.Slope)
	e.u32(uint32(r.Stats.Steps))
	e.u32(uint32(r.Stats.Intersections))
	e.u32(uint32(r.Stats.FineTuneMoves))
	if r.Stats.UsedModified {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u32(uint32(len(r.Alloc)))
	shares := e.buf[len(e.buf) : len(e.buf)+8*len(r.Alloc)]
	for i, x := range r.Alloc {
		binary.LittleEndian.PutUint64(shares[8*i:], uint64(x))
	}
	e.buf = e.buf[:len(e.buf)+len(shares)]
	e.close(at)
}

// decodePlan parses a plan record body. Stats.Algorithm is reconstructed
// from the algorithm tag — the partitioner sets it the same way.
func decodePlan(d *decoder) (plancache.PlanRecord, error) {
	var r plancache.PlanRecord
	r.Model = d.u64()
	r.N = d.i64()
	r.Algo = core.Algorithm(d.u8())
	r.OptsKey = d.u64()
	r.Slope = d.f64()
	r.Stats.Steps = int(d.u32())
	r.Stats.Intersections = int(d.u32())
	r.Stats.FineTuneMoves = int(d.u32())
	r.Stats.UsedModified = d.u8() != 0
	n := int(d.u32())
	if n < 0 || n > maxFrame/8 {
		d.fail()
		return r, ErrCorruptFrame
	}
	r.Alloc = make(core.Allocation, n)
	for i := range r.Alloc {
		r.Alloc[i] = d.i64()
	}
	if d.err != nil {
		return r, d.err
	}
	r.Stats.Algorithm = r.Algo.String()
	return r, nil
}

// skipHint reads a hint record body and reports whether it is well formed.
func skipHint(d *decoder) bool {
	d.u64()
	d.i64()
	d.f64()
	return d.done()
}

// invalidate appends a framed invalidation record.
func (e *encoder) invalidate(model uint64) {
	at := e.open(recInvalidate)
	e.u64(model)
	e.close(at)
}

func decodeInvalidate(d *decoder) (uint64, error) {
	model := d.u64()
	return model, d.err
}

// delta appends a framed one-processor model refresh record: the composed
// fingerprint of the model being patched, the composed fingerprint the
// patched model must hash to, the processor index and its new function.
// On error nothing is appended.
func (e *encoder) delta(oldFP, newFP uint64, proc int, fn speed.Function) error {
	at := e.open(recModelDelta)
	e.u64(oldFP)
	e.u64(newFP)
	e.u32(uint32(proc))
	if err := encodeFunction(e, fn); err != nil {
		e.buf = e.buf[:at]
		return err
	}
	e.close(at)
	return nil
}

// decodeDelta parses a delta record body (after the type byte).
func decodeDelta(d *decoder) (oldFP, newFP uint64, proc int, fn speed.Function, err error) {
	oldFP = d.u64()
	newFP = d.u64()
	proc = int(d.u32())
	fn, err = decodeFunction(d)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if d.err != nil {
		return 0, 0, 0, nil, d.err
	}
	return oldFP, newFP, proc, fn, nil
}

// meta appends a framed replication meta record: the fencing epoch and
// the compaction generation. It is the first frame of every snapshot and
// is appended to the WAL whenever the epoch is bumped (promotion).
func (e *encoder) meta(epoch, gen uint64) {
	at := e.open(recMeta)
	e.u64(epoch)
	e.u64(gen)
	e.close(at)
}

func decodeMeta(d *decoder) (epoch, gen uint64, err error) {
	epoch, gen = d.u64(), d.u64()
	return epoch, gen, d.err
}

// snapEnd appends the framed snapshot terminator carrying the record
// counts; the third, hint records, is 0 in every snapshot written now.
func (e *encoder) snapEnd(models, plans int) {
	at := e.open(recSnapEnd)
	e.u32(uint32(models))
	e.u32(uint32(plans))
	e.u32(0)
	e.close(at)
}

// decodeSnapEnd returns the terminator's counts: models, plans, and the
// hint records replay skips.
func decodeSnapEnd(d *decoder) (models, plans, hints int, err error) {
	models, plans, hints = int(d.u32()), int(d.u32()), int(d.u32())
	return models, plans, hints, d.err
}
