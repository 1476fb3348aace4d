package speed

import (
	"math"
	"sync"
)

// Model fingerprinting for the partition plan cache: a cluster model (an
// ordered list of speed functions) is reduced to a stable 64-bit FNV-1a
// hash of the exact parameters of every function. Two calls with the same
// processor order and the same function values always produce the same
// fingerprint, even when the Function objects themselves were rebuilt
// (fresh wrappers around the same knots hash identically), so a cache
// keyed by fingerprint survives callers that reconstruct their model
// slices per request.
//
// Known representations hash their defining parameters; any other Function
// falls back to hashing MaxSize plus Eval at a fixed set of log-spaced
// probe sizes, which is deterministic and distinguishes models that differ
// anywhere near the probes. The fallback is an approximation by design: a
// collision only makes the cache serve a plan computed for a function that
// agrees with the requested one at every probe, which is exactly the class
// of near-identical models a speed-function cache is meant to coalesce.

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// Type tags keep e.g. Constant(5, 10) and a 2-knot line through the same
// numbers from colliding.
const (
	tagPWL = iota + 1
	tagConstant
	tagScale
	tagScaledSpeed
	tagAnalytic
	tagStep
	tagSampled
)

// fingerprintProbes is the number of Eval samples the fallback hashes.
const fingerprintProbes = 8

// Fingerprint returns the fingerprint of an ordered cluster model. It is
// compositional: the model hash is an FNV-1a fold over the per-processor
// fingerprints, so replacing one processor's function changes exactly one
// term of the composition. This is what makes single-processor delta
// records cheap: a refresh carries one function plus the new composed
// fingerprint, and Model.WithProc re-derives it by hashing that one
// function. Fingerprint is the reference fold; a Model computes the same
// value once, when it is built.
func Fingerprint(fns []Function) uint64 {
	h := uint64(fnvOffset64)
	h = fnvU64(h, uint64(len(fns)))
	for _, f := range fns {
		h = fnvU64(h, fingerprintFn(fnvOffset64, f))
	}
	return h
}

// Model is an immutable handle on a cluster model: the ordered speed
// functions, their per-processor fingerprints and the composed
// fingerprint, computed once when the handle is built, and the partitioner's
// packed knot table, built once on first use. Every layer that keys on the
// model (the plan cache, the store and the daemon) carries the handle
// instead of rehashing the functions.
// The nil *Model is the empty model: no functions, fingerprint 0.
type Model struct {
	fns []Function
	fps []uint64
	fp  uint64

	pack  sync.Once
	knots *Knots
}

// NewModel hashes fns once and returns their handle. It keeps its own
// copy of the slice, so the caller may reuse fns afterwards.
func NewModel(fns []Function) *Model {
	m := &Model{fns: append([]Function(nil), fns...), fps: make([]uint64, len(fns))}
	for i, f := range fns {
		m.fps[i] = fingerprintFn(fnvOffset64, f)
	}
	m.fp = compose(m.fps)
	return m
}

// Fns returns the model's speed functions. The slice is shared with the
// handle and must not be modified.
func (m *Model) Fns() []Function {
	if m == nil {
		return nil
	}
	return m.fns
}

// Knots returns the model's packed knot table (40 bytes a knot), or nil
// when a function is not piecewise linear. It is built on the first call,
// so a model that computes no plan never pays for it.
func (m *Model) Knots() *Knots {
	if m == nil {
		return nil
	}
	m.pack.Do(func() {
		if t := new(Knots); t.Pack(m.fns) {
			m.knots = t
		}
	})
	return m.knots
}

// Fingerprint returns the composed fingerprint, equal to
// Fingerprint(m.Fns()).
func (m *Model) Fingerprint() uint64 {
	if m == nil {
		return 0
	}
	return m.fp
}

// WithProc returns the model with processor i's function replaced by f:
// it hashes f alone and re-folds the per-processor fingerprints, so
// NewModel(patched).Fingerprint() == m.WithProc(i, f).Fingerprint()
// without rehashing the other processors. i must index m.Fns().
func (m *Model) WithProc(i int, f Function) *Model {
	n := &Model{
		fns: append([]Function(nil), m.fns...),
		fps: append([]uint64(nil), m.fps...),
	}
	n.fns[i] = f
	n.fps[i] = fingerprintFn(fnvOffset64, f)
	n.fp = compose(n.fps)
	return n
}

// compose folds a per-processor fingerprint vector into the composed
// model fingerprint, the fold Fingerprint applies.
func compose(fps []uint64) uint64 {
	h := uint64(fnvOffset64)
	h = fnvU64(h, uint64(len(fps)))
	for _, fp := range fps {
		h = fnvU64(h, fp)
	}
	return h
}

// Diff compares two models processor by processor and returns the indices
// whose fingerprints differ. ok is false when the models have different
// lengths, in which case no index list is meaningful (every consumer must
// treat the whole model as changed).
func Diff(old, new *Model) (changed []int, ok bool) {
	if len(old.Fns()) != len(new.Fns()) {
		return nil, false
	}
	for i := range old.Fns() {
		if old.fps[i] != new.fps[i] {
			changed = append(changed, i)
		}
	}
	return changed, true
}

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func fnvF64(h uint64, v float64) uint64 {
	return fnvU64(h, math.Float64bits(v))
}

func fingerprintFn(h uint64, f Function) uint64 {
	switch g := f.(type) {
	case *PiecewiseLinear:
		h = fnvU64(h, tagPWL)
		h = fnvU64(h, uint64(len(g.ks)))
		for _, k := range g.ks {
			h = fnvF64(h, k.X)
			h = fnvF64(h, k.Y)
		}
	case Constant:
		h = fnvU64(h, tagConstant)
		h = fnvF64(h, g.speed)
		h = fnvF64(h, g.max)
	case *Scale:
		h = fnvU64(h, tagScale)
		h = fnvF64(h, g.XFactor)
		h = fingerprintFn(h, g.F)
	case *scaledFunction:
		h = fnvU64(h, tagScaledSpeed)
		h = fnvF64(h, g.factor)
		h = fingerprintFn(h, g.f)
	case *Analytic:
		h = fnvU64(h, tagAnalytic)
		h = fnvF64(h, g.Peak)
		h = fnvF64(h, g.HalfRise)
		h = fnvF64(h, g.CacheEdge)
		h = fnvF64(h, g.CacheDecay)
		h = fnvF64(h, g.PagingPoint)
		h = fnvF64(h, g.PagingWidth)
		h = fnvF64(h, g.PagingFloor)
		h = fnvF64(h, g.Max)
	case *Step:
		h = fnvU64(h, tagStep)
		h = fnvU64(h, uint64(len(g.levels)))
		for _, l := range g.levels {
			h = fnvF64(h, l.UpTo)
			h = fnvF64(h, l.Y)
		}
	default:
		h = fnvU64(h, tagSampled)
		maxX := f.MaxSize()
		h = fnvF64(h, maxX)
		if maxX > 0 && !math.IsInf(maxX, 0) {
			lo := maxX * 1e-6
			ratio := math.Pow(maxX/lo, 1/float64(fingerprintProbes-1))
			x := lo
			for i := 0; i < fingerprintProbes; i++ {
				h = fnvF64(h, f.Eval(x))
				x *= ratio
			}
		}
	}
	return h
}
