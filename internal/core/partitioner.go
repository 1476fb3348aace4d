package core

import (
	"fmt"
	"sync"

	"heteropart/internal/speed"
)

// Partitioner is a reusable partitioning engine. It owns the scratch
// buffers (intersection abscissas, bounding-ray caches, fine-tune heap)
// that the free Basic/Modified/Combined functions would otherwise allocate
// per call, so a warm PartitionInto call on a prepared model performs no
// allocations at all. A Partitioner is not safe for concurrent use; use
// one per goroutine or the package-level pooled wrappers.
type Partitioner struct {
	st state
}

// NewPartitioner returns an empty Partitioner. Buffers are grown lazily on
// first use and reused afterwards.
func NewPartitioner() *Partitioner { return &Partitioner{} }

// PartitionInto runs the selected algorithm, writing the integer
// allocation into dst (which must have one slot per processor) and
// returning it inside the Result. The results are bit-identical to the
// free Basic/Modified/Combined functions — those are thin wrappers over a
// pooled Partitioner. Piecewise-linear functions are packed into the
// Partitioner's own table for the fast path.
func (p *Partitioner) PartitionInto(dst Allocation, algo Algorithm, n int64, fns []speed.Function, opts ...Option) (Result, error) {
	return p.run(dst, algo, n, fns, p.st.pack(fns), opts)
}

// PartitionModelInto is PartitionInto over a model handle's functions and
// the table it packed once (speed.Model.Knots), bit for bit.
func (p *Partitioner) PartitionModelInto(dst Allocation, algo Algorithm, n int64, m *speed.Model, opts ...Option) (Result, error) {
	return p.run(dst, algo, n, m.Fns(), m.Knots(), opts)
}

func (p *Partitioner) run(dst Allocation, algo Algorithm, n int64, fns []speed.Function, t *speed.Knots, opts []Option) (Result, error) {
	switch algo {
	case AlgoBasic, AlgoModified, AlgoCombined:
	default:
		return Result{}, fmt.Errorf("core: unknown algorithm %d", int(algo))
	}
	s := &p.st
	if err := s.reset(dst, n, fns, t, algo.String(), opts); err != nil {
		return Result{}, err
	}
	defer s.release()
	if res, done := s.trivial(); done {
		return res, nil
	}
	if err := s.openBounds(); err != nil {
		return Result{}, err
	}
	var err error
	switch algo {
	case AlgoBasic:
		err = s.runBasic()
	case AlgoModified:
		err = s.runModified()
	default:
		err = s.runCombined()
	}
	if err != nil {
		return Result{}, err
	}
	return s.finalize(), nil
}

// runPool recycles Partitioners behind the free-function API so repeated
// Basic/Modified/Combined calls reuse scratch buffers across goroutines.
var runPool = sync.Pool{New: func() any { return NewPartitioner() }}

// pooledPartition implements the free functions: it allocates only the
// result slice the caller keeps and borrows everything else from the pool.
func pooledPartition(algo Algorithm, n int64, fns []speed.Function, opts []Option) (Result, error) {
	dst := make(Allocation, len(fns))
	p := runPool.Get().(*Partitioner)
	res, err := p.PartitionInto(dst, algo, n, fns, opts...)
	runPool.Put(p)
	return res, err
}
