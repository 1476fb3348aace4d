// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see the per-experiment index in DESIGN.md), plus ablation
// and micro benchmarks. Each experiment benchmark regenerates its full
// artifact per iteration; run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for recorded paper-vs-measured outcomes.
package heteropart_test

import (
	"math"
	"strconv"
	"testing"

	"heteropart/internal/apps/lu"
	"heteropart/internal/apps/mm"
	"heteropart/internal/core"
	"heteropart/internal/experiments"
	"heteropart/internal/geometry"
	"heteropart/internal/grid"
	"heteropart/internal/kernels"
	"heteropart/internal/machine"
	"heteropart/internal/matrix"
	"heteropart/internal/measure"
	"heteropart/internal/plancache"
	"heteropart/internal/pool"
	"heteropart/internal/speed"
	"heteropart/internal/store"
)

// --- Paper artifacts -----------------------------------------------------

func BenchmarkFig1SpeedCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2PerformanceBands(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ShapeInvariance(b *testing.B) {
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Table3Model(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real", func(b *testing.B) {
		cfg := measure.Config{Repeats: 1}
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Table3Real(128, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTable4ShapeInvariance(b *testing.B) {
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Table4Model(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real", func(b *testing.B) {
		cfg := measure.Config{Repeats: 1}
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Table4Real(128, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig21PartitionerCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig21([]int{270, 540, 810, 1080},
			[]int64{250_000_000, 1_000_000_000, 2_000_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig22aMMSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig22a([]int{15000, 19000, 23000, 27000, 31000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig22bLUSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig22b([]int{16000, 24000, 32000}, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationAlgorithms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAlgorithms(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAngleVsTangent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAngleVsTangent(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFineTuning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFineTuning(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBuilderBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBuilderBudget(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCommunication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCommunication(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStepModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStepModel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHeterogeneity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHeterogeneity(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation2DPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation2DPartitioning(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridPartition2D(b *testing.B) {
	fns, err := experiments.FlopRates(machine.Table2(), machine.MatrixMult)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.Partition2D(6000, 6000, fns, grid.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core micro benchmarks -----------------------------------------------

func benchCluster(b *testing.B, p int) []speed.Function {
	b.Helper()
	fns, err := experiments.SyntheticCluster(p, machine.MatrixMult)
	if err != nil {
		b.Fatal(err)
	}
	return fns
}

func BenchmarkPartitionBasic(b *testing.B) {
	for _, p := range []int{12, 128, 1024} {
		fns := benchCluster(b, p)
		b.Run(benchName("p", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Basic(1_000_000_000, fns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionModified(b *testing.B) {
	for _, p := range []int{12, 128, 1024} {
		fns := benchCluster(b, p)
		b.Run(benchName("p", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Modified(1_000_000_000, fns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionCombined(b *testing.B) {
	for _, p := range []int{12, 128, 1024} {
		fns := benchCluster(b, p)
		b.Run(benchName("p", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Combined(1_000_000_000, fns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSingleNumber(b *testing.B) {
	speeds := make([]float64, 1024)
	for i := range speeds {
		speeds[i] = float64(1 + i%97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SingleNumber(1_000_000_000, speeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedBuilder(b *testing.B) {
	m, _ := machine.ByName(machine.Table2(), "X5")
	truth, err := m.FlopRate(machine.MatrixMult)
	if err != nil {
		b.Fatal(err)
	}
	oracle := func(x float64) (float64, error) { return truth.Eval(x), nil }
	// The builder is invariant across iterations; constructing it inside the
	// loop would charge its (tiny) setup to every Build measurement.
	builder := speed.Builder{LogDomain: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := builder.Build(oracle, 1e4, truth.Max); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPWLIntersect(b *testing.B) {
	m, _ := machine.ByName(machine.Table2(), "X5")
	truth, err := m.FlopRate(machine.MatrixMult)
	if err != nil {
		b.Fatal(err)
	}
	oracle := func(x float64) (float64, error) { return truth.Eval(x), nil }
	builder := speed.Builder{LogDomain: true}
	fn, _, err := builder.Build(oracle, 1e4, truth.Max)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn.IntersectRay(1e-3 / float64(1+i%1000))
	}
}

// benchPWLCluster samples the synthetic analytic cluster into piecewise
// linear functions, the representation the serving hot path is built
// around (precomputed ratio tables, binary-search IntersectRay).
func benchPWLCluster(b *testing.B, p int) []speed.Function {
	b.Helper()
	fns := benchCluster(b, p)
	out := make([]speed.Function, p)
	for i, f := range fns {
		pts := make([]speed.Point, 0, 16)
		for x := 1e3; x < f.MaxSize(); x *= 4 {
			pts = append(pts, speed.Point{X: x, Y: f.Eval(x)})
		}
		pts = append(pts, speed.Point{X: f.MaxSize(), Y: f.Eval(f.MaxSize())})
		out[i] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))
	}
	return out
}

// perfbenchModel draws p piecewise-linear functions in the shape of
// perfbench's cold-mix models: peak 1e7–1e8 elements/s, paging point
// 1e7–5e8 elements, 2 % of peak left deep in paging, knots eightfold
// apart from 1e3, and a last knot at 2e9.
func perfbenchModel(p int, seed uint32) *speed.Model {
	s := seed
	unit := func() float64 {
		s = s*1664525 + 1013904223
		return float64(s>>8) / (1 << 24)
	}
	fns := make([]speed.Function, p)
	for i := range fns {
		peak := 1e7 * (1 + 9*unit())
		paging := 1e7 * (1 + 49*unit())
		var pts []speed.Point
		for x := 1e3; x < 5e8; x *= 8 {
			r := x / paging
			pts = append(pts, speed.Point{X: x, Y: peak * (0.02 + 0.98/(1+r*r))})
		}
		r := 2e9 / paging
		fns[i] = speed.MustPiecewiseLinear(append(pts, speed.Point{X: 2e9, Y: peak * (0.02 + 0.98/(1+r*r))}))
	}
	return speed.NewModel(fns)
}

// BenchmarkPartitionThroughput measures one partition request through each
// serving tier: a cold free-function call (allocates its result and runs the
// paper's tangent bisection), a warm reusable Partitioner running the plan
// cache's regula-falsi search (the zero-allocation hot path — allocs/op
// must print 0), a plan-cache exact hit, and a cache miss at a size the
// cache has not seen (nearmiss). The cached and nearmiss rows build the
// model handle once, outside the timed loop, as a model upload does; their
// requests never hash the model. p = 1080 is the largest model of
// Figure 21 and of perfbench's cold mix. Each of those rows runs one
// model, whose knot table stays in cache; p=mix/nearmiss misses on eight
// perfbench-shaped models in turn (two per processor count of perfbench's
// cold mix, 5,400 processors in all) at fresh sizes in [2.5e8, 2e9), so
// each plan's first rays read a table the others evicted.
// scripts/bench.sh partition records these rows into BENCH_partition.json,
// and scripts/ci.sh fails the build if the warm path ever allocates again
// or a cached hit costs more than a tenth of a warm partition.
func BenchmarkPartitionThroughput(b *testing.B) {
	const n = 1_000_000_000
	for _, p := range []int{12, 64, 256, 1080} {
		fns := benchPWLCluster(b, p)
		m := speed.NewModel(fns)
		b.Run(benchName("p", p), func(b *testing.B) {
			b.Run("cold", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.Combined(n, fns); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("warm", func(b *testing.B) {
				pr := core.NewPartitioner()
				dst := make(core.Allocation, p)
				served := core.WithBisection(geometry.BisectRegulaFalsi)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pr.PartitionInto(dst, core.AlgoCombined, n, fns, served); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("cached", func(b *testing.B) {
				c := plancache.New(0)
				if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("nearmiss", func(b *testing.B) {
				c := plancache.New(0)
				// Warm the cache's partitioner pool.
				if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Every size is new to the cache, so each iteration is a
					// genuine miss.
					if _, err := c.Get(core.AlgoCombined, n+int64(i)+1, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
	var models []*speed.Model
	for _, p := range []int{270, 540, 810, 1080} {
		models = append(models, perfbenchModel(p, uint32(p)), perfbenchModel(p, uint32(p)+1))
	}
	b.Run("p=mix/nearmiss", func(b *testing.B) {
		c := plancache.New(0)
		// Warm the cache's partitioner pool and pack every model's table.
		for _, m := range models {
			if _, err := c.Get(core.AlgoCombined, n, m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// perfbench cold's sizes: a stride coprime to the span makes
			// every size new.
			size := 250_000_000 + int64(i)*1_000_003%1_750_000_000
			if _, err := c.Get(core.AlgoCombined, size, models[i%len(models)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// refreshBenchModels builds the drift pair for BenchmarkModelRefresh: a
// piecewise linear cluster and a twin in which processor 0's two tail
// knots slowed down — allocations below the tail provably cannot move, so
// a delta refresh keeps their plans. The returned sizes put most plans in
// the surviving region and the rest near capacity, where processor 0 is
// pushed into the drifted knots.
func refreshBenchModels(b *testing.B, p int) (fnsA, fnsB []speed.Function, sizes []int64) {
	b.Helper()
	fnsA = benchPWLCluster(b, p)
	pts := append([]speed.Point(nil), fnsA[0].(*speed.PiecewiseLinear).Points()...)
	pts[len(pts)-1].Y *= 0.5
	pts[len(pts)-2].Y *= 0.7
	fnsB = append([]speed.Function(nil), fnsA...)
	fnsB[0] = speed.MustPiecewiseLinear(speed.EnforceShape(pts))

	var capacity float64
	for _, f := range fnsA {
		capacity += f.MaxSize()
	}
	lo, hi := 1e5, capacity/256
	for i := 0; i < 36; i++ {
		sizes = append(sizes, int64(lo*math.Pow(hi/lo, float64(i)/35)))
	}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, int64(capacity*(0.75+0.2*float64(i)/11)))
	}
	return fnsA, fnsB, sizes
}

// BenchmarkModelRefresh compares the two ways a drifted processor reaches a
// serving daemon: a full model re-upload (full model + invalidation WAL
// records, every cached plan dropped) against the per-processor delta path
// (one O(one processor) delta record; plans whose allocation provably
// cannot change survive the refresh). The full step builds the uploaded
// model's handle inside the timed step, because a re-upload pays for
// hashing the whole model; the delta step hashes only the replaced
// function. Reported per op: ns, WAL bytes appended, and the percentage of
// cached plans invalidated. scripts/bench.sh refresh records the rows into
// BENCH_refresh.json.
func BenchmarkModelRefresh(b *testing.B) {
	for _, p := range []int{12, 64, 256} {
		fnsA, fnsB, sizes := refreshBenchModels(b, p)
		mA := speed.NewModel(fnsA)
		b.Run(benchName("p", p), func(b *testing.B) {
			// Probe the drift scenario once, untimed: the delta path's whole
			// point is selectivity, so the benchmark refuses to measure a
			// degenerate split (everything kept, or everything dropped).
			probe := plancache.New(0)
			for _, n := range sizes {
				if _, err := probe.Get(core.AlgoCombined, n, mA); err != nil {
					b.Fatal(err)
				}
			}
			kept, dropped := probe.Refresh(mA, speed.NewModel(fnsB))
			if kept < len(sizes)/2 || dropped == 0 {
				b.Fatalf("drift scenario off target: kept=%d dropped=%d of %d plans", kept, dropped, len(sizes))
			}

			newStore := func(b *testing.B) *store.Store {
				st, err := store.Open(store.Options{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { st.Close() })
				if _, err := st.PutModel("bench", mA); err != nil {
					b.Fatal(err)
				}
				return st
			}
			newCache := func(b *testing.B) *plancache.Cache {
				c := plancache.New(0)
				for _, n := range sizes {
					if _, err := c.Get(core.AlgoCombined, n, mA); err != nil {
						b.Fatal(err)
					}
				}
				return c
			}

			b.Run("delta", func(b *testing.B) {
				st, c := newStore(b), newCache(b)
				step := func(i int) {
					next := fnsB
					if i%2 == 1 {
						next = fnsA
					}
					old, refreshed, err := st.RefreshProcessor("bench", 0, next[0])
					if err != nil {
						b.Fatal(err)
					}
					c.Refresh(old, refreshed)
				}
				// One untimed toggle pair measures WAL bytes per refresh while
				// the log is far from its compaction threshold; the timed loop
				// then runs with compaction live (its periodic cost is part of
				// the serving price) where the WAL counter saw-tooths.
				w0 := st.Stats().WALBytes
				step(0)
				step(1)
				walPerOp := float64(st.Stats().WALBytes-w0) / 2
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(i)
				}
				b.ReportMetric(walPerOp, "WALbytes/op")
				b.ReportMetric(100*float64(dropped)/float64(len(sizes)), "%invalidated")
			})
			b.Run("full", func(b *testing.B) {
				st, c := newStore(b), newCache(b)
				step := func(i int) {
					next := fnsB
					if i%2 == 1 {
						next = fnsA
					}
					old, err := st.PutModel("bench", speed.NewModel(next))
					if err != nil {
						b.Fatal(err)
					}
					c.InvalidateFingerprint(old.Fingerprint())
				}
				w0 := st.Stats().WALBytes
				step(0)
				step(1)
				walPerOp := float64(st.Stats().WALBytes-w0) / 2
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(i)
				}
				b.ReportMetric(walPerOp, "WALbytes/op")
				b.ReportMetric(100, "%invalidated")
			})
		})
	}
}

// --- Application and kernel benchmarks -----------------------------------

func BenchmarkMMPartitionTable2(b *testing.B) {
	fns, err := experiments.FlopRates(machine.Table2(), machine.MatrixMult)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mm.PartitionFPM(25000, fns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUVariableGroupBlock(b *testing.B) {
	fns, err := experiments.FlopRates(machine.Table2(), machine.LUFact)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lu.VariableGroupBlock(16000, 64, fns); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSizes are the matrix sizes of the serial-vs-parallel kernel
// comparison recorded in EXPERIMENTS.md; scripts/bench.sh kernels runs the
// Kernel benchmarks and emits the BENCH_kernels.json baseline.
var benchSizes = []int{128, 512, 1024}

// benchWorkerCounts: 0 means the full GOMAXPROCS pool.
var benchWorkerCounts = []int{1, 2, 4, 0}

func workersName(w int) string {
	if w == 0 {
		return "workers=all"
	}
	return "workers=" + strconv.Itoa(w)
}

func BenchmarkKernelMatMulNaive(b *testing.B) {
	benchMatMul(b, func(c, x, y *matrix.Dense) error { return kernels.MatMulNaive(c, x, y) })
}

func BenchmarkKernelMatMulBlocked(b *testing.B) {
	benchMatMul(b, func(c, x, y *matrix.Dense) error { return kernels.MatMulBlocked(c, x, y, 64) })
}

func BenchmarkKernelMatMulParallel(b *testing.B) {
	for _, w := range benchWorkerCounts {
		pl := pool.Sized(w)
		b.Run(workersName(w), func(b *testing.B) {
			benchMatMul(b, func(c, x, y *matrix.Dense) error {
				return kernels.MatMulParallel(pl, c, x, y, 64)
			})
		})
	}
}

func BenchmarkKernelMatMulABT(b *testing.B) {
	benchMatMul(b, func(c, x, y *matrix.Dense) error { return kernels.MatMulABT(c, x, y) })
}

func BenchmarkKernelMatMulABTParallel(b *testing.B) {
	for _, w := range benchWorkerCounts {
		pl := pool.Sized(w)
		b.Run(workersName(w), func(b *testing.B) {
			benchMatMul(b, func(c, x, y *matrix.Dense) error {
				return kernels.MatMulABTParallel(pl, c, x, y)
			})
		})
	}
}

func benchMatMul(b *testing.B, mul func(c, x, y *matrix.Dense) error) {
	b.Helper()
	for _, n := range benchSizes {
		b.Run(benchName("n", n), func(b *testing.B) {
			x := matrix.MustNew(n, n)
			y := matrix.MustNew(n, n)
			c := matrix.MustNew(n, n)
			x.FillRandom(1)
			y.FillRandom(2)
			b.SetBytes(int64(3 * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mul(c, x, y); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kernels.FlopsMatMul(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkKernelLU(b *testing.B) {
	benchLU(b, func(work *matrix.Dense) error {
		_, err := kernels.LUFactorize(work)
		return err
	})
}

func BenchmarkKernelLUParallel(b *testing.B) {
	for _, w := range benchWorkerCounts {
		pl := pool.Sized(w)
		b.Run(workersName(w), func(b *testing.B) {
			benchLU(b, func(work *matrix.Dense) error {
				_, err := kernels.LUFactorizeParallel(pl, work)
				return err
			})
		})
	}
}

func benchLU(b *testing.B, factor func(work *matrix.Dense) error) {
	b.Helper()
	for _, n := range benchSizes {
		b.Run(benchName("n", n), func(b *testing.B) {
			base := matrix.MustNew(n, n)
			base.FillRandom(3)
			for i := 0; i < n; i++ {
				base.Set(i, i, base.At(i, i)+float64(n))
			}
			work := matrix.MustGetDense(n, n)
			defer matrix.PutDense(work)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := work.CopyFrom(base); err != nil {
					b.Fatal(err)
				}
				if err := factor(work); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kernels.FlopsLU(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}

func BenchmarkPartitionExact(b *testing.B) {
	for _, p := range []int{12, 128} {
		fns := benchCluster(b, p)
		b.Run(benchName("p", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Exact(1_000_000_000, fns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationGroupBlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGroupBlock(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOverlap(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFaultRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFaultRecovery(); err != nil {
			b.Fatal(err)
		}
	}
}
