package heteropart_test

import (
	"sort"
	"testing"
	"time"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
	"heteropart/internal/store"
)

// BenchmarkStoreAppend drives the store's append path the way a daemon
// serving cold Figure 21 traffic does: default store.Options, one
// 1,080-processor model, and 8,000 single-plan AppendPlanBatch calls whose
// plans hold 1,080 shares each (~8.7 KB frames), so the WAL crosses the
// 4 MiB compaction floor and the growing snapshot several times over. One
// op is the whole 8,000-append run on a fresh store. Reported: append
// latency p99 and p999 in µs, the automatic compactions per run, and the
// snapshot bytes those compactions rewrote per WAL byte appended.
// scripts/bench.sh store records the row into BENCH_store.json.
func BenchmarkStoreAppend(b *testing.B) {
	const p, appends = 1080, 8000
	fns := benchPWLCluster(b, p)
	fp := speed.Fingerprint(fns)
	plans := make([]plancache.PlanRecord, appends)
	for i := range plans {
		n := int64(1_000_000_000 + 7_919*i)
		alloc := make(core.Allocation, p)
		for j := range alloc {
			alloc[j] = n / p
		}
		alloc[0] += n % p
		plans[i] = plancache.PlanRecord{
			Model: fp, N: n, Algo: core.AlgoCombined, OptsKey: core.OptionsKey(),
			Slope: 1 / float64(n), Alloc: alloc,
			Stats: core.Stats{Algorithm: core.AlgoCombined.String(), Steps: 40, Intersections: 40 * p},
		}
	}

	lat := make([]time.Duration, 0, appends*b.N)
	var compactions uint64
	var rewritten, appended int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(store.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.PutModel("fig21", speed.NewModel(fns)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := range plans {
			t0 := time.Now()
			if err := st.AppendPlanBatch(plans[j : j+1]); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		b.StopTimer()
		// Close lets an in-flight compaction finish, so its bytes count,
		// then writes the closing snapshot, which is not automatic.
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		s := st.Stats()
		compactions += s.Compactions - 1
		rewritten += s.CompactedBytes
		appended += s.WALAppendedBytes
		b.StartTimer()
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	us := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e3 }
	b.ReportMetric(us(0.99), "p99-us")
	b.ReportMetric(us(0.999), "p999-us")
	b.ReportMetric(float64(compactions)/float64(b.N), "compactions")
	b.ReportMetric(float64(rewritten)/float64(appended), "rewritten/appended")
}
