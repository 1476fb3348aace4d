package heteropart

// Sharded-fabric benchmarks: what a client pays when the member it asked
// is not the owner of the (tenant, model, n) key. Four paths over real
// loopback HTTP with keep-alive connections:
//
//   - local: the edge member owns the key and serves from its own cache —
//     the same wire path BenchmarkDaemonThroughput/warm measures, plus the
//     ownership decision.
//   - forwarded: the edge member relays the request bytes to the owner
//     over a pooled connection and relays the response bytes back. The
//     model lives on the owner only, so the edge can neither answer nor
//     keep the plan: the gap between this and local is the price of one
//     extra network hop.
//   - repeated: a key the other member owns, asked through the edge
//     until the edge kept the owner's same-model hit and answers it from
//     its own cache — the edge hit that replaces the hop for a plan asked
//     again.
//   - quota: local serving with per-tenant admission enabled, so the
//     difference against local is the token-bucket probe alone.
//
// scripts/bench.sh fabric records all four into BENCH_fabric.json.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"heteropart/internal/fabric"
	"heteropart/internal/rpc"
)

// startFabricBenchPair boots two daemons joined into one fabric, uploads
// the model "m" to both and the model "m1" to member 1 only, and returns
// their base URLs and member 0's fabric.
func startFabricBenchPair(b *testing.B) (bases [2]string, fab *fabric.Fabric) {
	b.Helper()
	var ds [2]*rpc.Daemon
	for i := range ds {
		d, err := rpc.New(rpc.Config{Addr: "127.0.0.1:0", Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		addr, err := d.Listen()
		if err != nil {
			b.Fatal(err)
		}
		go d.Serve()
		b.Cleanup(func() { d.Shutdown(b.Context()) })
		ds[i] = d
		bases[i] = "http://" + addr.String()
	}
	for i, d := range ds {
		d.SetPeers([]string{bases[1-i]})
		if err := d.EnableFabric(bases[i]); err != nil {
			b.Fatal(err)
		}
	}
	doc := benchClusterDoc(8, 77)
	for _, up := range []string{bases[0] + "/v1/models?label=m", bases[1] + "/v1/models?label=m", bases[1] + "/v1/models?label=m1"} {
		resp, err := http.Post(up, "application/json", bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("model upload: HTTP %d", resp.StatusCode)
		}
	}
	return bases, ds[0].Fabric()
}

// benchOwnedN walks n up from 5,000,000 until fab assigns the plan family
// (model, n) to the member at base.
func benchOwnedN(fab *fabric.Fabric, model, base string) int64 {
	tenant, family := fabric.TenantSpan([]byte(model))
	n := int64(5_000_000)
	for fab.URL(fab.OwnerIndex(tenant, family, n)) != base {
		n += 1_000
	}
	return n
}

// warmFabric asks base for (model, n) until the answer is a cache hit,
// so the benchmark loop never measures a miss computation.
func warmFabric(b *testing.B, base, model string, n int64) []byte {
	b.Helper()
	body := []byte(fmt.Sprintf(`{"model":%q,"n":%d}`, model, n))
	for i := 0; i < 8; i++ {
		resp, err := http.Post(base+"/v1/partition", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("warmup: HTTP %d: %s", resp.StatusCode, data)
		}
		if bytes.Contains(data, []byte(`"tier":"hit"`)) {
			return body
		}
	}
	b.Fatalf("n=%d never became a cache hit", n)
	return nil
}

// BenchmarkFabricForward measures owned, forwarded and repeated serving
// through member 0 of a two-member fabric. req/s counts partition
// requests. Each row fails unless every ask took its path: member 0's
// ServedLocal, Forwarded or EdgeHits counter grows by b.N.
func BenchmarkFabricForward(b *testing.B) {
	bases, fab := startFabricBenchPair(b)
	addr := strings.TrimPrefix(bases[0], "http://")

	localReq := rawRequest("/v1/partition", warmFabric(b, bases[0], "m", benchOwnedN(fab, "m", bases[0])))
	remoteReq := rawRequest("/v1/partition", warmFabric(b, bases[0], "m1", benchOwnedN(fab, "m1", bases[1])))
	// Member 0 keeps the second same-model hit it relays: ask until it
	// answers from its own cache.
	nRepeat := benchOwnedN(fab, "m", bases[1])
	repeated := warmFabric(b, bases[0], "m", nRepeat)
	for i := 0; fab.EdgeHits.Load() == 0; i++ {
		if i == 8 {
			b.Fatal("member 0 never answered a plan member 1 owns from its own cache")
		}
		warmFabric(b, bases[0], "m", nRepeat)
	}
	repeatedReq := rawRequest("/v1/partition", repeated)

	run := func(name string, req []byte, path *atomic.Uint64) {
		b.Run(name, func(b *testing.B) {
			rc := dialRaw(b, addr)
			before := path.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.send(b, req, 1, "HTTP/1.1 200")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			if got := path.Load() - before; got != uint64(b.N) {
				b.Fatalf("%d of %d asks took the %s path", got, b.N, name)
			}
		})
	}
	run("local", localReq, &fab.ServedLocal)
	run("forwarded", remoteReq, &fab.Forwarded)
	run("repeated", repeatedReq, &fab.EdgeHits)
}

// BenchmarkFabricQuota measures the warm single-request path with
// per-tenant admission enabled at a rate the loop never exhausts; the
// delta against BenchmarkFabricForward/local is the token-bucket probe.
func BenchmarkFabricQuota(b *testing.B) {
	d, err := rpc.New(rpc.Config{
		Addr: "127.0.0.1:0", Dir: b.TempDir(),
		TenantQPS: 1e12, TenantBurst: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := d.Listen()
	if err != nil {
		b.Fatal(err)
	}
	go d.Serve()
	b.Cleanup(func() { d.Shutdown(b.Context()) })
	base := "http://" + addr.String()
	resp, err := http.Post(base+"/v1/models?label=m", "application/json",
		bytes.NewReader(benchClusterDoc(8, 77)))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("model upload: HTTP %d", resp.StatusCode)
	}

	req := rawRequest("/v1/partition", warmFabric(b, base, "m", 5_000_000))
	rc := dialRaw(b, strings.TrimPrefix(base, "http://"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.send(b, req, 1, "HTTP/1.1 200")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
