package heteropart

// Sharded-fabric benchmarks: what a client pays when the member it asked
// is not the owner of the (tenant, model, n) key. Three paths over real
// loopback HTTP with keep-alive connections:
//
//   - local: the edge member owns the key and serves from its own cache —
//     the same wire path BenchmarkDaemonThroughput/warm measures, plus the
//     ownership decision.
//   - forwarded: the edge member relays the request bytes to the owner
//     over a pooled connection and relays the response bytes back. The
//     gap between this and local is the price of one extra network hop.
//   - quota: local serving with per-tenant admission enabled, so the
//     difference against local is the token-bucket probe alone.
//
// scripts/bench.sh fabric records all three into BENCH_fabric.json.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"heteropart/internal/fabric"
	"heteropart/internal/rpc"
)

// startFabricBenchPair boots two daemons joined into one fabric, uploads
// the model "m" to both, and returns their base URLs plus an n owned by
// each member as seen from member 0.
func startFabricBenchPair(b *testing.B) (bases [2]string, nLocal, nRemote int64) {
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
	for _, base := range bases {
		resp, err := http.Post(base+"/v1/models?label=m", "application/json", bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("model upload: HTTP %d", resp.StatusCode)
		}
	}
	// Walk n until member 0 sees both an owned key and a forwarded key.
	fab := ds[0].Fabric()
	tenant, family := fabric.TenantSpan([]byte("m"))
	for n := int64(5_000_000); nLocal == 0 || nRemote == 0; n += 1_000 {
		if fab.URL(fab.OwnerIndex(tenant, family, n)) == bases[0] {
			if nLocal == 0 {
				nLocal = n
			}
		} else if nRemote == 0 {
			nRemote = n
		}
	}
	return bases, nLocal, nRemote
}

// warmFabric asks base for (model m, n) until the answer is a cache hit,
// so the benchmark loop never measures a miss computation.
func warmFabric(b *testing.B, base string, n int64) []byte {
	b.Helper()
	body := []byte(fmt.Sprintf(`{"model":"m","n":%d}`, n))
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

// BenchmarkFabricForward measures owned-vs-forwarded serving through
// member 0 of a two-member fabric. req/s counts partition requests.
func BenchmarkFabricForward(b *testing.B) {
	bases, nLocal, nRemote := startFabricBenchPair(b)
	addr := strings.TrimPrefix(bases[0], "http://")

	localReq := rawRequest("/v1/partition", warmFabric(b, bases[0], nLocal))
	remoteReq := rawRequest("/v1/partition", warmFabric(b, bases[0], nRemote))

	run := func(name string, req []byte) {
		b.Run(name, func(b *testing.B) {
			rc := dialRaw(b, addr)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.send(b, req, 1, "HTTP/1.1 200")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
	run("local", localReq)
	run("forwarded", remoteReq)
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

	req := rawRequest("/v1/partition", warmFabric(b, base, 5_000_000))
	rc := dialRaw(b, strings.TrimPrefix(base, "http://"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.send(b, req, 1, "HTTP/1.1 200")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
