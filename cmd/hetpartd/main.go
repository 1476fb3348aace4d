// Command hetpartd is the partition-serving daemon: it keeps cluster speed
// models and served plans in a crash-safe store and answers partition
// requests over HTTP, restarting with a warm cache after any crash.
//
// Usage:
//
//	hetpartd -dir /var/lib/hetpartd [-addr 127.0.0.1:7411]
//	hetpartd -dir /var/lib/hetpartd2 -addr :7412 -replica-of http://127.0.0.1:7411
//
// Upload a model, then partition against it:
//
//	curl -X POST --data-binary @cluster.json 'localhost:7411/v1/models?label=lab'
//	curl -X POST -d '{"model":"lab","n":100000000}' localhost:7411/v1/partition
//
// A three-node self-healing cluster: one primary, two watching followers
// that gossip over -peers and elect a successor when the primary dies:
//
//	hetpartd -dir /var/lib/hp1 -addr :7411
//	hetpartd -dir /var/lib/hp2 -addr :7412 -id b -replica-of http://127.0.0.1:7411 \
//	         -watch -peers http://127.0.0.1:7413
//	hetpartd -dir /var/lib/hp3 -addr :7413 -id c -replica-of http://127.0.0.1:7411 \
//	         -watch -peers http://127.0.0.1:7412
//
// A three-node sharded serving fabric: models live in tenant namespaces
// ("acme/lab"), each (tenant, model, n) partition request has exactly one
// owner chosen by consistent hashing over the member list, and non-owners
// forward to the owner so every member answers any request:
//
//	hetpartd -dir /var/lib/hp1 -addr :7411 -fabric-self http://127.0.0.1:7411 \
//	         -peers http://127.0.0.1:7412,http://127.0.0.1:7413 -tenant-qps 500
//	hetpartd -dir /var/lib/hp2 -addr :7412 -fabric-self http://127.0.0.1:7412 \
//	         -peers http://127.0.0.1:7411,http://127.0.0.1:7413 -tenant-qps 500
//	hetpartd -dir /var/lib/hp3 -addr :7413 -fabric-self http://127.0.0.1:7413 \
//	         -peers http://127.0.0.1:7411,http://127.0.0.1:7412 -tenant-qps 500
//
// SIGTERM drains in-flight requests and folds the write-ahead log into a
// final snapshot; SIGKILL at any moment loses at most the requests that
// were never answered. See internal/rpc for the endpoints, internal/store
// for the durability design, and internal/fabric for tenancy and
// ownership (DESIGN §9, §12, §14).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"heteropart/internal/rpc"
)

// splitPeers parses the -peers list, dropping empty entries so a trailing
// comma is harmless.
func splitPeers(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7411", "listen address (use :0 for an ephemeral port)")
		dir        = flag.String("dir", "", "store directory (required; created if missing)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		cacheCap   = flag.Int("cache", 0, "plan cache capacity (0 = default)")
		compactAt  = flag.Int64("compact-at", 0, "floor of the compaction trigger: the WAL is compacted past the larger of this and the last snapshot's bytes (0 = default 4MiB)")
		walSyncEv  = flag.Int("wal-sync-every", 0, "fsync the WAL every N records, must be >= 1 (0 = default 64, 1 = every record)")
		drain      = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
		replicaOf  = flag.String("replica-of", "", "follow the primary hetpartd at this base URL (read-only until promoted)")
		reconnect  = flag.Duration("reconnect-base", 0, "base pause of the follower's jittered reconnect backoff (0 = default 100ms)")
		replicaWt  = flag.Duration("replica-wait", 0, "long-poll hold when streaming the primary's WAL (0 = default 2s)")
		id         = flag.String("id", "", "stable member identity for elections (default: the listen address)")
		peersCSV   = flag.String("peers", "", "comma-separated base URLs of the other cluster members (not the primary)")
		watchFlag  = flag.Bool("watch", false, "run the failure detector: probe the primary and self-heal when it dies")
		probeInt   = flag.Duration("probe-interval", 0, "failure-detector probe cadence (0 = default 500ms)")
		probeTo    = flag.Duration("probe-timeout", 0, "deadline for one probe (0 = probe interval)")
		suspectN   = flag.Int("suspect-after", 0, "consecutive probe misses before suspecting the primary (0 = default 3)")
		handoverTo = flag.Duration("handover-timeout", 0, "planned-demotion wait for the successor to drain (0 = default 10s)")
		fabricSelf = flag.String("fabric-self", "", "this member's base URL in the sharded serving fabric (enables ownership + forwarding over -peers)")
		fabricTo   = flag.Duration("fabric-timeout", 0, "deadline for one forwarded partition request (0 = default 2s)")
		tenantQPS  = flag.Float64("tenant-qps", 0, "per-tenant partition request rate limit (0 = unlimited)")
		tenantBst  = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst (0 = default ceil(-tenant-qps))")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "hetpartd: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	walSyncSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "wal-sync-every" {
			walSyncSet = true
		}
	})
	if walSyncSet && *walSyncEv < 1 {
		fmt.Fprintln(os.Stderr, "hetpartd: -wal-sync-every must be >= 1")
		os.Exit(2)
	}
	err := rpc.Run(rpc.Config{
		Addr:            *addr,
		Dir:             *dir,
		AddrFile:        *addrFile,
		CacheCapacity:   *cacheCap,
		CompactAt:       *compactAt,
		SyncEvery:       *walSyncEv,
		ReplicaOf:       *replicaOf,
		ReconnectBase:   *reconnect,
		ReplicaWait:     *replicaWt,
		ID:              *id,
		Peers:           splitPeers(*peersCSV),
		Watch:           *watchFlag,
		ProbeInterval:   *probeInt,
		ProbeTimeout:    *probeTo,
		SuspectAfter:    *suspectN,
		HandoverTimeout: *handoverTo,
		FabricSelf:      *fabricSelf,
		FabricTimeout:   *fabricTo,
		TenantQPS:       *tenantQPS,
		TenantBurst:     *tenantBst,
		DrainTimeout:    *drain,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetpartd:", err)
		os.Exit(1)
	}
}
