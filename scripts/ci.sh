#!/bin/sh
# ci.sh — the full merge gate, in one place. Runs every check ROADMAP.md
# names so "what does CI run?" has exactly one answer:
#
#   1. tier-1: go build ./... && go test ./...
#   2. go vet ./..., and gofmt -l . must print nothing
#   3. go test -race ./internal/...  (the supervisor, the supervised
#      executors, the worker pool and the experiment harness are
#      concurrent by construction)
#   4. explicit race passes that must never drop out of the run:
#      the kernel-perf pair (pool, kernels) and the robustness pair
#      (faults, measure) — the latter exercises deadline abandonment,
#      retry backoff and the drift detector under the race detector
#   5. explicit race pass for the partition-serving pair (plancache,
#      serve) — a sharded cache with singleflight and a batching engine
#      are the most lock-ordering-sensitive code in the tree
#   6. explicit race pass for the durability pair (store, rpc) — WAL
#      appends race against snapshot compaction, and the daemon's taps
#      cross the cache/store boundary on every admitted plan
#   7. kill-and-restart gate: SIGKILL the daemon mid-load, restart on the
#      same store, and require every answered plan to come back as an
#      exact, bit-identical cache hit
#   8. explicit race pass for the replication layer (replica) — the
#      follower's stream loop races against promotion, reconnect backoff
#      and the shipper's long-poll notify channel
#   9. failover gate: SIGKILL a loaded primary, promote its replica, and
#      require bit-identical warm hits under a higher epoch with zombie
#      frames fenced; plus the link-down/recover plan the pair must
#      survive without divergence
#   9a. explicit race pass for the self-healing layer (watch) — the
#      failure detector's probe loop, election rounds and retargeting
#      all race against the counters /v1/stats reads
#   9b. self-promotion gate: SIGKILL a loaded primary with two watching
#      followers and require the cluster to heal itself — exactly one
#      winner under a bumped epoch, no operator POST, bit-identical warm
#      hits on both survivors, zombie frames fenced
#   9c. handover gate: demote a live primary to its follower and require
#      zero dropped reads, exactly swapped roles, and warm hits after
#  10. explicit race pass for the model layer (speed) — fingerprints and
#      the drift detector are read concurrently by every serving path
#  11. delta-refresh gate: the per-processor refresh tests (delta WAL
#      records, validated replay, selective plan invalidation) under the
#      race detector in both the store and the plan cache
#  12. benchmark smoke: every kernel benchmark, every partition-serving
#      benchmark, the model-refresh benchmark, and the over-HTTP daemon
#      benchmark (a real listening daemon driven by a raw keep-alive
#      client) each run once
#  13. allocation regression guard: the warm partitioner hot path must
#      report exactly 0 allocs/op, the property the serving engine's
#      throughput rests on (the store's persistence taps fire off the
#      hot path, so this gate also guards the daemon's serving loop);
#      and the near-miss warm-start path must stay within its 4 allocs/op
#      budget
#  14. wire-codec allocation guard: the daemon's warm single-request
#      handler path (pooled codec + synchronous cache hit, everything
#      above net/http) must report 0 B/op and 0 allocs/op — the ISSUE 9
#      budget is <= 8 B/op and <= 1 alloc/op; the gate pins the achieved
#      zero so a regression to "just one alloc" still fails loudly
#  15. explicit race pass for the sharded serving fabric (fabric) —
#      tenant stats, token buckets and forwarding counters are hit by
#      every concurrent request path
#  16. forwarding gate: forwarded partition requests must be bit-identical
#      to owner-local answers (chunked batches and concurrent clients
#      included, and across an owner dropping its idle keep-alives), and
#      a dead or blackholed owner must degrade to local compute within
#      the forwarding timeout instead of an error
#  17. fabric benchmark smoke: the owned/forwarded/quota paths each run
#      once over real loopback HTTP
#  18. forwarding allocation guard: a forwarded request may cost at most
#      2 x the allocs/op of an owned one + 4 — the edge's and the owner's
#      net/http server passes, with the relay between them allocating
#      (next to) nothing
#
# Usage: scripts/ci.sh
set -e
cd "$(dirname "$0")/.."

echo "==> tier-1: go build ./..." >&2
go build ./...
echo "==> tier-1: go test ./..." >&2
go test ./...
echo "==> go vet ./..." >&2
go vet ./...
echo "==> gofmt -l ." >&2
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "FAIL: gofmt -l . lists unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo "==> go test -race ./internal/..." >&2
go test -race ./internal/...
echo "==> go test -race ./internal/pool/... ./internal/kernels/... (kernel-perf gate)" >&2
go test -race ./internal/pool/... ./internal/kernels/...
echo "==> go test -race ./internal/faults/... ./internal/measure/... (robustness gate)" >&2
go test -race ./internal/faults/... ./internal/measure/...
echo "==> go test -race ./internal/plancache/... ./internal/serve/... (partition-serving gate)" >&2
go test -race ./internal/plancache/... ./internal/serve/...
echo "==> go test -race ./internal/store/... ./internal/rpc/... (durability gate)" >&2
go test -race ./internal/store/... ./internal/rpc/...
echo "==> kill-and-restart gate: go test -race -run KillAndRestart ./internal/rpc/" >&2
go test -race -count=1 -run KillAndRestart ./internal/rpc/
echo "==> go test -race ./internal/replica/... (replication gate)" >&2
go test -race ./internal/replica/...
echo "==> failover gate: go test -race -run Failover ./internal/rpc/ + link-down pair" >&2
go test -race -count=1 -run Failover ./internal/rpc/
go test -race -count=1 -run 'LinkDown' ./internal/replica/
echo "==> go test -race ./internal/watch/... (self-healing gate)" >&2
go test -race ./internal/watch/...
echo "==> self-promotion gate: go test -race -run SelfPromote ./internal/rpc/" >&2
go test -race -count=1 -run SelfPromote ./internal/rpc/
echo "==> handover gate: go test -race -run Handover ./internal/rpc/" >&2
go test -race -count=1 -run Handover ./internal/rpc/
echo "==> go test -race ./internal/speed/... (model-layer gate)" >&2
go test -race ./internal/speed/...
echo "==> delta-refresh gate: go test -race -run DeltaRefresh ./internal/store/ ./internal/plancache/" >&2
go test -race -count=1 -run DeltaRefresh ./internal/store/ ./internal/plancache/
echo "==> benchmark smoke: go test -run '^$' -bench Kernel -benchtime=1x ." >&2
go test -run '^$' -bench Kernel -benchtime=1x .
echo "==> benchmark smoke: go test -run '^$' -bench PartitionThroughput -benchtime=1x ." >&2
go test -run '^$' -bench PartitionThroughput -benchtime=1x .
echo "==> benchmark smoke: go test -run '^$' -bench ModelRefresh -benchtime=5x ." >&2
go test -run '^$' -bench ModelRefresh -benchtime=5x .
echo "==> benchmark smoke: BENCHTIME=1x scripts/bench_daemon.sh /tmp/bench_daemon_smoke.json" >&2
BENCHTIME=1x scripts/bench_daemon.sh /tmp/bench_daemon_smoke.json
rm -f /tmp/bench_daemon_smoke.json
echo "==> allocs/op guard: warm path 0 allocs, near-miss path <= 4 allocs" >&2
# 100x amortizes the one-time scratch growth of iteration 1; any steady-state
# allocation pushes the reported allocs/op above the budget and fails the gate.
go test -run '^$' -bench 'PartitionThroughput/.*/(warm|nearmiss)' -benchtime=100x -benchmem . |
awk '
/^Benchmark.*\/(warm|nearmiss)/ {
	seen++
	allocs = "?"
	for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
	printf "    %s: %s allocs/op\n", $1, allocs
	budget = ($1 ~ /\/warm/) ? 0 : 4
	if (allocs == "?" || allocs + 0 > budget) { bad = 1 }
}
END {
	if (bad) { print "FAIL: partition path exceeds its allocs/op budget" > "/dev/stderr"; exit 1 }
	if (!seen) { print "FAIL: no warm/nearmiss benchmark output parsed" > "/dev/stderr"; exit 1 }
}'
echo "==> wire-codec allocs/op guard: warm handler path 0 B/op, 0 allocs/op" >&2
# 200x amortizes the pool warm-up allocations of the first iterations; the
# steady-state handler path owns every byte it touches.
go test -run '^$' -bench 'DaemonHandler/warm' -benchtime=200x -benchmem . |
awk '
/^BenchmarkDaemonHandler\/warm/ {
	seen++
	bop = allocs = "?"
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "B/op") bop = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	printf "    %s: %s B/op, %s allocs/op\n", $1, bop, allocs
	if (bop == "?" || allocs == "?" || bop + 0 > 0 || allocs + 0 > 0) { bad = 1 }
}
END {
	if (bad) { print "FAIL: warm wire handler path allocates" > "/dev/stderr"; exit 1 }
	if (!seen) { print "FAIL: no DaemonHandler/warm benchmark output parsed" > "/dev/stderr"; exit 1 }
}'
echo "==> go test -race ./internal/fabric/... (fabric gate)" >&2
go test -race ./internal/fabric/...
echo "==> forwarding gate: go test -race -run 'FabricForward|FabricOwner' ./internal/rpc/" >&2
go test -race -count=1 -run 'FabricForward|FabricOwner' ./internal/rpc/
echo "==> benchmark smoke: BENCHTIME=1x scripts/bench_fabric.sh /tmp/bench_fabric_smoke.json" >&2
BENCHTIME=1x scripts/bench_fabric.sh /tmp/bench_fabric_smoke.json
rm -f /tmp/bench_fabric_smoke.json
echo "==> forwarding allocs/op guard: forwarded <= 2 x local + 4" >&2
# 200x amortizes the relay pool's first dial and buffer growth.
go test -run '^$' -bench 'FabricForward' -benchtime=200x -benchmem . |
awk '
/^BenchmarkFabricForward\/(local|forwarded)/ {
	allocs = "?"
	for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
	printf "    %s: %s allocs/op\n", $1, allocs
	if (allocs == "?") bad = 1
	if ($1 ~ /\/local/) local = allocs; else fwd = allocs
}
END {
	if (bad || local == "" || fwd == "") { print "FAIL: no FabricForward local/forwarded allocs/op parsed" > "/dev/stderr"; exit 1 }
	if (fwd + 0 > 2 * local + 4) { printf "FAIL: forwarded %s allocs/op > 2 x local %s + 4\n", fwd, local > "/dev/stderr"; exit 1 }
}'
echo "==> all gates green" >&2
