#!/bin/sh
# ci.sh — the full merge gate, in one place. Runs every check ROADMAP.md
# names so "what does CI run?" has exactly one answer:
#
#   1. tier-1: go build ./... && go test ./...
#   2. go vet ./..., and gofmt -l . must print nothing
#   3. go test -race ./internal/... — one race pass over every internal
#      package, the concurrent-by-construction ones included: the worker
#      pool and kernels, the fault supervisor and measurement pipeline,
#      the sharded plan cache and its singleflight, the store's WAL against
#      compaction, the daemon's taps and batch misses, the replication
#      stream, the failure detector, the model layer and the fabric's
#      counters
#   4. kill-and-restart gate: SIGKILL the daemon mid-load, restart on the
#      same store, and require every answered plan to come back as an
#      exact, bit-identical cache hit
#   5. failover gate: SIGKILL a loaded primary, promote its replica, and
#      require bit-identical warm hits under a higher epoch with zombie
#      frames fenced; plus the link-down/recover plan the pair must
#      survive without divergence
#   6. self-promotion gate: SIGKILL a loaded primary with two watching
#      followers and require the cluster to heal itself — exactly one
#      winner under a bumped epoch, no operator POST, bit-identical warm
#      hits on both survivors, zombie frames fenced
#   7. handover gate: demote a live primary to its follower and require
#      zero dropped reads, exactly swapped roles, and warm hits after
#   8. delta-refresh gate: the per-processor refresh tests (delta WAL
#      records, validated replay, selective plan invalidation) under the
#      race detector in the store, the plan cache and the daemon, where
#      uploads race refreshes of one label and no model the store dropped
#      may still serve a plan
#   9. compaction gate: the store's compaction tests under the race
#      detector — a crash injected after every step of the off-lock
#      compaction must reopen to exactly the acknowledged records, appends
#      racing background compactions must all survive Close → Open, and a
#      pinned or sealed store's compaction must abandon its image
#  10. admission-window gate: the plan cache's admission-window tests, its
#      result-ownership race test and the daemon's duplicate-batch test at
#      -race -count=10 — a second ask is served the first miss's plan as a
#      hit and admitted exactly once, invalidation, refresh, Replace and
#      read-only mode keep the window honest, one-shot sizes never evict a
#      resident plan, no caller's mutation of its answer reaches a request
#      that joined the same computation, and a batch naming one fresh plan
#      three times computes it once and answers every copy with its bytes
#  11. plan-purity gate: the plan-purity fuzz corpus at -race -count=3 — a
#      plan the cache computes is the same bytes whatever the cache served
#      before, and its allocation is tangent bisection's (the sequential
#      rule-allocation test runs in tier-1 and the race pass)
#  12. benchmark smoke: every kernel benchmark, the model-refresh
#      benchmark, the over-HTTP daemon benchmark (a real listening daemon
#      driven by a raw keep-alive client) and the store append benchmark
#      each run once
#  13. allocation regression guard, one 100x run of every partition-
#      serving row: the warm partitioner hot path must report exactly 0
#      allocs/op, the property the plan cache's miss path rests on (the
#      store's persistence taps fire off the hot path, so this gate also
#      guards the daemon's serving loop); a cold free-function call at
#      most 1, its returned allocation, so packing the functions into the
#      partitioner's knot table never allocates per call; the near-miss
#      path (a cache miss at a new size) and the cached hit must stay
#      within their 4 allocs/op budget, the cold-cache near-miss row
#      (p=mix: eight perfbench-shaped models in turn) included and
#      required; and at p=1080 a cached hit must cost at most a tenth of a
#      warm partition, which holds only while a hit never rehashes the
#      model
#  14. wire-codec allocation guard: the daemon's warm single-request
#      handler path (pooled codec + synchronous cache hit, everything
#      above net/http), its warm 16-plan batch, a resident plan on a
#      1080-processor model (its reply copied from the plan's cached
#      encoding) and its 400s for an unknown model and an unknown
#      algorithm must report 0 B/op and 0 allocs/op
#      — the gate's first budget was <= 8 B/op and <= 1 alloc/op; it pins
#      the achieved zero so a regression to "just one alloc" still fails
#      loudly (at -cpu 1, which keeps the runtime's background allocations
#      out)
#  15. over-HTTP allocation guard: the warm single request, the warm
#      16-plan batch and the unknown-model 400 over a real loopback
#      connection, through the raw partition edge, must report
#      0 allocs/op — the benchmark's client allocates nothing, so any
#      allocation is the daemon's
#  16. forwarding gate: forwarded partition requests must be bit-identical
#      to owner-local answers (chunked batches and concurrent clients
#      included, and across an owner dropping its idle keep-alives), a
#      dead or blackholed owner must degrade to local compute within the
#      forwarding timeout instead of an error, an edge hit must answer
#      the owner's exact bytes without a WAL record, and an edge whose
#      model differs from the owner's must keep nothing
#  17. raw-edge gate: the raw HTTP/1.1 partition edge at -race -count=3 —
#      the same byte streams answer the same statuses, headers, bodies
#      and connection fates as a plain net/http server (pipelined, split
#      and handed-over streams included), the head fuzzer's seeds hold,
#      a shutdown drains requests in flight and leaves no goroutine, and
#      a stalled head is closed at the header timeout
#  18. fabric benchmark smoke: the owned/forwarded/repeated/quota paths
#      each run once over real loopback HTTP
#  19. forwarding allocation guard: a forwarded request may cost at most
#      2 x the allocs/op of an owned one + 4 — the relay's pooled hop
#      between the two members' raw edges allocates (next to) nothing —
#      and a repeated one, answered from the edge's own cache, no more
#      than an owned one
#  20. model-ingest guard: in one run, clusterio.Load's one-pass decode
#      of perfbench's eight cold upload documents must take at most half
#      the ns/op of the encoding/json decoder it replaced (the fastest of
#      three runs of each)
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
echo "==> kill-and-restart gate: go test -race -run KillAndRestart ./internal/rpc/" >&2
go test -race -count=1 -run KillAndRestart ./internal/rpc/
echo "==> failover gate: go test -race -run Failover ./internal/rpc/ + link-down pair" >&2
go test -race -count=1 -run Failover ./internal/rpc/
go test -race -count=1 -run 'LinkDown' ./internal/replica/
echo "==> self-promotion gate: go test -race -run SelfPromote ./internal/rpc/" >&2
go test -race -count=1 -run SelfPromote ./internal/rpc/
echo "==> handover gate: go test -race -run Handover ./internal/rpc/" >&2
go test -race -count=1 -run Handover ./internal/rpc/
echo "==> delta-refresh gate: go test -race -run DeltaRefresh ./internal/store/ ./internal/plancache/ ./internal/rpc/" >&2
go test -race -count=1 -run DeltaRefresh ./internal/store/ ./internal/plancache/ ./internal/rpc/
echo "==> compaction gate: go test -race -run Compaction ./internal/store/" >&2
go test -race -count=1 -run Compaction ./internal/store/
echo "==> admission-window gate: go test -race -count=10 -run 'Window|Doorkeeper|SharedAnswers' ./internal/plancache/ ./internal/rpc/" >&2
go test -race -count=10 -run 'Window|Doorkeeper|SharedAnswers' ./internal/plancache/ ./internal/rpc/
echo "==> plan-purity gate: go test -race -count=3 -run PlanPurity ./internal/plancache/" >&2
go test -race -count=3 -run PlanPurity ./internal/plancache/
echo "==> benchmark smoke: go test -run '^$' -bench Kernel -benchtime=1x ." >&2
go test -run '^$' -bench Kernel -benchtime=1x .
echo "==> benchmark smoke: go test -run '^$' -bench ModelRefresh -benchtime=5x ." >&2
go test -run '^$' -bench ModelRefresh -benchtime=5x .
echo "==> benchmark smoke: BENCHTIME=1x scripts/bench.sh daemon /tmp/bench_daemon_smoke.json" >&2
BENCHTIME=1x scripts/bench.sh daemon /tmp/bench_daemon_smoke.json
rm -f /tmp/bench_daemon_smoke.json
echo "==> benchmark smoke: BENCHTIME=1x scripts/bench.sh store /tmp/bench_store_smoke.json" >&2
BENCHTIME=1x scripts/bench.sh store /tmp/bench_store_smoke.json
rm -f /tmp/bench_store_smoke.json
echo "==> allocs/op guard: every PartitionThroughput row; warm path 0 allocs, cold <= 1, near-miss (p=mix included) and cached <= 4 allocs; p=1080 cached <= 0.1 x warm ns/op" >&2
# 100x amortizes the one-time scratch growth of iteration 1; any steady-state
# allocation pushes the reported allocs/op above the budget and fails the gate.
go test -run '^$' -bench 'PartitionThroughput' -benchtime=100x -benchmem . |
awk '
/^(--- FAIL|FAIL)/ { failed = 1 }
/^Benchmark.*\/(cold|warm|nearmiss|cached)/ {
	if ($1 ~ /\/cold/) cold++; else seen++
	allocs = ns = "?"
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "allocs/op") allocs = $i
		if ($(i+1) == "ns/op") ns = $i
	}
	printf "    %s: %s ns/op, %s allocs/op\n", $1, ns, allocs
	budget = ($1 ~ /\/warm/) ? 0 : ($1 ~ /\/cold/) ? 1 : 4
	if (allocs == "?" || allocs + 0 > budget) { bad = 1 }
	if ($1 ~ /p=1080\/warm/) warm = ns
	if ($1 ~ /p=1080\/cached/) cached = ns
	if ($1 ~ /p=mix\/nearmiss/) mix = 1
}
END {
	if (failed) { print "FAIL: a PartitionThroughput benchmark failed" > "/dev/stderr"; exit 1 }
	if (bad) { print "FAIL: partition path exceeds its allocs/op budget" > "/dev/stderr"; exit 1 }
	if (!seen || !cold) { print "FAIL: no cold/warm/nearmiss/cached benchmark output parsed" > "/dev/stderr"; exit 1 }
	if (!mix) { print "FAIL: no p=mix/nearmiss benchmark output parsed" > "/dev/stderr"; exit 1 }
	if (warm == "" || cached == "" || warm == "?" || cached == "?") { print "FAIL: no p=1080 warm/cached ns/op parsed" > "/dev/stderr"; exit 1 }
	if (cached + 0 > 0.1 * warm) { printf "FAIL: p=1080 cached %s ns/op > 0.1 x warm %s ns/op\n", cached, warm > "/dev/stderr"; exit 1 }
}'
echo "==> wire-codec allocs/op guard: warm, batch16, hit1080, unknown-model and unknown-algorithm handler paths 0 B/op, 0 allocs/op" >&2
# 200x amortizes the pool warm-up allocations of the first iterations; the
# steady-state handler path owns every byte it touches. -cpu 1 keeps the
# runtime's background allocations out of the count: at GOMAXPROCS=2 they
# read as 1-6 B/op over 200 iterations, on a path that allocates nothing.
go test -run '^$' -bench 'DaemonHandler/(warm|batch16|hit1080|error|badalgo)$' -benchtime=200x -benchmem -cpu 1 . |
awk '
/^BenchmarkDaemonHandler\/(warm|batch16|hit1080|error|badalgo)[-[:space:]]/ {
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
	if (bad) { print "FAIL: warm, batch16, hit1080, unknown-model or unknown-algorithm wire handler path allocates" > "/dev/stderr"; exit 1 }
	if (seen != 5) { print "FAIL: no DaemonHandler warm/batch16/hit1080/error/badalgo benchmark output parsed" > "/dev/stderr"; exit 1 }
}'
echo "==> over-HTTP allocs/op guard: DaemonThroughput warm, batch16 and errors 0 allocs/op" >&2
# 20000x amortizes the first iterations' pool and buffer growth.
go test -run '^$' -bench 'DaemonThroughput/(warm|batch16|errors)$' -benchtime=20000x -benchmem . |
awk '
/^BenchmarkDaemonThroughput\/(warm|batch16|errors)[-[:space:]]/ {
	seen++
	allocs = "?"
	for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
	printf "    %s: %s allocs/op\n", $1, allocs
	if (allocs == "?" || allocs + 0 > 0) { bad = 1 }
}
END {
	if (bad) { print "FAIL: the daemon allocates on the warm over-HTTP path" > "/dev/stderr"; exit 1 }
	if (seen != 3) { print "FAIL: no DaemonThroughput warm/batch16/errors allocs/op parsed" > "/dev/stderr"; exit 1 }
}'
echo "==> forwarding gate: go test -race -run 'FabricForward|FabricOwner|FabricEdgeHit|FabricDivergedCatalog' ./internal/rpc/" >&2
go test -race -count=1 -run 'FabricForward|FabricOwner|FabricEdgeHit|FabricDivergedCatalog' ./internal/rpc/
echo "==> raw-edge gate: go test -race -count=3 -run RawEdge ./internal/rpc/" >&2
go test -race -count=3 -run RawEdge ./internal/rpc/
echo "==> benchmark smoke: BENCHTIME=1x scripts/bench.sh fabric /tmp/bench_fabric_smoke.json" >&2
BENCHTIME=1x scripts/bench.sh fabric /tmp/bench_fabric_smoke.json
rm -f /tmp/bench_fabric_smoke.json
echo "==> forwarding allocs/op guard: forwarded <= 2 x local + 4, repeated <= local" >&2
# 200x amortizes the relay pool's first dial and buffer growth.
go test -run '^$' -bench 'FabricForward' -benchtime=200x -benchmem . |
awk '
/^BenchmarkFabricForward\/(local|forwarded|repeated)/ {
	allocs = "?"
	for (i = 3; i < NF; i++) if ($(i+1) == "allocs/op") allocs = $i
	printf "    %s: %s allocs/op\n", $1, allocs
	if (allocs == "?") bad = 1
	if ($1 ~ /\/local/) local = allocs; else if ($1 ~ /\/forwarded/) fwd = allocs; else rep = allocs
}
END {
	if (bad || local == "" || fwd == "" || rep == "") { print "FAIL: no FabricForward local/forwarded/repeated allocs/op parsed" > "/dev/stderr"; exit 1 }
	if (fwd + 0 > 2 * local + 4) { printf "FAIL: forwarded %s allocs/op > 2 x local %s + 4\n", fwd, local > "/dev/stderr"; exit 1 }
	if (rep + 0 > local + 0) { printf "FAIL: repeated %s allocs/op > local %s\n", rep, local > "/dev/stderr"; exit 1 }
}'
echo "==> model-ingest guard: DaemonModelUpload decode <= 0.5 x encodingjson ns/op" >&2
# 20x: each op decodes all eight documents (2.0 MB). Each row runs three
# times and keeps its fastest, so a burst of noise from the rest of the
# host moves one run, not the gate.
go test -run '^$' -bench 'DaemonModelUpload/(decode|encodingjson)$' -benchtime=20x -count=3 . |
awk '
/^BenchmarkDaemonModelUpload\/(decode|encodingjson)[-[:space:]]/ {
	ns = "?"
	for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") ns = $i
	printf "    %s: %s ns/op\n", $1, ns
	if (ns == "?") bad = 1
	else if ($1 ~ /\/decode/) { if (dec == "" || ns + 0 < dec + 0) dec = ns }
	else if (ref == "" || ns + 0 < ref + 0) ref = ns
}
END {
	if (bad || dec == "" || ref == "") { print "FAIL: no DaemonModelUpload decode/encodingjson ns/op parsed" > "/dev/stderr"; exit 1 }
	if (dec + 0 > 0.5 * ref) { printf "FAIL: decode %s ns/op > 0.5 x encodingjson %s ns/op\n", dec, ref > "/dev/stderr"; exit 1 }
}'
echo "==> all gates green" >&2
