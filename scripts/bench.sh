#!/bin/sh
# bench.sh — run one benchmark suite of the root package and record it as
# JSON, so later changes have a performance trajectory to compare against.
#
# Usage:
#
#	scripts/bench.sh <suite> [output.json]
#
# Suites, each with its default -bench pattern and -benchtime and the units
# its rows keep (the output defaults to BENCH_<suite>.json):
#
#	kernels    Kernel               1x    ns/op MB/s GFLOP/s
#	partition  PartitionThroughput  100x  ns/op B/op allocs/op
#	refresh    ModelRefresh         200x  ns/op B/op allocs/op WALbytes/op %invalidated
#	daemon     Daemon               2s    ns/op req/s B/op allocs/op
#	fabric     Fabric               2s    ns/op req/s B/op allocs/op
#	store      StoreAppend          1x    ns/op p99-us p999-us compactions rewritten/appended
#
# kernels and store run without -benchmem, the others with it. partition's 100x
# lets the warm path's one-time scratch growth amortize to 0 allocs/op.
# daemon covers BenchmarkDaemonThroughput over real HTTP and
# BenchmarkDaemonHandler without the socket; fabric the owned, forwarded
# and repeated (edge-hit) rows of BenchmarkFabricForward and
# BenchmarkFabricQuota; store the
# 8,000-append run of BenchmarkStoreAppend (append latency tail, automatic
# compactions, compaction write amplification).
#
# Environment:
#
#	BENCHTIME   value for -benchtime (default: the suite's; 1x for a smoke
#	            run, e.g. 2s for stable numbers on a quiet host)
#	BENCH       -bench pattern (default: the suite's)
#
# The JSON is an array: a leading metadata object describing the host,
# then one object per benchmark, {"name": ..., "n": <iterations>, ...},
# with one key per kept unit (ns_per_op, mb_per_s, gflop_per_s, b_per_op,
# allocs_per_op, wal_bytes_per_op, pct_invalidated, req_per_s,
# append_p99_us, append_p999_us, compactions, rewritten_per_appended) and null
# where the benchmark did not report that unit.
set -e
cd "$(dirname "$0")/.."
suite="$1"
mem=-benchmem
case "$suite" in
kernels) pattern=Kernel benchtime=1x units="ns/op MB/s GFLOP/s" mem= ;;
partition) pattern=PartitionThroughput benchtime=100x units="ns/op B/op allocs/op" ;;
refresh) pattern=ModelRefresh benchtime=200x units="ns/op B/op allocs/op WALbytes/op %invalidated" ;;
daemon) pattern=Daemon benchtime=2s units="ns/op req/s B/op allocs/op" ;;
fabric) pattern=Fabric benchtime=2s units="ns/op req/s B/op allocs/op" ;;
store) pattern=StoreAppend benchtime=1x units="ns/op p99-us p999-us compactions rewritten/appended" mem= ;;
*)
	echo "usage: scripts/bench.sh kernels|partition|refresh|daemon|fabric|store [output.json]" >&2
	exit 2
	;;
esac
out="${2:-BENCH_$suite.json}"
benchtime="${BENCHTIME:-$benchtime}"
pattern="${BENCH:-$pattern}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" $mem . | tee "$tmp" >&2

awk -v benchtime="$benchtime" -v units="$units" '
BEGIN {
	nunits = split(units, unit, " ")
	key["ns/op"] = "ns_per_op"; key["MB/s"] = "mb_per_s"; key["GFLOP/s"] = "gflop_per_s"
	key["B/op"] = "b_per_op"; key["allocs/op"] = "allocs_per_op"; key["req/s"] = "req_per_s"
	key["WALbytes/op"] = "wal_bytes_per_op"; key["%invalidated"] = "pct_invalidated"
	key["p99-us"] = "append_p99_us"; key["p999-us"] = "append_p999_us"
	key["compactions"] = "compactions"; key["rewritten/appended"] = "rewritten_per_appended"
	printf "[\n"
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: */, "", $0); cpu = $0 }
/^Benchmark/ {
	split("", val)
	for (i = 3; i < NF; i++) val[$(i+1)] = $i
	row = sprintf("{\"name\": \"%s\", \"n\": %s", $1, $2)
	for (u = 1; u <= nunits; u++)
		row = row sprintf(", \"%s\": %s", key[unit[u]], (unit[u] in val) ? val[unit[u]] : "null")
	rows[nrows++] = row "}"
}
END {
	printf "  {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"benchtime\": \"%s\"}", goos, goarch, cpu, benchtime
	for (i = 0; i < nrows; i++) printf ",\n  %s", rows[i]
	printf "\n]\n"
}' "$tmp" > "$out"
echo "wrote $out" >&2
