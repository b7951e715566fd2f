#!/bin/sh
# Tier-1 gate: dune-file formatting, full build (library + CLI +
# examples + bench), the complete test suite, a bench smoke run
# (the streaming event-bus check, which has a built-in failure
# condition), short perfbench runs of the engine workloads (golden
# engine results, no failed operation), a fleet sweep smoke
# (parallel run against a cold cache, then the same sweep warm — the
# second run must be served entirely from cache and print identical
# tables), and a service
# smoke (real daemon on a Unix socket: serve, call — sequential and
# pipelined — counters move, `sim` and `call sim` agree on a
# non-default policy, SIGTERM drains to exit 0) plus a
# bench-serve load-generator smoke.
# `make check` runs the same build + tests.
set -eu
cd "$(dirname "$0")/.."
dune build @fmt
dune build @all
dune runtest
dune exec bench/main.exe -- --smoke

# Benchmark smoke: short runs of the two engine workloads. Each checks
# every engine result against its recorded Metrics.t fingerprint
# (perfbench/golden), so the last line must report correct and no
# failed operation.
for workload in engine-matrix fused-stream; do
  last=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 2 --trace 0 | tail -n 1)
  printf '%s\n' "$last" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || {
    echo "check: FAIL — perfbench $workload: $last" >&2
    exit 1
  }
done

# Codec-throughput smoke: the bench smoke must have written a
# comp-MBps and dec-MBps entry for every registry codec, so a codec
# silently dropping out of the measured set fails here.
for codec in null rle huffman lzss lzw mtf-rle \
  bdi-16 bdi-32 bdi-64 cpack-16 cpack-32 cpack-64; do
  for dir in comp dec; do
    grep -q "\"codec/$codec/$dir-MBps\"" BENCH.json || {
      echo "check: FAIL — BENCH.json is missing codec/$codec/$dir-MBps" >&2
      exit 1
    }
  done
done

# Energy-accounting smoke: the bench smoke must have priced the probe
# run under every device profile, so a profile silently dropping out
# of the cost vocabulary fails here.
for profile in paper-2005 cortex-m-flash sram-heavy; do
  grep -q "\"energy/$profile/" BENCH.json || {
    echo "check: FAIL — BENCH.json is missing energy/$profile/* keys" >&2
    exit 1
  }
done

# Trace-codec smoke: the bench smoke must have measured the binary
# trace format's encode/decode throughput, so the format silently
# dropping out of the measured set fails here.
for key in trace/encode-MBps trace/decode-MBps trace/lzss-encode-MBps \
  trace/lzss-decode-MBps streaming-100M/events-per-s; do
  grep -q "\"$key\"" BENCH.json || {
    echo "check: FAIL — BENCH.json is missing $key" >&2
    exit 1
  }
done

# Corpus smoke: the bench smoke must have measured the generator's
# batch throughput.
grep -q '"corpus/gen-programs-per-s"' BENCH.json || {
  echo "check: FAIL — BENCH.json is missing corpus/gen-programs-per-s" >&2
  exit 1
}

# Service-load smoke: the bench smoke must have measured the event
# loop under pipelined concurrent load, so the serve path silently
# dropping out of the measured set fails here.
for key in service/req-per-s service/p50-ms service/p99-ms; do
  grep -q "\"$key\"" BENCH.json || {
    echo "check: FAIL — BENCH.json is missing $key" >&2
    exit 1
  }
done

# bench-serve smoke: the standalone load generator must run clean
# (exit 0 means zero protocol errors) and report a throughput figure.
dune exec bin/ccomp.exe -- bench-serve --smoke | grep -q 'req/s' || {
  echo "check: FAIL — bench-serve --smoke reported no throughput" >&2
  exit 1
}

# Generator determinism: the same gen: spec must print the same
# canonical form and identical image/trace digests across two separate
# processes (the cache-key contract), and a non-canonical spelling
# must canonicalize.
gen_dir=$(mktemp -d)
ccomp=_build/default/bin/ccomp.exe
"$ccomp" gen 'gen:fanout=3,seed=9,blocks=bim:4-40' > "$gen_dir/a.out"
"$ccomp" gen 'gen:seed=9,fanout=3,blocks=bim:4-40' > "$gen_dir/b.out"
if ! cmp -s "$gen_dir/a.out" "$gen_dir/b.out"; then
  echo "check: FAIL — ccomp gen is not deterministic across processes" >&2
  diff "$gen_dir/a.out" "$gen_dir/b.out" >&2 || true
  exit 1
fi
grep -q 'spec: gen:seed=9,depth=2,fanout=3,blocks=bim:4-40,calls=1,skew=0.9,cold=8,rounds=8' \
  "$gen_dir/a.out" || {
  echo "check: FAIL — ccomp gen did not canonicalize the spec" >&2
  cat "$gen_dir/a.out" >&2
  exit 1
}
rm -rf "$gen_dir"

# E20 smoke: a small generated corpus through the fleet cache, cold
# then warm — the warm run must be served entirely from cache.
e20_dir=$(mktemp -d)
e20="env CCOMP_E20_COUNT=8 $ccomp experiments E20 --jobs 2 --cache-dir $e20_dir/cache"
$e20 > "$e20_dir/cold.out"
$e20 > "$e20_dir/warm.out"
grep -q 'corpus-robustness' "$e20_dir/cold.out" || {
  echo "check: FAIL — E20 did not render" >&2
  cat "$e20_dir/cold.out" >&2
  exit 1
}
grep '^fleet:' "$e20_dir/warm.out" | grep -q 'engine_runs=0' || {
  echo "check: FAIL — warm E20 re-ran the engine" >&2
  grep '^fleet:' "$e20_dir/warm.out" >&2 || true
  exit 1
}
rm -rf "$e20_dir"

# Binary-trace smoke: generate a text trace, convert it to binary and
# back; both hops must load to byte-identical id streams, and `trace
# info` must parse the binary header.
trace_dir=$(mktemp -d)
ccomp=_build/default/bin/ccomp.exe
"$ccomp" trace gen dijkstra --out "$trace_dir/t.txt" > /dev/null
"$ccomp" trace convert "$trace_dir/t.txt" "$trace_dir/t.bin" --lzss > /dev/null
"$ccomp" trace convert "$trace_dir/t.bin" "$trace_dir/t2.txt" --to text \
  > /dev/null
if ! cmp -s "$trace_dir/t.txt" "$trace_dir/t2.txt"; then
  echo "check: FAIL — trace text->binary->text round trip is not identical" >&2
  exit 1
fi
ids=$(($(wc -l < "$trace_dir/t.txt") - 1))
"$ccomp" trace info "$trace_dir/t.bin" | grep -q "ids: *$ids\$" || {
  echo "check: FAIL — trace info did not report $ids ids" >&2
  exit 1
}
rm -rf "$trace_dir"

# Pareto smoke: the energy/cycles sweep (E18, ~2s) must run and
# report at least one workload whose energy-optimal k differs from
# its cycles-optimal k — the reason the energy dimension exists.
pareto_out=$(dune exec bin/ccomp.exe -- experiments E18 --jobs 2)
echo "$pareto_out" | grep -q 'yes' || {
  echo "check: FAIL — E18 reports no energy/cycles divergence" >&2
  echo "$pareto_out" >&2
  exit 1
}

# Line-granularity smoke: E19 (the compressed-I-cache scenario) must
# render its line-vs-block comparison for every suite workload, and a
# second run must be byte-identical (deterministic tables).
e19_a=$(dune exec bin/ccomp.exe -- experiments E19 --jobs 2)
e19_b=$(dune exec bin/ccomp.exe -- experiments E19 --jobs 2)
if [ "$e19_a" != "$e19_b" ]; then
  echo "check: FAIL — E19 is not deterministic across runs" >&2
  exit 1
fi
suite=$("$ccomp" workloads | wc -l)
block_rows=$(printf '%s\n' "$e19_a" | grep -c ' block ' || true)
if [ "$block_rows" -ne "$suite" ]; then
  echo "check: FAIL — E19 has $block_rows block-granularity rows for $suite workloads" >&2
  exit 1
fi

cache_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir"' EXIT
sweep="dune exec bin/ccomp.exe -- sweep fir crc32 --ks 2,8 --jobs 2 --cache-dir $cache_dir"
$sweep > "$cache_dir/cold.out"
$sweep > "$cache_dir/warm.out"
grep '^fleet:' "$cache_dir/warm.out" | grep -q 'engine_runs=0' || {
  echo "check: FAIL — warm sweep re-ran the engine" >&2
  grep '^fleet:' "$cache_dir/warm.out" >&2
  exit 1
}
grep -v '^fleet:' "$cache_dir/cold.out" > "$cache_dir/cold.tbl"
grep -v '^fleet:' "$cache_dir/warm.out" > "$cache_dir/warm.tbl"
if ! diff "$cache_dir/cold.tbl" "$cache_dir/warm.tbl" > /dev/null; then
  echo "check: FAIL — warm sweep tables differ from cold run" >&2
  exit 1
fi

# Service smoke: a real daemon end to end over a Unix socket.
ccomp=_build/default/bin/ccomp.exe
sock="$cache_dir/serve.sock"
"$ccomp" serve --socket "$sock" --jobs 2 --cache-dir "$cache_dir/serve-cache" \
  > "$cache_dir/serve.out" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "check: FAIL — serve never bound its socket" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
"$ccomp" call --socket "$sock" health > "$cache_dir/health.out"
grep -q '"status": "ok"' "$cache_dir/health.out" || {
  echo "check: FAIL — health did not answer ok" >&2
  exit 1
}
"$ccomp" call --socket "$sock" sim fir -k 4 > "$cache_dir/sim.out"
grep -q '"total_cycles"' "$cache_dir/sim.out" || {
  echo "check: FAIL — sim returned no metrics" >&2
  exit 1
}
"$ccomp" call --socket "$sock" stats > "$cache_dir/stats.out"
grep -q '"count": 1' "$cache_dir/stats.out" || {
  echo "check: FAIL — stats counters did not move" >&2
  exit 1
}
# malformed input answers a structured error and exit 1, not a crash
if "$ccomp" call --socket "$sock" --raw 'not json' > /dev/null 2>&1; then
  echo "check: FAIL — malformed request did not error" >&2
  exit 1
fi
# the connection-killing request above must not have killed the daemon
"$ccomp" call --socket "$sock" health > /dev/null
# pipelined calls: 8 healths on one connection, all ok (exit 0), all
# eight replies printed
pipe_lines=$("$ccomp" call --socket "$sock" --compact \
  --repeat 8 --pipeline 8 health | wc -l)
if [ "$pipe_lines" -ne 8 ]; then
  echo "check: FAIL — call --repeat 8 printed $pipe_lines replies" >&2
  exit 1
fi
# prune the cache the daemon just populated
"$ccomp" cache --dir "$cache_dir/serve-cache" --stats \
  | grep -q '1 entry' || {
  echo "check: FAIL — serve did not populate its cache" >&2
  exit 1
}
"$ccomp" cache --dir "$cache_dir/serve-cache" --prune-to 0 \
  | grep -q ': 0 entries, 0 bytes' || {
  echo "check: FAIL — cache --prune-to 0 left entries behind" >&2
  exit 1
}
# CLI and wire options both derive from the Fleet.Job knob list: one
# non-default policy must cost the same through `sim` and `call sim`.
policy="-k 2 --strategy pre-single --retention loop-aware --budget 256 \
  --codec bdi-32 --line-size 32"
# shellcheck disable=SC2086
cli_cycles=$("$ccomp" sim matmul $policy \
  | sed -n 's/^cycles: \([0-9]*\) .*/\1/p')
# shellcheck disable=SC2086
wire_cycles=$("$ccomp" call --socket "$sock" sim matmul $policy \
  | sed -n 's/.*"total_cycles": \([0-9]*\),.*/\1/p')
if [ -z "$cli_cycles" ] || [ "$cli_cycles" != "$wire_cycles" ]; then
  echo "check: FAIL — sim printed ${cli_cycles:-no} cycles, call sim ${wire_cycles:-no}" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# the multitask engine has no line-granular path: --tasks with
# --line-size is an error (exit 1), not a silently ignored flag
tasks_rc=0
"$ccomp" sim --tasks fir,crc32 -k 4 --line-size 32 > /dev/null 2>&1 \
  || tasks_rc=$?
if [ "$tasks_rc" -ne 1 ]; then
  echo "check: FAIL — sim --tasks --line-size exited $tasks_rc, not 1" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# SIGTERM: drain and exit 0 within the grace window
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ]; then
  echo "check: FAIL — serve exited $serve_rc after SIGTERM" >&2
  cat "$cache_dir/serve.out" >&2
  exit 1
fi
grep -q 'drained' "$cache_dir/serve.out" || {
  echo "check: FAIL — serve did not report a drain" >&2
  exit 1
}

echo "check: OK"
