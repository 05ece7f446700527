#!/usr/bin/env bash
# CI gate for the rankedenum workspace. Run from the repo root.
#
# Mirrors the tier-1 verification (`cargo build --release && cargo test -q`)
# and adds formatting, lints and bench compilation so regressions in any of
# them fail fast.

set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --workspace --release
run cargo test -q --workspace
# The server integration suite (sessions, plan cache, TCP worker pool) is
# part of the workspace tests, but run it explicitly so a hang or flake is
# attributed to the right target. RE_TRANSPORT selects the wire protocol
# every TcpClient in the suite negotiates on its first frame; run the full
# suite under both so JSON-lines and binary framing stay byte-equivalent
# end to end.
run env RE_TRANSPORT=json cargo test -q -p re_server --test server_integration
run env RE_TRANSPORT=binary cargo test -q -p re_server --test server_integration
# Reactor front-end: idle-cost (zero wakeups while parked), pipelining
# order, both protocols on both front-ends, reactor metrics; plus the
# binary-codec property/fuzz suite and the JSON/binary transport
# equivalence suite.
run cargo test -q -p re_server --test reactor_integration
run cargo test -q -p re_server --test transport_equivalence
# Smoke-scrape the Prometheus metrics surface: the exposition must parse
# (HELP/TYPE/sample lines well-formed) and the preprocessing-span and
# OPEN/FETCH latency histograms must populate after a cyclic OPEN + FETCH,
# both in-process and over TCP.
run cargo test -q -p re_server --test server_integration metrics_exposition_covers_spans_latencies_and_ttfa
# Parallel preprocessing is contractually bit-for-bit deterministic: the
# suite compares every re_workloads query against the serial engine at
# pool sizes 1, 2 and N. Run it under both env-forced thread counts so a
# scheduling-dependent merge can never slip through.
run env RE_EXEC_THREADS=1 cargo test -q -p rankedenum --test parallel_determinism
run env RE_EXEC_THREADS=4 cargo test -q -p rankedenum --test parallel_determinism
# The arena frontier kernel is contractually byte-identical to the retained
# pre-refactor engine (`ReferenceAcyclic`): differential + property suite
# over all workload queries and random instances, at both thread counts.
run env RE_EXEC_THREADS=1 cargo test -q -p rankedenum --test frontier_differential
run env RE_EXEC_THREADS=4 cargo test -q -p rankedenum --test frontier_differential
# The worst-case-optimal bag kernel is contractually byte-identical to the
# retained hash-join cascade: same canonical bag relations, same
# enumeration sequences, on the cyclic workloads and random instances.
run env RE_EXEC_THREADS=1 cargo test -q -p rankedenum --test wcoj_differential
run env RE_EXEC_THREADS=4 cargo test -q -p rankedenum --test wcoj_differential
# Prepared-part reuse is contractually byte-identical to a cold open: a
# cursor on a shared prepared part (first, later, interleaved with
# another, next to a cancelled one) equals the cold sequence with the same
# frontier accounting, for every workload shape, at both thread counts.
run env RE_EXEC_THREADS=1 cargo test -q -p rankedenum --test prepared_reuse
run env RE_EXEC_THREADS=4 cargo test -q -p rankedenum --test prepared_reuse
# The server's prepared-artifact cache end to end, on both wire
# protocols: repeated OPENs reuse the cached part with identical answers
# and parked bytes; failed prepares, armed failpoints and replaced
# databases leave nothing reusable behind.
run env RE_TRANSPORT=json cargo test -q -p re_server --test prepared_cache
run env RE_TRANSPORT=binary cargo test -q -p re_server --test prepared_cache
# Chaos suite: deterministic fault injection (RE_FAULT failpoints) against
# the live server — typed overload/deadline/cancel errors, byte-identical
# recovery after every injected fault, no leaked sessions, counters
# reconciled. Serial and pooled preprocessing exercise different unwind
# paths (caller stack vs pool tasks), so run both — and both wire
# protocols, since disconnect/fault handling runs in the reactor's
# per-connection state machines.
run env RE_EXEC_THREADS=1 RE_TRANSPORT=json cargo test -q -p re_server --test chaos
run env RE_EXEC_THREADS=4 RE_TRANSPORT=json cargo test -q -p re_server --test chaos
run env RE_EXEC_THREADS=1 RE_TRANSPORT=binary cargo test -q -p re_server --test chaos
run env RE_EXEC_THREADS=4 RE_TRANSPORT=binary cargo test -q -p re_server --test chaos
# Pin serial-vs-pooled 6-cycle bag materialisation; writes BENCH_preprocess.json.
run cargo bench -q -p re_bench --bench preprocess
# Pin the Algorithm-3 inversion fix: old vs new vs general lexi engines on
# DBLP 2-/3-hop (writes BENCH_lexi.json); pin the arena frontier kernel's
# memory and time against the retained owned-tuple engine on 2-hop/3-hop/
# 6-cycle (writes BENCH_enum.json). check_bench then fails on >25%
# regressions of the guarded ratios against the committed baselines, on
# the PR 1 inversion or the PR 4 small-k caveat returning, or on the
# frontier-memory gates (strict undercut, >=2x on 3-hop, time within
# 1.05x) breaking. The enum bench runs the new engine through the re_obs
# InstrumentedStream wrapper and stamps "instrumented":true, so the same
# ratio guards double as the instrumentation-overhead gate; check_bench
# fails if the stamp is missing.
run cargo bench -q -p re_bench --bench lexi_vs_general
run cargo bench -q -p re_bench --bench enum_frontier
# Load-gen the three server front-end modes (thread-per-conn JSON, reactor
# JSON, reactor binary) in one run: 64 paced clients on 8 workers, solo
# transport probes, coordinated-omission-corrected latencies; writes
# BENCH_server.json. check_bench gates the reactor's >=3x sessions/sec,
# its corrected p99 staying under the thread front-end's, and the binary
# protocol's solo p50 staying under JSON's, with a 25% drift guard
# against BENCH_server_baseline.json.
run cargo run -q --release -p re_bench --bin server_load
# Cached vs cold in-process OPEN of the 2-hop at scale 10 (alternating
# samples, pages cross-checked); writes BENCH_cache.json. check_bench
# gates the cached/cold OPEN p50 ratio at <= 0.1 with a 25% drift guard
# against BENCH_cache_baseline.json.
run cargo run -q --release -p re_bench --bin cache_reuse
run cargo run -q --release -p re_bench --bin check_bench
# Drive the server end to end over real sockets at smoke scale.
run env RE_SCALE=0.05 cargo run -q --release --example server_quickstart
# EXPLAIN ANALYZE over the workload suite: per-bag AGM-estimate vs actual
# rows on the cyclic queries, plus structural validation of the exported
# Chrome trace (worker-attributed bag fan-out). The example exits non-zero
# if the report or the trace fails validation.
run env RE_SCALE=0.05 cargo run -q --release --example explain_analyze
run cargo bench --workspace --no-run

echo
echo "ci.sh: all checks passed"
