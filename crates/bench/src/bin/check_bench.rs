//! CI perf guard over `BENCH_lexi.json` and `BENCH_enum.json`.
//!
//! Compares the freshly written bench outputs against the committed
//! baselines (`BENCH_lexi_baseline.json`, `BENCH_enum_baseline.json`) and
//! fails on regressions. Absolute milliseconds vary with the machine —
//! this container pins the process to a single core — so every guard
//! compares machine-invariant **ratios** of engines run on the same data
//! in the same process. Checks:
//!
//! 1. **Ordering** — the index-backed lexi engine must not be slower than
//!    the general algorithm on DBLP2hop at k = 1000 (the PR 1 inversion
//!    must stay closed; a 10% measurement-noise allowance applies).
//! 2. **Lexi ratio regression** — per query, the fresh `new/general`
//!    ratio may exceed the baseline ratio by at most 25%.
//! 3. **Small-k crossover** — lazy index builds must keep the lexi engine
//!    no slower than its pre-index ancestor at k = 10 (the PR 4 caveat
//!    must stay closed; 15% noise allowance).
//! 4. **Frontier memory** — per query at k = 1000, the arena kernel must
//!    strictly undercut the owned-tuple engine's frontier bytes, by ≥2×
//!    on DBLP3hop, with time-to-1000 within 1.05× of the old engine; and
//!    the fresh `new/old` time and bytes ratios may exceed the committed
//!    baseline ratios by at most 25%.
//! 5. **Cyclic preprocessing cliff** — `BENCH_preprocess.json`'s 6-cycle
//!    time-to-first-answer under the new pipeline (cost-based GHD + the
//!    worst-case-optimal kernel) must undercut the old pipeline (Figure-2
//!    template + hash-join cascade, measured in the same process) by
//!    ≥10×, and the fresh `new/old` ratio may exceed the committed
//!    `BENCH_preprocess_baseline.json` ratio by at most 25%.
//! 6. **Instrumentation overhead** — the fresh `BENCH_enum.json` must
//!    carry `"instrumented":true`, i.e. the new-engine times of check 4
//!    were measured through the `re_obs` `InstrumentedStream` wrapper
//!    (per-`next()` wall-clock timing, global delay/TTFA histograms).
//!    Check 4's time gates then double as the observability overhead
//!    gate: instrumented ratios must stay within the same 25% drift
//!    guard against the (equally instrumented) committed baseline.
//! 7. **Server transport** — `BENCH_server.json`'s same-run three-way
//!    comparison (thread-per-connection JSON vs reactor JSON vs reactor
//!    binary, 64 paced clients on 8 workers) must show the reactor
//!    sustaining ≥3× the thread front-end's sessions/sec with a
//!    coordinated-omission-corrected FETCH p99 no worse than the thread
//!    front-end's, and the binary protocol's p50 no worse than
//!    JSON-lines' in the time-paired codec probe (alternating batches
//!    against one server, so environment noise cancels out of the
//!    ratio); the reactor/thread speedup and paired binary/JSON ratio
//!    may drift at most 25% past `BENCH_server_baseline.json`.
//! 8. **Prepared-artifact reuse** — `BENCH_cache.json`'s in-process 2-hop
//!    OPEN at scale 10: a repeated OPEN served from the plan cache's
//!    prepared artifact must cost at most 0.1× a cold OPEN (p50 against
//!    p50, alternating samples, outputs cross-checked), and the
//!    cached/cold ratio may drift at most 25% past
//!    `BENCH_cache_baseline.json`.

use std::path::Path;
use std::process::exit;

/// Tolerated relative regression of a guarded ratio against its baseline.
const TOLERANCE: f64 = 0.25;
/// Noise allowance on the ordering check (single pinned core).
const ORDERING_SLACK: f64 = 0.10;
/// Noise allowance on the lexi small-k crossover check.
const SMALL_K_SLACK: f64 = 0.15;
/// The arena engine's time-to-1000 must stay within this factor of the
/// owned-tuple engine's (the PR acceptance bound).
const ENUM_TIME_BOUND: f64 = 1.05;
/// The new cyclic-preprocessing pipeline's 6-cycle time-to-first must be
/// at most this fraction of the old pipeline's (the >= 10x acceptance
/// bound of the worst-case-optimal bag-materialisation PR).
const TTF_RATIO_BOUND: f64 = 0.10;
/// The reactor front-end must sustain at least this many times the
/// thread-per-connection front-end's sessions/sec under the paced
/// 64-client load (the event-driven-server PR acceptance bound).
const SERVER_SPEEDUP_BOUND: f64 = 3.0;

/// A repeated OPEN served from a cached prepared artifact must cost at
/// most this fraction of a cold OPEN (the artifact-cache acceptance
/// bound).
const CACHE_RATIO_BOUND: f64 = 0.10;

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    query: String,
    k: u64,
    old_ms: f64,
    new_ms: f64,
    general_ms: f64,
}

/// Extract the next `"field":value` number after `from` in `s`.
fn field_f64(obj: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str(obj: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Parse the flat schema `lexi_vs_general` writes. Deliberately minimal —
/// the workspace has no serde, and the file is machine-written with a
/// fixed shape.
fn parse(content: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    let Some(arr_start) = content.find("\"entries\":[") else {
        return entries;
    };
    let mut rest = &content[arr_start..];
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        let obj = &rest[open..open + close + 1];
        if let (Some(query), Some(k), Some(old_ms), Some(new_ms), Some(general_ms)) = (
            field_str(obj, "query"),
            field_f64(obj, "k"),
            field_f64(obj, "old_ms"),
            field_f64(obj, "new_ms"),
            field_f64(obj, "general_ms"),
        ) {
            entries.push(Entry {
                query,
                k: k as u64,
                old_ms,
                new_ms,
                general_ms,
            });
        }
        rest = &rest[open + close + 1..];
    }
    entries
}

fn load(path: &Path) -> Vec<Entry> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check_bench: cannot read {}: {e}", path.display());
            exit(1);
        }
    };
    let entries = parse(&content);
    if entries.is_empty() {
        eprintln!("check_bench: no entries parsed from {}", path.display());
        exit(1);
    }
    entries
}

fn at_k1000<'a>(entries: &'a [Entry], query: &str) -> Option<&'a Entry> {
    entries.iter().find(|e| e.query == query && e.k == 1_000)
}

/// One entry of the `enum_frontier` schema (old vs. new engine, time and
/// frontier bytes).
#[derive(Debug, Clone, PartialEq)]
struct EnumEntry {
    query: String,
    k: u64,
    old_ms: f64,
    new_ms: f64,
    old_bytes: f64,
    new_bytes: f64,
}

/// Parse the flat schema `enum_frontier` writes.
fn parse_enum(content: &str) -> Vec<EnumEntry> {
    let mut entries = Vec::new();
    let Some(arr_start) = content.find("\"entries\":[") else {
        return entries;
    };
    let mut rest = &content[arr_start..];
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        let obj = &rest[open..open + close + 1];
        if let (
            Some(query),
            Some(k),
            Some(old_ms),
            Some(new_ms),
            Some(old_bytes),
            Some(new_bytes),
        ) = (
            field_str(obj, "query"),
            field_f64(obj, "k"),
            field_f64(obj, "old_ms"),
            field_f64(obj, "new_ms"),
            field_f64(obj, "old_bytes"),
            field_f64(obj, "new_bytes"),
        ) {
            entries.push(EnumEntry {
                query,
                k: k as u64,
                old_ms,
                new_ms,
                old_bytes,
                new_bytes,
            });
        }
        rest = &rest[open + close + 1..];
    }
    entries
}

fn load_enum(path: &Path) -> Vec<EnumEntry> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check_bench: cannot read {}: {e}", path.display());
            exit(1);
        }
    };
    let entries = parse_enum(&content);
    if entries.is_empty() {
        eprintln!("check_bench: no entries parsed from {}", path.display());
        exit(1);
    }
    entries
}

fn enum_at_k1000<'a>(entries: &'a [EnumEntry], query: &str) -> Option<&'a EnumEntry> {
    entries.iter().find(|e| e.query == query && e.k == 1_000)
}

/// The frontier-kernel gates over `BENCH_enum.json` (check 4 in the
/// module docs). Returns human-readable failures.
fn check_enum(fresh: &[EnumEntry], baseline: &[EnumEntry]) -> Vec<String> {
    let mut failures = Vec::new();
    for query in ["DBLP2hop", "DBLP3hop", "DBLP6cycle"] {
        let before = failures.len();
        let Some(e) = enum_at_k1000(fresh, query) else {
            failures.push(format!("fresh BENCH_enum.json has no {query} k=1000 entry"));
            continue;
        };
        if e.new_bytes >= e.old_bytes {
            failures.push(format!(
                "{query} k=1000: arena frontier ({} B) does not undercut the \
                 owned-tuple frontier ({} B)",
                e.new_bytes, e.old_bytes
            ));
        }
        if query == "DBLP3hop" && 2.0 * e.new_bytes > e.old_bytes {
            failures.push(format!(
                "{query} k=1000: arena frontier reduction {:.2}x below the 2x target",
                e.old_bytes / e.new_bytes
            ));
        }
        if e.new_ms > e.old_ms * ENUM_TIME_BOUND {
            failures.push(format!(
                "{query} k=1000: arena time-to-1000 {:.2} ms exceeds {:.0}% of the \
                 old engine's {:.2} ms",
                e.new_ms,
                ENUM_TIME_BOUND * 100.0,
                e.old_ms
            ));
        }
        if let Some(base) = enum_at_k1000(baseline, query) {
            let time_ratio = e.new_ms / e.old_ms;
            let base_time_ratio = base.new_ms / base.old_ms;
            if time_ratio > base_time_ratio * (1.0 + TOLERANCE) {
                failures.push(format!(
                    "{query} k=1000: new/old time ratio regressed {base_time_ratio:.3} -> \
                     {time_ratio:.3} (> {:.0}% tolerance)",
                    TOLERANCE * 100.0
                ));
            }
            let bytes_ratio = e.new_bytes / e.old_bytes;
            let base_bytes_ratio = base.new_bytes / base.old_bytes;
            if bytes_ratio > base_bytes_ratio * (1.0 + TOLERANCE) {
                failures.push(format!(
                    "{query} k=1000: new/old bytes ratio regressed {base_bytes_ratio:.3} -> \
                     {bytes_ratio:.3} (> {:.0}% tolerance)",
                    TOLERANCE * 100.0
                ));
            }
        } else {
            failures.push(format!(
                "{query} k=1000 present in fresh run but missing from enum baseline"
            ));
        }
        if failures.len() == before {
            println!(
                "ok: {query} k=1000 arena {:.2} ms / {} B vs old {:.2} ms / {} B \
                 ({:.2}x less frontier memory)",
                e.new_ms,
                e.new_bytes,
                e.old_ms,
                e.old_bytes,
                e.old_bytes / e.new_bytes
            );
        }
    }
    failures
}

/// The 6-cycle time-to-first pair `preprocess` writes under `"ttf"`.
#[derive(Debug, Clone, PartialEq)]
struct Ttf {
    old_ms: f64,
    new_ms: f64,
}

/// Parse the `"ttf":{...}` object of the `preprocess` schema.
fn parse_ttf(content: &str) -> Option<Ttf> {
    let start = content.find("\"ttf\":{")?;
    let obj = &content[start..];
    let obj = &obj[..obj.find('}')? + 1];
    Some(Ttf {
        old_ms: field_f64(obj, "old_ms")?,
        new_ms: field_f64(obj, "new_ms")?,
    })
}

fn load_ttf(path: &Path) -> Ttf {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check_bench: cannot read {}: {e}", path.display());
            exit(1);
        }
    };
    match parse_ttf(&content) {
        Some(ttf) => ttf,
        None => {
            eprintln!("check_bench: no ttf object parsed from {}", path.display());
            exit(1);
        }
    }
}

/// The cyclic-preprocessing gates over `BENCH_preprocess.json` (check 5
/// in the module docs). Returns human-readable failures.
fn check_ttf(fresh: &Ttf, baseline: &Ttf) -> Vec<String> {
    let mut failures = Vec::new();
    let ratio = fresh.new_ms / fresh.old_ms;
    if ratio > TTF_RATIO_BOUND {
        failures.push(format!(
            "6-cycle time-to-first: new pipeline {:.1} ms is only {:.1}x faster than \
             the old pipeline's {:.1} ms (the PR demands >= {:.0}x)",
            fresh.new_ms,
            1.0 / ratio,
            fresh.old_ms,
            1.0 / TTF_RATIO_BOUND
        ));
    }
    let base_ratio = baseline.new_ms / baseline.old_ms;
    if ratio > base_ratio * (1.0 + TOLERANCE) {
        failures.push(format!(
            "6-cycle time-to-first: new/old ratio regressed {base_ratio:.4} -> {ratio:.4} \
             (> {:.0}% tolerance)",
            TOLERANCE * 100.0
        ));
    }
    if failures.is_empty() {
        println!(
            "ok: 6-cycle time-to-first new {:.1} ms vs old {:.1} ms ({:.1}x, \
             baseline {:.1}x, tolerance {:.0}%)",
            fresh.new_ms,
            fresh.old_ms,
            1.0 / ratio,
            1.0 / base_ratio,
            TOLERANCE * 100.0
        );
    }
    failures
}

/// Check 6: the overhead gate proves nothing unless the enum bench
/// actually ran through the instrumentation wrapper.
fn check_instrumented(content: &str) -> Option<String> {
    if content.contains("\"instrumented\":true") {
        println!(
            "ok: BENCH_enum.json measured through InstrumentedStream — the check-4 \
             time gates double as the instrumentation-overhead gate"
        );
        None
    } else {
        Some(
            "fresh BENCH_enum.json lacks \"instrumented\":true — the enum bench ran \
             without the wall-clock instrumentation wrapper, so the overhead gate \
             proved nothing"
                .into(),
        )
    }
}

/// One mode of the `server_load` schema (thread_json / reactor_json /
/// reactor_binary).
#[derive(Debug, Clone, PartialEq)]
struct ServerMode {
    mode: String,
    sessions_per_sec: f64,
    corrected_p99_us: f64,
}

/// The full `server_load` schema: the three storm modes plus the
/// time-paired codec probe's p50s (the binary-vs-JSON gate signal — the
/// probe alternates protocols against one server so environment drift
/// cancels out of the ratio).
#[derive(Debug, Clone, PartialEq)]
struct ServerReport {
    modes: Vec<ServerMode>,
    paired_json_p50_us: f64,
    paired_binary_p50_us: f64,
}

/// Parse the `server_load` schema: the top-level paired-probe fields and
/// the `"modes":[...]` array.
fn parse_server(content: &str) -> Option<ServerReport> {
    let paired_json_p50_us = field_f64(content, "paired_json_p50_us")?;
    let paired_binary_p50_us = field_f64(content, "paired_binary_p50_us")?;
    let arr_start = content.find("\"modes\":[")?;
    let mut modes = Vec::new();
    let mut rest = &content[arr_start..];
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        let obj = &rest[open..open + close + 1];
        if let (Some(mode), Some(sessions_per_sec), Some(corrected_p99_us)) = (
            field_str(obj, "mode"),
            field_f64(obj, "sessions_per_sec"),
            field_f64(obj, "corrected_p99_us"),
        ) {
            modes.push(ServerMode {
                mode,
                sessions_per_sec,
                corrected_p99_us,
            });
        }
        rest = &rest[open + close + 1..];
    }
    if modes.is_empty() {
        return None;
    }
    Some(ServerReport {
        modes,
        paired_json_p50_us,
        paired_binary_p50_us,
    })
}

fn load_server(path: &Path) -> ServerReport {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check_bench: cannot read {}: {e}", path.display());
            exit(1);
        }
    };
    match parse_server(&content) {
        Some(report) => report,
        None => {
            eprintln!(
                "check_bench: cannot parse the server_load schema from {}",
                path.display()
            );
            exit(1);
        }
    }
}

fn server_mode<'a>(report: &'a ServerReport, name: &str) -> Option<&'a ServerMode> {
    report.modes.iter().find(|m| m.mode == name)
}

/// The server-transport gates over `BENCH_server.json` (check 7 in the
/// module docs). Returns human-readable failures.
fn check_server(fresh: &ServerReport, baseline: &ServerReport) -> Vec<String> {
    let mut failures = Vec::new();
    let (Some(thread), Some(reactor), Some(_binary)) = (
        server_mode(fresh, "thread_json"),
        server_mode(fresh, "reactor_json"),
        server_mode(fresh, "reactor_binary"),
    ) else {
        failures.push(
            "fresh BENCH_server.json is missing one of thread_json / reactor_json / \
             reactor_binary"
                .into(),
        );
        return failures;
    };

    let speedup = reactor.sessions_per_sec / thread.sessions_per_sec;
    if speedup < SERVER_SPEEDUP_BOUND {
        failures.push(format!(
            "server load: reactor sustains only {speedup:.2}x the thread front-end's \
             sessions/sec ({:.1} vs {:.1}; the PR demands >= {SERVER_SPEEDUP_BOUND:.0}x)",
            reactor.sessions_per_sec, thread.sessions_per_sec
        ));
    }
    if reactor.corrected_p99_us > thread.corrected_p99_us {
        failures.push(format!(
            "server load: reactor corrected FETCH p99 {:.0} us exceeds the thread \
             front-end's {:.0} us",
            reactor.corrected_p99_us, thread.corrected_p99_us
        ));
    }
    if fresh.paired_binary_p50_us > fresh.paired_json_p50_us {
        failures.push(format!(
            "server load: binary paired FETCH p50 {:.0} us exceeds JSON-lines' {:.0} us",
            fresh.paired_binary_p50_us, fresh.paired_json_p50_us
        ));
    }

    match (
        server_mode(baseline, "thread_json"),
        server_mode(baseline, "reactor_json"),
    ) {
        (Some(base_thread), Some(base_reactor)) => {
            let base_speedup = base_reactor.sessions_per_sec / base_thread.sessions_per_sec;
            if speedup < base_speedup * (1.0 - TOLERANCE) {
                failures.push(format!(
                    "server load: reactor/thread speedup regressed {base_speedup:.2}x -> \
                     {speedup:.2}x (> {:.0}% tolerance)",
                    TOLERANCE * 100.0
                ));
            }
            let paired_ratio = fresh.paired_binary_p50_us / fresh.paired_json_p50_us;
            let base_paired_ratio = baseline.paired_binary_p50_us / baseline.paired_json_p50_us;
            if paired_ratio > base_paired_ratio * (1.0 + TOLERANCE) {
                failures.push(format!(
                    "server load: binary/json paired p50 ratio regressed \
                     {base_paired_ratio:.3} -> {paired_ratio:.3} (> {:.0}% tolerance)",
                    TOLERANCE * 100.0
                ));
            }
        }
        _ => failures.push("server baseline is missing one of thread_json / reactor_json".into()),
    }

    if failures.is_empty() {
        println!(
            "ok: server load reactor {:.1} sessions/s vs thread {:.1} ({speedup:.2}x), \
             corrected p99 {:.0} vs {:.0} us, binary paired p50 {:.0} vs json {:.0} us",
            reactor.sessions_per_sec,
            thread.sessions_per_sec,
            reactor.corrected_p99_us,
            thread.corrected_p99_us,
            fresh.paired_binary_p50_us,
            fresh.paired_json_p50_us
        );
    }
    failures
}

/// `open_ratio` (cached ÷ cold OPEN p50) from a `cache_reuse` output.
fn load_cache_ratio(path: &Path) -> f64 {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|c| field_f64(&c, "open_ratio").ok_or_else(|| "no open_ratio".to_string()));
    match parsed {
        Ok(ratio) => ratio,
        Err(e) => {
            eprintln!("check_bench: cannot read {}: {e}", path.display());
            exit(1);
        }
    }
}

/// The artifact-reuse gates over `BENCH_cache.json` (check 8 in the
/// module docs). Returns human-readable failures.
fn check_cache(fresh: f64, baseline: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if fresh > CACHE_RATIO_BOUND {
        failures.push(format!(
            "2-hop cached OPEN costs {fresh:.4}x a cold OPEN (the cache demands <= {CACHE_RATIO_BOUND})"
        ));
    }
    if fresh > baseline * (1.0 + TOLERANCE) {
        failures.push(format!(
            "2-hop cached/cold OPEN ratio regressed {baseline:.5} -> {fresh:.5} (> {:.0}% tolerance)",
            TOLERANCE * 100.0
        ));
    }
    if failures.is_empty() {
        println!(
            "ok: 2-hop cached OPEN {fresh:.5}x a cold OPEN ({:.0}x faster, baseline {baseline:.5}, \
             tolerance {:.0}%)",
            1.0 / fresh,
            TOLERANCE * 100.0
        );
    }
    failures
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let fresh = load(&root.join("BENCH_lexi.json"));
    let baseline = load(&root.join("BENCH_lexi_baseline.json"));

    let mut failures: Vec<String> = Vec::new();

    // Check 1: the paper's ordering holds on DBLP2hop at k = 1000.
    match at_k1000(&fresh, "DBLP2hop") {
        None => failures.push("fresh BENCH_lexi.json has no DBLP2hop k=1000 entry".into()),
        Some(e) => {
            if e.new_ms > e.general_ms * (1.0 + ORDERING_SLACK) {
                failures.push(format!(
                    "DBLP2hop k=1000: lexi ({:.2} ms) slower than general ({:.2} ms) — \
                     the PR 1 inversion is back",
                    e.new_ms, e.general_ms
                ));
            } else {
                println!(
                    "ok: DBLP2hop k=1000 lexi {:.2} ms <= general {:.2} ms ({:.2}x), \
                     old engine {:.2} ms ({:.2}x vs new)",
                    e.new_ms,
                    e.general_ms,
                    e.general_ms / e.new_ms,
                    e.old_ms,
                    e.old_ms / e.new_ms
                );
            }
        }
    }

    // Check 3: the lazy-index rebuild must keep the lexi engine ahead of
    // its pre-index ancestor at small k (the PR 4 caveat stays closed).
    for e in fresh.iter().filter(|e| e.k == 10) {
        if e.new_ms > e.old_ms * (1.0 + SMALL_K_SLACK) {
            failures.push(format!(
                "{} k=10: lexi ({:.2} ms) slower than the pre-index engine ({:.2} ms) — \
                 the PR 4 small-k caveat is back",
                e.query, e.new_ms, e.old_ms
            ));
        } else {
            println!(
                "ok: {} k=10 lexi {:.2} ms <= old engine {:.2} ms ({:.2}x)",
                e.query,
                e.new_ms,
                e.old_ms,
                e.old_ms / e.new_ms
            );
        }
    }

    // Check 2: per-query ratio regression against the committed baseline.
    for base in baseline.iter().filter(|e| e.k == 1_000) {
        let Some(now) = at_k1000(&fresh, &base.query) else {
            failures.push(format!(
                "{} k=1000 present in baseline but missing from fresh run",
                base.query
            ));
            continue;
        };
        let base_ratio = base.new_ms / base.general_ms;
        let now_ratio = now.new_ms / now.general_ms;
        if now_ratio > base_ratio * (1.0 + TOLERANCE) {
            failures.push(format!(
                "{} k=1000: lexi/general ratio regressed {:.3} -> {:.3} (> {:.0}% tolerance)",
                base.query,
                base_ratio,
                now_ratio,
                TOLERANCE * 100.0
            ));
        } else {
            println!(
                "ok: {} k=1000 lexi/general ratio {:.3} (baseline {:.3}, tolerance {:.0}%)",
                base.query,
                now_ratio,
                base_ratio,
                TOLERANCE * 100.0
            );
        }
    }

    // Check 4: the frontier-kernel gates over BENCH_enum.json.
    let enum_fresh = load_enum(&root.join("BENCH_enum.json"));
    let enum_baseline = load_enum(&root.join("BENCH_enum_baseline.json"));
    failures.extend(check_enum(&enum_fresh, &enum_baseline));

    // Check 5: the cyclic-preprocessing cliff stays dead (>= 10x 6-cycle
    // time-to-first under the cost-based + worst-case-optimal pipeline).
    let ttf_fresh = load_ttf(&root.join("BENCH_preprocess.json"));
    let ttf_baseline = load_ttf(&root.join("BENCH_preprocess_baseline.json"));
    failures.extend(check_ttf(&ttf_fresh, &ttf_baseline));

    // Check 6: the fresh enum numbers must come from an instrumented run.
    if let Ok(content) = std::fs::read_to_string(root.join("BENCH_enum.json")) {
        failures.extend(check_instrumented(&content));
    }

    // Check 7: the event-driven server front-end beats thread-per-conn
    // on sessions/sec and tail latency, and binary framing beats JSON.
    let server_fresh = load_server(&root.join("BENCH_server.json"));
    let server_baseline = load_server(&root.join("BENCH_server_baseline.json"));
    failures.extend(check_server(&server_fresh, &server_baseline));

    // Check 8: repeated OPENs skip preprocessing through the plan cache's
    // prepared artifacts.
    failures.extend(check_cache(
        load_cache_ratio(&root.join("BENCH_cache.json")),
        load_cache_ratio(&root.join("BENCH_cache_baseline.json")),
    ));

    if failures.is_empty() {
        println!("check_bench: all perf guards passed");
    } else {
        for f in &failures {
            eprintln!("check_bench FAILURE: {f}");
        }
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "{\"edges\":5000,\"machine_threads\":1,\"entries\":[\
        {\"query\":\"DBLP2hop\",\"k\":10,\"old_ms\":1.5,\"new_ms\":3.0,\"general_ms\":7.0},\
        {\"query\":\"DBLP2hop\",\"k\":1000,\"old_ms\":20.0,\"new_ms\":2.7,\"general_ms\":7.1}]}";

    #[test]
    fn parses_the_flat_schema() {
        let entries = parse(SAMPLE);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].query, "DBLP2hop");
        assert_eq!(entries[1].k, 1000);
        assert_eq!(entries[1].old_ms, 20.0);
        assert_eq!(entries[1].new_ms, 2.7);
        assert_eq!(entries[1].general_ms, 7.1);
        assert_eq!(at_k1000(&entries, "DBLP2hop"), Some(&entries[1]));
        assert_eq!(at_k1000(&entries, "DBLP3hop"), None);
    }

    const ENUM_SAMPLE: &str = "{\"edges\":5000,\"cycle_edges\":2200,\"entries\":[\
        {\"query\":\"DBLP3hop\",\"k\":1000,\"old_ms\":18.4,\"new_ms\":10.7,\
         \"old_bytes\":3298276,\"new_bytes\":1153720,\"new_peak_bytes\":1065672}]}";

    #[test]
    fn parses_the_enum_schema() {
        let entries = parse_enum(ENUM_SAMPLE);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].query, "DBLP3hop");
        assert_eq!(entries[0].old_bytes, 3298276.0);
        assert_eq!(entries[0].new_bytes, 1153720.0);
        assert_eq!(enum_at_k1000(&entries, "DBLP3hop"), Some(&entries[0]));
        assert!(enum_at_k1000(&entries, "DBLP2hop").is_none());
    }

    #[test]
    fn enum_gates_fire_on_regressions() {
        let good = parse_enum(ENUM_SAMPLE);
        // Identical fresh and baseline entries: the 2hop/6cycle entries are
        // missing, so only those failures appear — the 3hop gates pass.
        let failures = check_enum(&good, &good);
        assert_eq!(failures.len(), 2, "missing 2hop and 6cycle: {failures:?}");
        // A fresh run whose arena frontier grew past the old engine's must
        // fail the strict-undercut and 2x gates.
        let mut bloated = good.clone();
        bloated[0].new_bytes = bloated[0].old_bytes + 1.0;
        let failures = check_enum(&bloated, &good);
        assert!(
            failures.iter().any(|f| f.contains("does not undercut")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("below the 2x target")),
            "{failures:?}"
        );
        // A slowdown past the 1.05x bound must fail the time gate.
        let mut slow = good.clone();
        slow[0].new_ms = slow[0].old_ms * 1.2;
        let failures = check_enum(&slow, &good);
        assert!(
            failures.iter().any(|f| f.contains("exceeds")),
            "{failures:?}"
        );
    }

    const PREPROCESS_SAMPLE: &str = "{\"workload\":\"DBLP6cycle\",\"edges\":2200,\
        \"plan\":\"cycle-split(0,3)\",\"bag_sizes\":[265048, 265048],\
        \"serial_ms\":296.696,\"runs\":[{\"threads\":1,\"ms\":362.073,\"speedup\":0.819}],\
        \"ttf\":{\"old_ms\":3606.578,\"new_ms\":295.608,\"speedup\":12.201}}";

    #[test]
    fn parses_the_ttf_object() {
        let ttf = parse_ttf(PREPROCESS_SAMPLE).unwrap();
        assert_eq!(ttf.old_ms, 3606.578);
        assert_eq!(ttf.new_ms, 295.608);
        assert!(parse_ttf("{\"runs\":[]}").is_none());
    }

    #[test]
    fn ttf_gates_fire_on_regressions() {
        let good = parse_ttf(PREPROCESS_SAMPLE).unwrap();
        assert!(check_ttf(&good, &good).is_empty());
        // Losing the 10x speedup must fail regardless of the baseline.
        let slow = Ttf {
            old_ms: good.old_ms,
            new_ms: good.old_ms / 5.0,
        };
        let failures = check_ttf(&slow, &slow);
        assert!(
            failures.iter().any(|f| f.contains("demands >= 10x")),
            "{failures:?}"
        );
        // Drifting >25% past the committed ratio must fail even while the
        // 10x bound still holds.
        let drifted = Ttf {
            old_ms: good.old_ms,
            new_ms: good.new_ms * 1.5,
        };
        let failures = check_ttf(&drifted, &good);
        assert!(
            failures.iter().any(|f| f.contains("ratio regressed")),
            "{failures:?}"
        );
    }

    #[test]
    fn instrumented_flag_is_required() {
        assert!(check_instrumented("{\"instrumented\":true,\"entries\":[]}").is_none());
        let failure = check_instrumented("{\"entries\":[]}").unwrap();
        assert!(failure.contains("instrumented"), "{failure}");
    }

    const SERVER_SAMPLE: &str = "{\"clients\":64,\"workers\":8,\
        \"paired_json_p50_us\":120.0,\"paired_binary_p50_us\":85.0,\"modes\":[\
        {\"mode\":\"thread_json\",\"sessions_per_sec\":32.4,\"solo_p50_us\":119.0,\
         \"service_p50_us\":243.0,\"corrected_p99_us\":3461860.0,\"fetches\":1024},\
        {\"mode\":\"reactor_json\",\"sessions_per_sec\":222.9,\"solo_p50_us\":128.0,\
         \"service_p50_us\":406.0,\"corrected_p99_us\":60957.0,\"fetches\":1024},\
        {\"mode\":\"reactor_binary\",\"sessions_per_sec\":227.7,\"solo_p50_us\":100.0,\
         \"service_p50_us\":428.0,\"corrected_p99_us\":32710.0,\"fetches\":1024}]}";

    #[test]
    fn cache_gates_fire_on_regressions() {
        let sample = "{\"memberships\":10000,\"open_ratio\":0.00180,\"prepared_bytes\":9}";
        let ratio = field_f64(sample, "open_ratio").unwrap();
        assert_eq!(ratio, 0.0018);
        assert!(check_cache(ratio, ratio).is_empty());
        // Drifting 30% past the baseline fails; so does losing the 10x.
        assert_eq!(check_cache(ratio * 1.3, ratio).len(), 1);
        assert_eq!(check_cache(0.2, 0.2).len(), 1);
        assert_eq!(check_cache(0.2, ratio).len(), 2);
    }

    #[test]
    fn parses_the_server_schema() {
        let report = parse_server(SERVER_SAMPLE).unwrap();
        assert_eq!(report.modes.len(), 3);
        assert_eq!(report.paired_json_p50_us, 120.0);
        assert_eq!(report.paired_binary_p50_us, 85.0);
        let reactor = server_mode(&report, "reactor_json").unwrap();
        assert_eq!(reactor.sessions_per_sec, 222.9);
        assert_eq!(reactor.corrected_p99_us, 60957.0);
        assert!(server_mode(&report, "reactor_quic").is_none());
        assert!(parse_server("{\"entries\":[]}").is_none());
    }

    #[test]
    fn server_gates_fire_on_regressions() {
        let good = parse_server(SERVER_SAMPLE).unwrap();
        assert!(check_server(&good, &good).is_empty());
        // Losing the 3x sessions/sec speedup must fail regardless of the
        // baseline.
        let mut slow = good.clone();
        slow.modes[1].sessions_per_sec = slow.modes[0].sessions_per_sec * 2.0;
        let failures = check_server(&slow, &slow);
        assert!(
            failures.iter().any(|f| f.contains("demands >= 3x")),
            "{failures:?}"
        );
        // A reactor tail worse than the thread front-end's must fail.
        let mut tail = good.clone();
        tail.modes[1].corrected_p99_us = tail.modes[0].corrected_p99_us * 2.0;
        let failures = check_server(&tail, &good);
        assert!(
            failures.iter().any(|f| f.contains("corrected FETCH p99")),
            "{failures:?}"
        );
        // Binary losing to JSON on the paired probe must fail.
        let mut codec = good.clone();
        codec.paired_binary_p50_us = codec.paired_json_p50_us + 1.0;
        let failures = check_server(&codec, &good);
        assert!(
            failures.iter().any(|f| f.contains("paired FETCH p50")),
            "{failures:?}"
        );
        // Drifting >25% past the committed speedup must fail even while
        // the 3x bound still holds.
        let mut drifted = good.clone();
        drifted.modes[1].sessions_per_sec = drifted.modes[0].sessions_per_sec * 4.0;
        let failures = check_server(&drifted, &good);
        assert!(
            failures.iter().any(|f| f.contains("speedup regressed")),
            "{failures:?}"
        );
        // Losing >25% of the paired codec advantage must fail even while
        // binary still beats JSON outright.
        let mut eroded = good.clone();
        eroded.paired_binary_p50_us = 110.0; // ratio 0.917 vs baseline 0.708
        let failures = check_server(&eroded, &good);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("paired p50 ratio regressed")),
            "{failures:?}"
        );
        // A missing mode is a hard failure.
        let mut missing = good.clone();
        missing.modes.truncate(2);
        let failures = check_server(&missing, &good);
        assert!(
            failures.iter().any(|f| f.contains("missing one of")),
            "{failures:?}"
        );
    }

    #[test]
    fn field_extractors_handle_missing_fields() {
        assert_eq!(field_f64("{\"a\":1.25}", "a"), Some(1.25));
        assert_eq!(field_f64("{\"a\":1.25}", "b"), None);
        assert_eq!(field_str("{\"q\":\"X\"}", "q"), Some("X".into()));
        assert_eq!(field_str("{\"q\":3}", "q"), None);
        assert!(parse("{}").is_empty());
    }
}
