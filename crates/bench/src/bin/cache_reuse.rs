//! Prepared-artifact reuse: what a repeated OPEN costs once the plan
//! cache holds the statement's prepared part, against a cold OPEN that
//! preprocesses.
//!
//! One in-process server, the DBLP-like 2-hop SUM statement at scale 10
//! (10 000 memberships). Each sample is `OPEN` → `FETCH 64` → `CLOSE`
//! through [`RankedQueryServer::handle`]:
//!
//! * **cold** — the database is re-registered before the OPEN, which
//!   purges the statement's plan-cache entry, so the OPEN plans and
//!   preprocesses from scratch;
//! * **cached** — the same statement again and again on an unchanged
//!   catalog, so every OPEN opens a cursor on the cached artifact.
//!
//! The two kinds alternate, so machine drift hits both; every page is
//! cross-checked against the first cold page. Results go to stdout and to
//! `BENCH_cache.json` in the repo root (schema: memberships, cold_opens,
//! cached_opens, cold_open_p50_us, cached_open_p50_us, open_ratio,
//! cold_fetch_p50_us, cached_fetch_p50_us, prepared_bytes);
//! `check_bench` gates `open_ratio` (cached ÷ cold OPEN p50) at ≤ 0.1
//! with the 25% drift guard against `BENCH_cache_baseline.json`.

use re_datagen::{BipartiteConfig, BipartiteDataset};
use re_server::{RankedQueryServer, Request, Response, ServerConfig};
use re_storage::{Database, Tuple};
use std::sync::Arc;
use std::time::Instant;

/// Thousands of memberships.
const SCALE: usize = 10;
/// Cold samples (each preprocesses, ~10 ms) and cached samples per cold
/// one (each ~tens of µs).
const COLD_OPENS: usize = 40;
const CACHED_PER_COLD: usize = 5;
const PAGE_K: u64 = 64;
const TWO_HOP: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, \
                       AuthorPapers AS AP2 WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

/// One OPEN → FETCH → CLOSE: (open µs, fetch µs, page).
fn session(server: &RankedQueryServer) -> (f64, f64, Vec<Tuple>) {
    let t = Instant::now();
    let opened = server.handle(Request::Open {
        db: "dblp".into(),
        sql: TWO_HOP.into(),
        deadline_millis: None,
    });
    let open_us = t.elapsed().as_secs_f64() * 1e6;
    let Response::Opened { session, .. } = opened else {
        panic!("OPEN failed: {opened:?}");
    };
    let t = Instant::now();
    let page = server.handle(Request::Fetch { session, k: PAGE_K });
    let fetch_us = t.elapsed().as_secs_f64() * 1e6;
    let Response::Page { rows, .. } = page else {
        panic!("FETCH failed: {page:?}");
    };
    server.handle(Request::Close { session });
    (open_us, fetch_us, rows)
}

fn p50(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let ds = BipartiteDataset::generate(BipartiteConfig::dblp_like(1_000 * SCALE, 42));
    let mut db = Database::new();
    db.set_relation(ds.relation);
    let db = Arc::new(db);
    let server = RankedQueryServer::new(ServerConfig {
        exec_threads: 1,
        ..ServerConfig::default()
    });

    let (mut cold_open, mut cold_fetch) = (Vec::new(), Vec::new());
    let (mut cached_open, mut cached_fetch) = (Vec::new(), Vec::new());
    let mut expected: Option<Vec<Tuple>> = None;
    for _ in 0..COLD_OPENS {
        server.catalog().register_shared("dblp", Arc::clone(&db));
        let (open, fetch, rows) = session(&server);
        cold_open.push(open);
        cold_fetch.push(fetch);
        assert_eq!(rows.len(), PAGE_K as usize, "2-hop page is full");
        let expected = expected.get_or_insert(rows.clone());
        assert_eq!(&rows, expected, "cold OPENs diverged");
        // The second OPEN of the registration caches the artifact; the
        // ones after it reuse it.
        session(&server);
        for _ in 0..CACHED_PER_COLD {
            let (open, fetch, rows) = session(&server);
            assert_eq!(&rows, expected, "a cached OPEN diverged from the cold one");
            cached_open.push(open);
            cached_fetch.push(fetch);
        }
    }
    let stats = server.stats_report();
    assert_eq!(
        stats.prepared_reused,
        (COLD_OPENS * CACHED_PER_COLD) as u64,
        "every cached sample opened on the cached artifact"
    );

    let cold_open_p50 = p50(cold_open);
    let cached_open_p50 = p50(cached_open);
    let ratio = cached_open_p50 / cold_open_p50;
    let cold_fetch_p50 = p50(cold_fetch);
    let cached_fetch_p50 = p50(cached_fetch);
    println!(
        "2-hop, {} memberships: OPEN p50 cold {cold_open_p50:.1} us, cached \
         {cached_open_p50:.1} us (ratio {ratio:.4}); FETCH {PAGE_K} p50 cold \
         {cold_fetch_p50:.1} us, cached {cached_fetch_p50:.1} us; artifact {} bytes",
        1_000 * SCALE,
        stats.prepared_bytes
    );
    let json = format!(
        "{{\"memberships\":{},\"cold_opens\":{COLD_OPENS},\"cached_opens\":{},\
         \"cold_open_p50_us\":{cold_open_p50:.1},\"cached_open_p50_us\":{cached_open_p50:.1},\
         \"open_ratio\":{ratio:.5},\"cold_fetch_p50_us\":{cold_fetch_p50:.1},\
         \"cached_fetch_p50_us\":{cached_fetch_p50:.1},\"prepared_bytes\":{}}}\n",
        1_000 * SCALE,
        COLD_OPENS * CACHED_PER_COLD,
        stats.prepared_bytes
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_cache.json");
    std::fs::write(&out, json).expect("write BENCH_cache.json");
}
