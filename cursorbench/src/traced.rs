//! The traced run's in-process passes: each layer's public functions
//! called and timed from here, with spans around every call.
//!
//! * The **layer pass** replays the workload's statements through the same
//!   public functions an OPEN uses — SQL normalise/parse/plan/instantiate,
//!   GHD selection, the full reducer or bag materialisation, cursor open
//!   and per-answer fetch — and then through `RankedQueryServer::handle`
//!   with both codecs applied to the real pages.
//! * The **scale sweep** opens the deep-scroll statements at four seeded
//!   sizes and fits log-log slopes of open time and of the p99 delay.
//!
//! The timings here re-run work the OPEN path also does (the reducer runs
//! once here and once inside the cursor open), so a layer's number is the
//! cost of that layer's call, not a partition of one OPEN.

use crate::drive::Served;
use crate::spans::Tracer;
use crate::stats::{log_log_slope, median, quantile};
use crate::workload::{Data, Shape, Sizes, Statement, Workload, DBLP, LDBC};
use rankedenum_core::ExecContext;
use re_join::{full_reduce_ctx, materialize_bags_with, BagKernel};
use re_query::{GhdPlan, JoinProjectQuery, JoinTree};
use re_ranking::WeightAssignment;
use re_server::{wire, Request, Response};
use re_sql::{PlannedQuery, QueryCursor};
use re_storage::Database;
use std::time::Instant;

/// Per-layer figures of the layer pass, raw samples where a median is
/// taken later.
#[derive(Default)]
pub struct LayerSamples {
    pub normalize_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub plan_us: Vec<f64>,
    pub instantiate_us: Vec<f64>,
    pub ghd_select_us: Vec<f64>,
    pub reduce_ms: Vec<f64>,
    pub reduce_in_rows: u64,
    pub reduce_kept_rows: u64,
    pub bags_ms: Vec<f64>,
    pub bag_rows: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub open_self_ms: Vec<f64>,
    pub first_answer_us: Vec<f64>,
    pub delay_ns: Vec<f64>,
    pub frontier_peak_bytes: u64,
    pub pool_tasks: u64,
    pub pool_steals: u64,
    pub pool_busy_us: u64,
    pub pool_wall_us: f64,
    pub pool_threads: usize,
    pub opens: u64,
    pub server_open_us: Vec<f64>,
    pub server_fetch_us: Vec<f64>,
    pub server_close_us: Vec<f64>,
    pub codec: [CodecTotals; 2],
    /// Per page: mean over the two codecs of encode + decode, µs.
    pub codec_page_us: Vec<f64>,
    pub requests: u64,
}

/// Encode/decode totals of one codec over the pass's pages.
#[derive(Default, Clone, Copy)]
pub struct CodecTotals {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes: u64,
    pub rows: u64,
}

/// The statements the layer pass replays, each with a repeat count. The
/// `topk_unique` pass takes fresh statements from the script's rounds
/// starting at `first_round`.
pub fn pass_statements(
    served: &Served,
    workload: Workload,
    seed: u64,
    first_round: usize,
) -> Vec<(Statement, usize)> {
    match workload {
        Workload::TopkHot => crate::workload::warmup_statements(workload, None)
            .into_iter()
            .map(|s| (s, 5))
            .collect(),
        Workload::TopkUnique => {
            // The first rounds of both clients' scripts: distinct statements.
            let mut out = Vec::new();
            for round in first_round..first_round + crate::LAYER_ROUNDS {
                for client in 0..crate::drive::CLIENTS {
                    for slot in 0..workload.shapes().len() {
                        let stmt = crate::workload::script_statement(
                            workload,
                            served.anchors.as_ref(),
                            seed,
                            crate::drive::CLIENTS,
                            client,
                            round,
                            slot,
                        );
                        out.push((stmt, 1));
                    }
                }
            }
            out
        }
        Workload::DeepScroll => crate::workload::warmup_statements(workload, None)
            .into_iter()
            .map(|s| (s, 1))
            .collect(),
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replay every pass statement through the layers, recording spans.
pub fn layer_pass(
    served: &Served,
    workload: Workload,
    seed: u64,
    first_round: usize,
    tracer: &mut Tracer,
) -> LayerSamples {
    let ctx = served.server.exec_context().clone();
    let weights = WeightAssignment::value_as_weight();
    let mut s = LayerSamples {
        pool_threads: ctx.threads(),
        ..LayerSamples::default()
    };
    for (stmt, reps) in pass_statements(served, workload, seed, first_round) {
        for _ in 0..reps {
            s.requests += 1;
            // Distinct from the client drive's request ids (client << 48 | n).
            let request = (1 << 50) | s.requests;
            tracer.begin("bench.request", request);
            core_path(
                &mut s, served, workload, &stmt, &ctx, &weights, tracer, request,
            );
            server_path(&mut s, served, workload, &stmt, tracer, request);
            tracer.end();
        }
    }
    s
}

/// SQL front-end, join layer and core, called directly.
#[allow(clippy::too_many_arguments)]
fn core_path(
    s: &mut LayerSamples,
    served: &Served,
    workload: Workload,
    stmt: &Statement,
    ctx: &ExecContext,
    weights: &WeightAssignment,
    tracer: &mut Tracer,
    request: u64,
) {
    let sql = stmt.sql();
    let db: &Database = served.data.db(stmt.shape.db());

    let t = Instant::now();
    tracer
        .span("sql.normalize", request, || re_sql::normalize(&sql))
        .expect("normalize");
    s.normalize_us.push(us(t));
    let t = Instant::now();
    let parsed = tracer
        .span("sql.parse", request, || re_sql::parse(&sql))
        .expect("parse");
    s.parse_us.push(us(t));
    let t = Instant::now();
    let plan = tracer
        .span("sql.plan", request, || re_sql::plan(&parsed, db))
        .expect("plan");
    s.plan_us.push(us(t));
    let t = Instant::now();
    let working = tracer
        .span("sql.instantiate", request, || plan.working_database(db))
        .expect("instantiate");
    s.instantiate_us.push(us(t));
    let wdb = working.as_ref().unwrap_or(db);

    let branches: Vec<&JoinProjectQuery> = match &plan.query {
        PlannedQuery::Single(q) => vec![q],
        PlannedQuery::Union(u) => u.branches().iter().collect(),
    };
    let mut phases_ms = 0.0;
    for q in branches {
        match JoinTree::build(q) {
            Ok(tree) => {
                let t = Instant::now();
                let (reduced, _) = tracer
                    .span("join.reduce", request, || {
                        full_reduce_ctx(ctx, q, &tree, wdb)
                    })
                    .expect("full reducer");
                let ms = us(t) / 1e3;
                s.reduce_ms.push(ms);
                phases_ms += ms;
                s.reduce_in_rows += tree
                    .nodes()
                    .iter()
                    .map(|n| {
                        wdb.relation(&q.atoms()[n.atom_index].relation)
                            .map_or(0, |r| r.len())
                    })
                    .sum::<usize>() as u64;
                s.reduce_kept_rows += reduced.iter().map(|r| r.len()).sum::<usize>() as u64;
            }
            Err(_) => {
                let t = Instant::now();
                let selection = tracer
                    .span("query.ghd_select", request, || GhdPlan::cost_based(q, wdb))
                    .expect("GHD selection");
                let ghd_us = us(t);
                s.ghd_select_us.push(ghd_us);
                let t = Instant::now();
                let bags = tracer
                    .span("join.bags", request, || {
                        materialize_bags_with(
                            q,
                            wdb,
                            selection.plan.bags(),
                            ctx,
                            BagKernel::default(),
                        )
                    })
                    .expect("bag materialisation");
                let ms = us(t) / 1e3;
                s.bags_ms.push(ms);
                s.bag_rows
                    .push(bags.iter().map(|r| r.len()).sum::<usize>() as f64);
                phases_ms += ms + ghd_us / 1e3;
            }
        }
    }

    let pool_before = ctx.pool_stats();
    let t = Instant::now();
    let mut cursor = tracer
        .span("core.open", request, || {
            QueryCursor::open_ctx(wdb, weights, &plan, ctx)
        })
        .expect("cursor opens");
    let open_us = us(t);
    let pool = ctx.pool_stats().diff(&pool_before);
    s.opens += 1;
    s.pool_tasks += pool.tasks_executed;
    s.pool_steals += pool.tasks_stolen;
    s.pool_busy_us += pool.busy_micros;
    s.pool_wall_us += open_us;
    s.open_ms.push(open_us / 1e3);
    s.open_self_ms.push((open_us / 1e3 - phases_ms).max(0.0));

    let t = Instant::now();
    let first = tracer.span("core.first_answer", request, || cursor.fetch(1));
    s.first_answer_us.push(us(t));
    let mut got = first.len();
    tracer.begin("core.scroll", request);
    while got > 0 && got < workload.answer_cap() {
        let t = Instant::now();
        let row = cursor.fetch(1);
        let ns = t.elapsed().as_nanos() as f64;
        if row.is_empty() {
            break;
        }
        s.delay_ns.push(ns);
        got += 1;
    }
    tracer.end();
    s.frontier_peak_bytes = s
        .frontier_peak_bytes
        .max(cursor.stats_snapshot().frontier_peak_bytes);
}

/// The same statement through `RankedQueryServer::handle` in-process, with
/// both codecs applied to every page it returns.
fn server_path(
    s: &mut LayerSamples,
    served: &Served,
    workload: Workload,
    stmt: &Statement,
    tracer: &mut Tracer,
    request: u64,
) {
    let server = &served.server;
    let t = Instant::now();
    let opened = tracer.span("server.open", request, || {
        server.handle(Request::Open {
            db: stmt.shape.db().to_string(),
            sql: stmt.sql(),
            deadline_millis: None,
        })
    });
    s.server_open_us.push(us(t));
    let Response::Opened { session, .. } = opened else {
        panic!(
            "in-process OPEN of {} failed: {opened:?}",
            stmt.shape.label()
        );
    };
    let mut got = 0;
    while got < workload.answer_cap() {
        let t = Instant::now();
        let page = tracer.span("server.fetch", request, || {
            server.handle(Request::Fetch {
                session,
                k: workload.page_k(),
            })
        });
        s.server_fetch_us.push(us(t));
        let Response::Page { rows, exhausted } = &page else {
            panic!("in-process FETCH failed: {page:?}");
        };
        got += rows.len();
        let n = rows.len() as u64;
        let page_us = codec_pass(s, &page, n, tracer, request);
        s.codec_page_us.push(page_us);
        if *exhausted {
            break;
        }
    }
    let t = Instant::now();
    tracer.span("server.close", request, || {
        server.handle(Request::Close { session })
    });
    s.server_close_us.push(us(t));
}

/// Encode and decode one page with both codecs; returns the mean over the
/// codecs of encode + decode, in µs.
fn codec_pass(
    s: &mut LayerSamples,
    page: &Response,
    rows: u64,
    tracer: &mut Tracer,
    request: u64,
) -> f64 {
    let t = Instant::now();
    let line = tracer.span("codec.json.encode", request, || page.encode());
    let json_enc = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let back = tracer.span("codec.json.decode", request, || Response::decode(&line));
    let json_dec = t.elapsed().as_nanos() as f64;
    assert_eq!(back.as_ref(), Ok(page), "JSON codec round-trips the page");

    let t = Instant::now();
    let frame = tracer.span("codec.binary.encode", request, || {
        wire::encode_response(page)
    });
    let bin_enc = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let back = tracer.span("codec.binary.decode", request, || {
        wire::decode_response(&frame)
    });
    let bin_dec = t.elapsed().as_nanos() as f64;
    assert_eq!(back.as_ref(), Ok(page), "binary codec round-trips the page");

    // On the wire: a JSON line ends in '\n'; a binary frame has a 4-byte
    // length prefix.
    for (i, (enc, dec, bytes)) in [
        (json_enc, json_dec, line.len() + 1),
        (bin_enc, bin_dec, frame.len() + 4),
    ]
    .into_iter()
    .enumerate()
    {
        let c = &mut s.codec[i];
        c.encode_ns += enc;
        c.decode_ns += dec;
        c.bytes += bytes as u64;
        c.rows += rows;
    }
    (json_enc + json_dec + bin_enc + bin_dec) / 2.0 / 1e3
}

/// Scale-sweep result: log-log slopes against |D|.
pub struct Sweep {
    pub open_slope: f64,
    pub delay_p99_slope: f64,
    /// `(statement, |D|, open ms, delay p99 ns)` per point.
    pub points: Vec<(&'static str, usize, f64, f64)>,
}

/// Membership sizes and LDBC scale factors of the sweep.
const SWEEP: [(usize, usize); 4] = [(2_500, 1), (5_000, 2), (10_000, 3), (20_000, 5)];
/// Answers timed per sweep point.
const SWEEP_ANSWERS: usize = 2_000;
/// Opens per sweep point (the median is kept).
const SWEEP_OPENS: usize = 3;

/// Open the deep-scroll statements at four seeded sizes; the reported
/// slopes are the medians over statements.
pub fn scale_sweep(seed: u64, divisor: usize, ctx: &ExecContext) -> Sweep {
    let weights = WeightAssignment::value_as_weight();
    let mut points = Vec::new();
    for (i, &(memberships, ldbc_scale)) in SWEEP.iter().enumerate() {
        let sizes = Sizes {
            memberships: (memberships / divisor).max(60),
            cycle_memberships: 0,
            ldbc_scale,
        };
        let data = Data::generate(sizes, seed ^ (0x5EE9 + i as u64));
        for &shape in &Shape::DEEP {
            let db = data.db(shape.db());
            let rows = match shape.db() {
                DBLP => sizes.memberships,
                LDBC => db.relation("Knows").map_or(0, |r| r.len()),
                _ => db.size(),
            };
            let sql = shape.sql(None);
            let plan = re_sql::plan(&re_sql::parse(&sql).expect("parse"), db).expect("plan");
            let mut opens = Vec::new();
            let mut delays = Vec::new();
            for _ in 0..SWEEP_OPENS {
                let t = Instant::now();
                let mut cursor = QueryCursor::open_ctx(db, &weights, &plan, ctx).expect("open");
                opens.push(us(t) / 1e3);
                if delays.is_empty() {
                    cursor.fetch(1);
                    for _ in 1..SWEEP_ANSWERS {
                        let t = Instant::now();
                        if cursor.fetch(1).is_empty() {
                            break;
                        }
                        delays.push(t.elapsed().as_nanos() as f64);
                    }
                }
            }
            points.push((
                shape.label(),
                rows,
                median(&mut opens),
                quantile(&mut delays, 0.99),
            ));
        }
    }
    let slope_of = |pick: fn(&(&'static str, usize, f64, f64)) -> f64| {
        let mut slopes: Vec<f64> = Shape::DEEP
            .iter()
            .map(|shape| {
                let pts: Vec<(f64, f64)> = points
                    .iter()
                    .filter(|p| p.0 == shape.label())
                    .map(|p| (p.1 as f64, pick(p)))
                    .collect();
                log_log_slope(&pts)
            })
            .collect();
        median(&mut slopes)
    };
    Sweep {
        open_slope: slope_of(|p| p.2),
        delay_p99_slope: slope_of(|p| p.3),
        points,
    }
}
