//! Set-up and the closed-loop client drive over the reactor transport.
//!
//! Client 0 speaks JSON lines and client 1 the binary protocol. Each client
//! waits for every reply and has no think time. A client runs whole rounds
//! of its seeded script (every shape of the workload once per round) until
//! the measurement window has passed, so every run measures the same
//! statement mix.

use crate::check;
use crate::spans::{Span, Tracer};
use crate::workload::{
    script_statement, warmup_statements, Anchors, Data, Shape, Sizes, Statement, Workload,
};
use re_server::{
    serve_reactor, ClientError, RankedQueryServer, ServerConfig, ServerHandle, ServerTransport,
    TcpClient, Transport, WireProtocol,
};
use re_storage::Tuple;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// The server under test. Every field that would otherwise default from
/// an `RE_*` environment variable is set here.
pub fn server_config() -> ServerConfig {
    #[allow(clippy::needless_update)]
    ServerConfig {
        workers: 2,
        transport: ServerTransport::Reactor,
        session_ttl: Duration::from_secs(300),
        plan_cache_capacity: 128,
        exec_threads: 2,
        session_budget_bytes: 0,
        slow_query_millis: 0,
        trace_sample: 0,
        max_inflight: 64,
        max_pipeline: 32,
        shed_pool_queue: 0,
        default_deadline_millis: 0,
        ..ServerConfig::default()
    }
}

/// A served workload: data, server and bound reactor.
pub struct Served {
    /// The generated databases (also the oracle's input).
    pub data: Data,
    /// `topk_unique`'s anchor sequences.
    pub anchors: Option<Anchors>,
    /// The server instance behind the reactor.
    pub server: Arc<RankedQueryServer>,
    /// The running reactor.
    pub handle: ServerHandle,
}

/// Set up one workload: generate the data, register it, bind the reactor
/// and warm it with one OPEN (and CLOSE) per statement of the mix.
pub fn set_up(workload: Workload, sizes: Sizes, seed: u64) -> Served {
    let data = Data::generate(sizes, seed);
    let anchors = (workload == Workload::TopkUnique).then(|| Anchors::draw(&data, seed));
    let config = server_config();
    let server = RankedQueryServer::new(config.clone());
    for (name, db) in &data.dbs {
        server.catalog().register_shared(*name, Arc::clone(db));
    }
    let handle =
        serve_reactor(Arc::clone(&server), "127.0.0.1:0", &config).expect("bind the reactor");
    let mut client = TcpClient::connect_json(handle.addr()).expect("connect for warm-up");
    for stmt in warmup_statements(workload, anchors.as_ref()) {
        let opened = client
            .open(stmt.shape.db(), &stmt.sql())
            .unwrap_or_else(|e| panic!("warm-up OPEN of {} failed: {e}", stmt.shape.label()));
        client.close(opened.session).expect("warm-up CLOSE");
    }
    Served {
        data,
        anchors,
        server,
        handle,
    }
}

/// The answers one client saw for one statement. Sessions of a statement
/// that repeat the first session's stream exactly are only counted; a
/// stream that differs is kept for its own check.
pub struct Recorded {
    /// The statement's algorithm label, as OPEN reported it.
    pub algorithm: String,
    /// The first session's answers.
    pub rows: Vec<Tuple>,
    /// Whether that session's cursor reported exhaustion.
    pub exhausted: bool,
    /// Sessions whose stream equalled `rows` (the first included).
    pub sessions: u64,
    /// Streams that differed from the first session's.
    pub divergent: Vec<(Vec<Tuple>, bool)>,
}

/// What one client measured and recorded.
#[derive(Default)]
pub struct ClientRun {
    /// OPEN send → reply, microseconds, by statement shape.
    pub open_us: Samples,
    /// OPEN send → first page received, microseconds, by shape.
    pub first_page_us: Samples,
    /// FETCH send → reply, microseconds, by shape.
    pub fetch_us: Samples,
    /// Sessions completed.
    pub sessions: u64,
    /// Answers received.
    pub answers: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// First failure, for the report.
    pub first_error: Option<String>,
    /// Every completed script round, in order.
    pub rounds: Vec<Round>,
    /// Answer streams by statement.
    pub streams: BTreeMap<Statement, Recorded>,
    /// Spans (traced drives only).
    pub spans: Vec<Span>,
}

/// Latency samples keyed by the statement shape they belong to: `(send
/// time in seconds since the drive started, latency)`.
pub type Samples = BTreeMap<Shape, Vec<(f64, f64)>>;

/// One completed round of a client's script.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Wall time of the round.
    pub secs: f64,
    /// Sessions completed in it.
    pub sessions: u64,
    /// Answers received in it.
    pub answers: u64,
    /// Whether its requests were traced.
    pub traced: bool,
}

impl ClientRun {
    fn fail(&mut self, e: &ClientError) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e.to_string());
        }
    }
}

/// How long and how far the clients run.
pub struct Window {
    /// Clients start no new round after this much time.
    pub seconds: f64,
    /// Record client-side spans around every request of every odd round
    /// (even rounds stay untraced, so the two interleave in time).
    pub trace_odd_rounds: bool,
    /// Clients start no round at or past this one.
    pub last_round: usize,
}

/// Drive `CLIENTS` closed-loop clients against a served workload.
pub fn drive(served: &Served, workload: Workload, seed: u64, window: &Window) -> Vec<ClientRun> {
    let addr = served.handle.addr();
    let origin = Origin(Instant::now());
    let deadline = origin.0 + Duration::from_secs_f64(window.seconds);
    // A finite script for `topk_unique`: it ends when anchors run out.
    let max_rounds = served
        .anchors
        .as_ref()
        .map_or(usize::MAX, |a| a.rounds(CLIENTS))
        .min(window.last_round);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let anchors = served.anchors.as_ref();
                scope.spawn(move || {
                    let protocol = if client == 0 {
                        WireProtocol::Json
                    } else {
                        WireProtocol::Binary
                    };
                    let mut tracer = Tracer::new(client as u32, false);
                    let mut run = ClientRun::default();
                    let mut conn =
                        TcpClient::connect_with(addr, protocol).expect("client connects");
                    let mut round = 0;
                    while round < max_rounds && Instant::now() < deadline {
                        let traced = window.trace_odd_rounds && round % 2 == 1;
                        tracer.set_enabled(traced);
                        let round_start = Instant::now();
                        let (sessions_before, answers_before) = (run.sessions, run.answers);
                        for slot in 0..workload.shapes().len() {
                            let stmt = script_statement(
                                workload, anchors, seed, CLIENTS, client, round, slot,
                            );
                            let request = ((client as u64) << 48) | run.sessions;
                            session(
                                &mut conn,
                                workload,
                                stmt,
                                request,
                                origin,
                                &mut run,
                                &mut tracer,
                            );
                        }
                        run.rounds.push(Round {
                            secs: round_start.elapsed().as_secs_f64(),
                            sessions: run.sessions - sessions_before,
                            answers: run.answers - answers_before,
                            traced,
                        });
                        round += 1;
                    }
                    run.spans = tracer.into_spans();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The instant a drive started; samples are stamped relative to it.
#[derive(Clone, Copy)]
struct Origin(Instant);

impl Origin {
    fn secs(self, at: Instant) -> f64 {
        at.duration_since(self.0).as_secs_f64()
    }
}

/// One scripted session: OPEN, FETCH pages until the answer cap or
/// exhaustion, CLOSE.
fn session(
    conn: &mut TcpClient,
    workload: Workload,
    stmt: Statement,
    request: u64,
    origin: Origin,
    run: &mut ClientRun,
    tracer: &mut Tracer,
) {
    let sql = stmt.sql();
    tracer.begin("client.session", request);
    let t0 = Instant::now();
    run.attempted += 1;
    let opened = tracer.span("client.open", request, || conn.open(stmt.shape.db(), &sql));
    let opened = match opened {
        Ok(o) => o,
        Err(e) => {
            run.fail(&e);
            tracer.end();
            return;
        }
    };
    let opened_at = origin.secs(t0);
    let open_us = micros(t0.elapsed());
    run.open_us
        .entry(stmt.shape)
        .or_default()
        .push((opened_at, open_us));
    let mut rows: Vec<Tuple> = Vec::new();
    let mut exhausted = false;
    while rows.len() < workload.answer_cap() {
        run.attempted += 1;
        let sent = Instant::now();
        let page = tracer.span("client.fetch", request, || {
            conn.fetch(opened.session, workload.page_k())
        });
        match page {
            Ok(page) => {
                let us = micros(sent.elapsed());
                let sample = (origin.secs(sent), us);
                run.fetch_us.entry(stmt.shape).or_default().push(sample);
                if rows.is_empty() {
                    let sample = (opened_at, micros(t0.elapsed()));
                    run.first_page_us
                        .entry(stmt.shape)
                        .or_default()
                        .push(sample);
                }
                run.answers += page.rows.len() as u64;
                rows.extend(page.rows);
                if page.exhausted {
                    exhausted = true;
                    break;
                }
            }
            Err(e) => {
                run.fail(&e);
                break;
            }
        }
    }
    run.attempted += 1;
    if let Err(e) = tracer.span("client.close", request, || conn.close(opened.session)) {
        run.fail(&e);
    }
    tracer.end();
    run.sessions += 1;
    match run.streams.get_mut(&stmt) {
        Some(rec) if rec.rows == rows && rec.exhausted == exhausted => rec.sessions += 1,
        Some(rec) => rec.divergent.push((rows, exhausted)),
        None => {
            run.streams.insert(
                stmt,
                Recorded {
                    algorithm: opened.algorithm,
                    rows,
                    exhausted,
                    sessions: 1,
                    divergent: Vec::new(),
                },
            );
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The outcome of checking every recorded stream.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Pages that held a wrong answer (each counts as a failed operation).
    pub wrong_pages: u64,
    /// Distinct statements checked against the oracle.
    pub statements: usize,
    /// Human-readable descriptions of the first problems.
    pub problems: Vec<String>,
}

/// One recorded answer stream and the number of sessions that saw it.
struct Stream<'a> {
    rows: &'a [Tuple],
    exhausted: bool,
    sessions: u64,
}

/// Check every recorded stream: in-session order and distinctness, and the
/// whole fetched prefix against the oracle (one oracle per distinct
/// statement). A wrong stream counts its wrong pages once per session that
/// saw it.
pub fn verify(runs: &[ClientRun], data: &Data, workload: Workload) -> Verdict {
    let mut by_stmt: BTreeMap<Statement, Vec<Stream>> = BTreeMap::new();
    for run in runs {
        for (stmt, rec) in &run.streams {
            let entry = by_stmt.entry(*stmt).or_default();
            entry.push(Stream {
                rows: &rec.rows,
                exhausted: rec.exhausted,
                sessions: rec.sessions,
            });
            for (rows, exhausted) in &rec.divergent {
                entry.push(Stream {
                    rows,
                    exhausted: *exhausted,
                    sessions: 1,
                });
            }
        }
    }
    let page = workload.page_k() as usize;
    let mut verdict = Verdict::default();
    for (stmt, streams) in by_stmt {
        // The highest-ranked row fetched bounds the oracle, unless some
        // stream ran to exhaustion.
        let bound = if streams.iter().any(|s| s.exhausted) {
            None
        } else {
            streams
                .iter()
                .flat_map(|s| s.rows)
                .max_by_key(|r| check::key(stmt.shape, r))
                .map(|r| r.as_slice())
        };
        let oracle = check::oracle(&stmt, data, bound);
        verdict.statements += 1;
        for Stream {
            rows,
            exhausted,
            sessions,
        } in streams
        {
            let mut bad = check::order_violations(stmt.shape, rows);
            bad.extend(check::prefix_mismatch(stmt.shape, rows, &oracle, exhausted));
            let mut pages: Vec<usize> = bad.iter().map(|i| i / page).collect();
            pages.sort_unstable();
            pages.dedup();
            if !pages.is_empty() {
                verdict.wrong_pages += pages.len() as u64 * sessions;
                if verdict.problems.len() < 5 {
                    verdict.problems.push(format!(
                        "{} (anchor {:?}): wrong rows at {:?} of {} (oracle has {})",
                        stmt.shape.label(),
                        stmt.anchor,
                        &bad[..bad.len().min(5)],
                        rows.len(),
                        oracle.len()
                    ));
                }
            }
        }
    }
    verdict
}
