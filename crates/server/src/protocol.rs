//! The JSON-lines wire protocol.
//!
//! One request per line, one response per line, UTF-8, no framing beyond
//! `\n`. Requests are objects with a `"cmd"` discriminator; responses carry
//! `"ok"` plus a `"type"` discriminator. The session commands implement the
//! resumable-cursor lifecycle:
//!
//! ```text
//! → {"cmd":"open","db":"dblp","sql":"SELECT DISTINCT ... LIMIT 100"}
//! ← {"ok":true,"type":"opened","session":7,"columns":["a1","a2"],
//!    "algorithm":"acyclic","plan_cached":false}
//! → {"cmd":"fetch","session":7,"k":10}
//! ← {"ok":true,"type":"page","rows":[[1,2],...],"exhausted":false}
//! → {"cmd":"close","session":7}
//! ← {"ok":true,"type":"closed","existed":true}
//! ```
//!
//! plus one-shot `query`, and the `stats` / `catalog` / `ping` endpoints.

use crate::json::{obj, Json};
use rankedenum_core::StatsSnapshot;
use re_storage::Tuple;

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open a resumable cursor on `sql` against catalog database `db`.
    Open {
        /// Catalog name of the database.
        db: String,
        /// The SQL statement.
        sql: String,
        /// Optional per-request deadline in milliseconds, measured from
        /// dispatch. Overrides the server's configured default; the open
        /// (including preprocessing) and every later fetch on the session
        /// abort cooperatively once it passes.
        deadline_millis: Option<u64>,
    },
    /// Fetch the next page of up to `k` answers from a session.
    Fetch {
        /// Session id returned by `Open`.
        session: u64,
        /// Maximum page size.
        k: u64,
    },
    /// Close a session, releasing its cursor.
    Close {
        /// Session id.
        session: u64,
    },
    /// Cancel a session cooperatively: a parked cursor is dropped at
    /// once; a cursor mid-fetch trips its cancel token and unwinds at the
    /// next morsel boundary. Later fetches report a typed `cancelled`
    /// error on the owning cursor.
    Cancel {
        /// Session id.
        session: u64,
    },
    /// One-shot execution (open + drain + close in one request).
    Query {
        /// Catalog name of the database.
        db: String,
        /// The SQL statement.
        sql: String,
    },
    /// Render the statement's plan as a stable text tree without running
    /// it (`analyze: false`), or execute it and annotate the plan with
    /// the actual per-operator counters (`analyze: true`). An `EXPLAIN`
    /// / `EXPLAIN ANALYZE` prefix written in the SQL itself takes
    /// precedence over the flag.
    Explain {
        /// Catalog name of the database.
        db: String,
        /// The SQL statement (with or without an `EXPLAIN` prefix).
        sql: String,
        /// Whether to execute the statement and report actuals.
        analyze: bool,
    },
    /// Server-wide metrics.
    Stats,
    /// Prometheus text-format exposition of counters, spans and latency
    /// histograms.
    Metrics,
    /// List the catalog.
    Catalog,
    /// Liveness check.
    Ping,
}

impl Request {
    /// Decode a request line.
    pub fn decode(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let cmd = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `cmd`".to_string())?;
        let str_field = |name: &str| -> Result<String, String> {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{cmd}` needs a string `{name}`"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{cmd}` needs an unsigned integer `{name}`"))
        };
        let bool_field = |name: &str| -> Result<bool, String> {
            json.get(name)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("`{cmd}` needs a boolean `{name}`"))
        };
        match cmd {
            "open" => Ok(Request::Open {
                db: str_field("db")?,
                sql: str_field("sql")?,
                // Optional — absent means "use the server default"; when
                // present it must be an unsigned integer.
                deadline_millis: match json.get("deadline_millis") {
                    None => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        "`open` needs an unsigned integer `deadline_millis`".to_string()
                    })?),
                },
            }),
            "fetch" => Ok(Request::Fetch {
                session: u64_field("session")?,
                k: u64_field("k")?,
            }),
            "close" => Ok(Request::Close {
                session: u64_field("session")?,
            }),
            "cancel" => Ok(Request::Cancel {
                session: u64_field("session")?,
            }),
            "query" => Ok(Request::Query {
                db: str_field("db")?,
                sql: str_field("sql")?,
            }),
            "explain" => Ok(Request::Explain {
                db: str_field("db")?,
                sql: str_field("sql")?,
                analyze: bool_field("analyze")?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "catalog" => Ok(Request::Catalog),
            "ping" => Ok(Request::Ping),
            other => Err(format!("unknown command `{other}`")),
        }
    }

    /// Encode the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let json = match self {
            Request::Open {
                db,
                sql,
                deadline_millis,
            } => {
                let mut fields = vec![
                    ("cmd", Json::Str("open".into())),
                    ("db", Json::Str(db.clone())),
                    ("sql", Json::Str(sql.clone())),
                ];
                if let Some(ms) = deadline_millis {
                    fields.push(("deadline_millis", Json::UInt(*ms)));
                }
                obj(fields)
            }
            Request::Fetch { session, k } => obj([
                ("cmd", Json::Str("fetch".into())),
                ("session", Json::UInt(*session)),
                ("k", Json::UInt(*k)),
            ]),
            Request::Close { session } => obj([
                ("cmd", Json::Str("close".into())),
                ("session", Json::UInt(*session)),
            ]),
            Request::Cancel { session } => obj([
                ("cmd", Json::Str("cancel".into())),
                ("session", Json::UInt(*session)),
            ]),
            Request::Query { db, sql } => obj([
                ("cmd", Json::Str("query".into())),
                ("db", Json::Str(db.clone())),
                ("sql", Json::Str(sql.clone())),
            ]),
            Request::Explain { db, sql, analyze } => obj([
                ("cmd", Json::Str("explain".into())),
                ("db", Json::Str(db.clone())),
                ("sql", Json::Str(sql.clone())),
                ("analyze", Json::Bool(*analyze)),
            ]),
            Request::Stats => obj([("cmd", Json::Str("stats".into()))]),
            Request::Metrics => obj([("cmd", Json::Str("metrics".into()))]),
            Request::Catalog => obj([("cmd", Json::Str("catalog".into()))]),
            Request::Ping => obj([("cmd", Json::Str("ping".into()))]),
        };
        json.to_string()
    }
}

/// Counters of one shared-pool worker slot, as carried by the `stats`
/// endpoint. The last entry of [`StatsReport::per_worker`] is the caller
/// slot (threads helping a batch to completion) — see the exec pool's
/// `WorkerStat`. Skew across entries is the signal the aggregate hides.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerCounters {
    /// Tasks this worker executed to completion.
    pub tasks: u64,
    /// Tasks this worker took from another worker's deque.
    pub steals: u64,
    /// Microseconds this worker spent inside task bodies.
    pub busy_micros: u64,
}

/// Transport-level counters of the TCP front-end, as carried by the
/// `stats` endpoint. All zero while only the in-process client is used;
/// populated by whichever front-end (reactor or thread-per-connection)
/// serves the instance. The reactor's defining property is visible here:
/// `epoll_waits` and `wakeups` stand still while every connection is
/// idle — parked sessions cost no periodic polling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Times the reactor's poll wait returned (with at least one event
    /// or a wakeup; an idle reactor does not tick this).
    pub epoll_waits: u64,
    /// Wakeup-pipe signals the reactor consumed (worker completions and
    /// shutdown).
    pub wakeups: u64,
    /// Request bytes read off accepted connections.
    pub bytes_in: u64,
    /// Response bytes written to accepted connections.
    pub bytes_out: u64,
    /// Connections accepted since start.
    pub conns_accepted: u64,
    /// Connections that ended with a peer EOF/reset (as opposed to
    /// server shutdown).
    pub disconnects: u64,
}

/// Server-wide counters reported by the `stats` endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReport {
    /// Sessions currently live.
    pub sessions_open: u64,
    /// Sessions opened since the server started.
    pub sessions_opened: u64,
    /// Sessions reaped by eviction (idle TTL + memory budget).
    pub sessions_evicted: u64,
    /// Sessions evicted specifically to enforce the memory budget (a
    /// subset of `sessions_evicted`).
    pub sessions_evicted_budget: u64,
    /// Sessions evicted by the idle TTL sweep (the remainder:
    /// `sessions_evicted - sessions_evicted_budget`).
    pub sessions_evicted_idle: u64,
    /// Configured parked-memory budget in bytes (`0` = unlimited).
    pub session_budget_bytes: u64,
    /// Frontier bytes currently retained by parked sessions.
    pub session_bytes_parked: u64,
    /// Cursors opened — one enumerator each, whether its prepared part
    /// was built for it or reused from the plan cache (so this equals the
    /// OPENs and QUERYs that got a cursor). Preprocessing passes are
    /// `prepared_built`.
    pub enumerators_built: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (statements planned from scratch).
    pub plan_cache_misses: u64,
    /// Plans currently cached.
    pub plan_cache_size: u64,
    /// Preprocessing passes run by OPEN/QUERY (cursors opened without a
    /// cached prepared artifact).
    pub prepared_built: u64,
    /// Cursors opened on a cached prepared artifact (no preprocessing).
    pub prepared_reused: u64,
    /// Bytes of the prepared artifacts the plan cache currently holds.
    pub prepared_bytes: u64,
    /// Prepared artifacts dropped from the plan cache (byte cap, LRU
    /// eviction of their plan, or a purge after re-registration).
    pub prepared_evicted: u64,
    /// Threads of the shared preprocessing pool (1 = serial).
    pub exec_pool_threads: u64,
    /// Shape of the most recent GHD plan chosen for a cyclic statement,
    /// annotated with the fallback reason when selection degraded to a
    /// single full-materialisation bag. Empty until a cyclic query runs.
    pub ghd_last_plan: String,
    /// Enumeration work aggregated across all workers and sessions,
    /// including the shared pool's parallel-preprocessing counters
    /// (`pool_tasks` / `pool_steals` / `pool_busy_micros`) and the
    /// robustness outcomes (`requests_shed` / `deadline_exceeded` /
    /// `cancelled` / `faults_injected`).
    pub enumeration: StatsSnapshot,
    /// Transport-level counters of the TCP front-end (zero when only the
    /// in-process client is used).
    pub transport: TransportCounters,
    /// Per-worker slices of the pool counters: one entry per pool worker
    /// plus a trailing caller slot; empty when preprocessing is serial.
    pub per_worker: Vec<WorkerCounters>,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A session was opened.
    Opened {
        /// The session id for subsequent `Fetch`/`Close` requests.
        session: u64,
        /// Output column names.
        columns: Vec<String>,
        /// Label of the enumeration strategy the plan selected.
        algorithm: String,
        /// Whether the plan came from the plan cache.
        plan_cached: bool,
    },
    /// A page of answers.
    Page {
        /// Up to `k` rows, in rank order.
        rows: Vec<Tuple>,
        /// Whether the enumeration is complete.
        exhausted: bool,
    },
    /// A session was closed.
    Closed {
        /// Whether the session existed.
        existed: bool,
    },
    /// A `Cancel` was processed.
    Cancelled {
        /// Whether the session existed (parked or mid-fetch) when the
        /// cancel arrived.
        existed: bool,
    },
    /// A one-shot result.
    Result {
        /// Output column names.
        columns: Vec<String>,
        /// All rows, in rank order (bounded by the statement's LIMIT).
        rows: Vec<Tuple>,
        /// Label of the enumeration strategy the plan selected.
        algorithm: String,
        /// Whether the plan came from the plan cache.
        plan_cached: bool,
    },
    /// The rendered plan text of an `Explain` request.
    Explained {
        /// The stable text tree (`EXPLAIN` header, plan structure, and —
        /// under `ANALYZE` — the execution section with actual counters).
        text: String,
    },
    /// Server-wide metrics.
    Stats(Box<StatsReport>),
    /// Prometheus text-format metrics exposition.
    Metrics {
        /// The exposition body (`# HELP`/`# TYPE` comments and samples).
        body: String,
    },
    /// The catalog listing.
    Catalog {
        /// Names of the registered databases, sorted.
        databases: Vec<String>,
    },
    /// Liveness answer.
    Pong,
    /// Any failure.
    Error {
        /// Human-readable reason.
        message: String,
        /// Machine-readable classification: `"overloaded"`,
        /// `"deadline_exceeded"`, `"cancelled"`, `"fault"`, or empty for
        /// an unclassified failure (bad SQL, unknown session, ...).
        code: String,
        /// For `"overloaded"` errors: a hint, in milliseconds, of how
        /// long the client should back off before retrying.
        retry_after_millis: Option<u64>,
    },
}

fn rows_to_json(rows: &[Tuple]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| Json::Arr(row.iter().map(|&v| Json::UInt(v)).collect()))
            .collect(),
    )
}

fn rows_from_json(json: &Json) -> Result<Vec<Tuple>, String> {
    json.as_arr()
        .ok_or_else(|| "`rows` must be an array".to_string())?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| "row must be an array".to_string())?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| "row values must be unsigned".to_string())
                })
                .collect()
        })
        .collect()
}

fn workers_to_json(workers: &[WorkerCounters]) -> Json {
    Json::Arr(
        workers
            .iter()
            .map(|w| {
                Json::Arr(vec![
                    Json::UInt(w.tasks),
                    Json::UInt(w.steals),
                    Json::UInt(w.busy_micros),
                ])
            })
            .collect(),
    )
}

fn workers_from_json(json: &Json) -> Result<Vec<WorkerCounters>, String> {
    json.as_arr()
        .ok_or_else(|| "`per_worker` must be an array".to_string())?
        .iter()
        .map(|entry| {
            let triple = entry.as_arr().filter(|t| t.len() == 3).ok_or_else(|| {
                "per-worker entry must be [tasks, steals, busy_micros]".to_string()
            })?;
            let field = |i: usize| {
                triple[i]
                    .as_u64()
                    .ok_or_else(|| "per-worker counters must be unsigned".to_string())
            };
            Ok(WorkerCounters {
                tasks: field(0)?,
                steals: field(1)?,
                busy_micros: field(2)?,
            })
        })
        .collect()
}

fn strings_to_json(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn strings_from_json(json: &Json, what: &str) -> Result<Vec<String>, String> {
    json.as_arr()
        .ok_or_else(|| format!("`{what}` must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{what}` must contain strings"))
        })
        .collect()
}

impl Response {
    /// An unclassified error response (no code, no retry hint).
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
            code: String::new(),
            retry_after_millis: None,
        }
    }

    /// An error response with a machine-readable `code`.
    pub fn error_coded(message: impl Into<String>, code: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
            code: code.into(),
            retry_after_millis: None,
        }
    }

    /// The typed `overloaded` error: the request was shed by admission
    /// control, with a back-off hint.
    pub fn overloaded(message: impl Into<String>, retry_after_millis: u64) -> Response {
        Response::Error {
            message: message.into(),
            code: "overloaded".into(),
            retry_after_millis: Some(retry_after_millis),
        }
    }

    /// Encode the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let json = match self {
            Response::Opened {
                session,
                columns,
                algorithm,
                plan_cached,
            } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("opened".into())),
                ("session", Json::UInt(*session)),
                ("columns", strings_to_json(columns)),
                ("algorithm", Json::Str(algorithm.clone())),
                ("plan_cached", Json::Bool(*plan_cached)),
            ]),
            Response::Page { rows, exhausted } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("page".into())),
                ("rows", rows_to_json(rows)),
                ("exhausted", Json::Bool(*exhausted)),
            ]),
            Response::Closed { existed } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("closed".into())),
                ("existed", Json::Bool(*existed)),
            ]),
            Response::Cancelled { existed } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("cancelled".into())),
                ("existed", Json::Bool(*existed)),
            ]),
            Response::Result {
                columns,
                rows,
                algorithm,
                plan_cached,
            } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("result".into())),
                ("columns", strings_to_json(columns)),
                ("rows", rows_to_json(rows)),
                ("algorithm", Json::Str(algorithm.clone())),
                ("plan_cached", Json::Bool(*plan_cached)),
            ]),
            Response::Stats(report) => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("stats".into())),
                ("sessions_open", Json::UInt(report.sessions_open)),
                ("sessions_opened", Json::UInt(report.sessions_opened)),
                ("sessions_evicted", Json::UInt(report.sessions_evicted)),
                (
                    "sessions_evicted_budget",
                    Json::UInt(report.sessions_evicted_budget),
                ),
                (
                    "sessions_evicted_idle",
                    Json::UInt(report.sessions_evicted_idle),
                ),
                (
                    "session_budget_bytes",
                    Json::UInt(report.session_budget_bytes),
                ),
                (
                    "session_bytes_parked",
                    Json::UInt(report.session_bytes_parked),
                ),
                ("enumerators_built", Json::UInt(report.enumerators_built)),
                ("plan_cache_hits", Json::UInt(report.plan_cache_hits)),
                ("plan_cache_misses", Json::UInt(report.plan_cache_misses)),
                ("plan_cache_size", Json::UInt(report.plan_cache_size)),
                ("prepared_built", Json::UInt(report.prepared_built)),
                ("prepared_reused", Json::UInt(report.prepared_reused)),
                ("prepared_bytes", Json::UInt(report.prepared_bytes)),
                ("prepared_evicted", Json::UInt(report.prepared_evicted)),
                ("exec_pool_threads", Json::UInt(report.exec_pool_threads)),
                ("ghd_last_plan", Json::Str(report.ghd_last_plan.clone())),
                ("pq_pushes", Json::UInt(report.enumeration.pq_pushes)),
                ("pq_pops", Json::UInt(report.enumeration.pq_pops)),
                (
                    "cells_created",
                    Json::UInt(report.enumeration.cells_created),
                ),
                ("cells_reused", Json::UInt(report.enumeration.cells_reused)),
                ("answers", Json::UInt(report.enumeration.answers)),
                ("tuple_allocs", Json::UInt(report.enumeration.tuple_allocs)),
                (
                    "frontier_bytes",
                    Json::UInt(report.enumeration.frontier_bytes),
                ),
                (
                    "frontier_peak_bytes",
                    Json::UInt(report.enumeration.frontier_peak_bytes),
                ),
                ("ghd_bags", Json::UInt(report.enumeration.ghd_bags)),
                (
                    "ghd_estimated_rows",
                    Json::UInt(report.enumeration.ghd_estimated_rows),
                ),
                (
                    "ghd_fallbacks",
                    Json::UInt(report.enumeration.ghd_fallbacks),
                ),
                (
                    "reduce_passes",
                    Json::UInt(report.enumeration.reduce_passes),
                ),
                (
                    "reduce_input_rows",
                    Json::UInt(report.enumeration.reduce_input_rows),
                ),
                (
                    "reduce_output_rows",
                    Json::UInt(report.enumeration.reduce_output_rows),
                ),
                ("pool_tasks", Json::UInt(report.enumeration.pool_tasks)),
                ("pool_steals", Json::UInt(report.enumeration.pool_steals)),
                (
                    "pool_busy_micros",
                    Json::UInt(report.enumeration.pool_busy_micros),
                ),
                (
                    "requests_shed",
                    Json::UInt(report.enumeration.requests_shed),
                ),
                (
                    "deadline_exceeded",
                    Json::UInt(report.enumeration.deadline_exceeded),
                ),
                ("cancelled", Json::UInt(report.enumeration.cancelled)),
                (
                    "faults_injected",
                    Json::UInt(report.enumeration.faults_injected),
                ),
                (
                    "reactor_epoll_waits",
                    Json::UInt(report.transport.epoll_waits),
                ),
                ("reactor_wakeups", Json::UInt(report.transport.wakeups)),
                ("reactor_bytes_in", Json::UInt(report.transport.bytes_in)),
                ("reactor_bytes_out", Json::UInt(report.transport.bytes_out)),
                (
                    "reactor_conns_accepted",
                    Json::UInt(report.transport.conns_accepted),
                ),
                (
                    "reactor_disconnects",
                    Json::UInt(report.transport.disconnects),
                ),
                ("per_worker", workers_to_json(&report.per_worker)),
            ]),
            Response::Explained { text } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("explained".into())),
                ("text", Json::Str(text.clone())),
            ]),
            Response::Metrics { body } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("metrics".into())),
                ("body", Json::Str(body.clone())),
            ]),
            Response::Catalog { databases } => obj([
                ("ok", Json::Bool(true)),
                ("type", Json::Str("catalog".into())),
                ("databases", strings_to_json(databases)),
            ]),
            Response::Pong => obj([("ok", Json::Bool(true)), ("type", Json::Str("pong".into()))]),
            Response::Error {
                message,
                code,
                retry_after_millis,
            } => {
                let mut fields = vec![
                    ("ok", Json::Bool(false)),
                    ("type", Json::Str("error".into())),
                    ("error", Json::Str(message.clone())),
                ];
                if !code.is_empty() {
                    fields.push(("code", Json::Str(code.clone())));
                }
                if let Some(ms) = retry_after_millis {
                    fields.push(("retry_after_millis", Json::UInt(*ms)));
                }
                obj(fields)
            }
        };
        json.to_string()
    }

    /// Decode a response line.
    pub fn decode(line: &str) -> Result<Response, String> {
        let json = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `type`".to_string())?;
        let u64_field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{kind}` response needs `{name}`"))
        };
        let bool_field = |name: &str| -> Result<bool, String> {
            json.get(name)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("`{kind}` response needs `{name}`"))
        };
        let str_field = |name: &str| -> Result<String, String> {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{kind}` response needs `{name}`"))
        };
        match kind {
            "opened" => Ok(Response::Opened {
                session: u64_field("session")?,
                columns: strings_from_json(
                    json.get("columns").ok_or("missing `columns`")?,
                    "columns",
                )?,
                algorithm: str_field("algorithm")?,
                plan_cached: bool_field("plan_cached")?,
            }),
            "page" => Ok(Response::Page {
                rows: rows_from_json(json.get("rows").ok_or("missing `rows`")?)?,
                exhausted: bool_field("exhausted")?,
            }),
            "closed" => Ok(Response::Closed {
                existed: bool_field("existed")?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                existed: bool_field("existed")?,
            }),
            "result" => Ok(Response::Result {
                columns: strings_from_json(
                    json.get("columns").ok_or("missing `columns`")?,
                    "columns",
                )?,
                rows: rows_from_json(json.get("rows").ok_or("missing `rows`")?)?,
                algorithm: str_field("algorithm")?,
                plan_cached: bool_field("plan_cached")?,
            }),
            "stats" => Ok(Response::Stats(Box::new(StatsReport {
                sessions_open: u64_field("sessions_open")?,
                sessions_opened: u64_field("sessions_opened")?,
                sessions_evicted: u64_field("sessions_evicted")?,
                sessions_evicted_budget: u64_field("sessions_evicted_budget")?,
                sessions_evicted_idle: u64_field("sessions_evicted_idle")?,
                session_budget_bytes: u64_field("session_budget_bytes")?,
                session_bytes_parked: u64_field("session_bytes_parked")?,
                enumerators_built: u64_field("enumerators_built")?,
                plan_cache_hits: u64_field("plan_cache_hits")?,
                plan_cache_misses: u64_field("plan_cache_misses")?,
                plan_cache_size: u64_field("plan_cache_size")?,
                prepared_built: u64_field("prepared_built")?,
                prepared_reused: u64_field("prepared_reused")?,
                prepared_bytes: u64_field("prepared_bytes")?,
                prepared_evicted: u64_field("prepared_evicted")?,
                exec_pool_threads: u64_field("exec_pool_threads")?,
                ghd_last_plan: str_field("ghd_last_plan")?,
                enumeration: StatsSnapshot {
                    pq_pushes: u64_field("pq_pushes")?,
                    pq_pops: u64_field("pq_pops")?,
                    cells_created: u64_field("cells_created")?,
                    cells_reused: u64_field("cells_reused")?,
                    answers: u64_field("answers")?,
                    tuple_allocs: u64_field("tuple_allocs")?,
                    frontier_bytes: u64_field("frontier_bytes")?,
                    frontier_peak_bytes: u64_field("frontier_peak_bytes")?,
                    ghd_bags: u64_field("ghd_bags")?,
                    ghd_estimated_rows: u64_field("ghd_estimated_rows")?,
                    ghd_fallbacks: u64_field("ghd_fallbacks")?,
                    reduce_passes: u64_field("reduce_passes")?,
                    reduce_input_rows: u64_field("reduce_input_rows")?,
                    reduce_output_rows: u64_field("reduce_output_rows")?,
                    pool_tasks: u64_field("pool_tasks")?,
                    pool_steals: u64_field("pool_steals")?,
                    pool_busy_micros: u64_field("pool_busy_micros")?,
                    requests_shed: u64_field("requests_shed")?,
                    deadline_exceeded: u64_field("deadline_exceeded")?,
                    cancelled: u64_field("cancelled")?,
                    faults_injected: u64_field("faults_injected")?,
                },
                // Absent on pre-reactor stats lines; default to zero so
                // old captures keep decoding.
                transport: {
                    let opt = |name: &str| json.get(name).and_then(Json::as_u64).unwrap_or(0);
                    TransportCounters {
                        epoll_waits: opt("reactor_epoll_waits"),
                        wakeups: opt("reactor_wakeups"),
                        bytes_in: opt("reactor_bytes_in"),
                        bytes_out: opt("reactor_bytes_out"),
                        conns_accepted: opt("reactor_conns_accepted"),
                        disconnects: opt("reactor_disconnects"),
                    }
                },
                per_worker: workers_from_json(
                    json.get("per_worker").ok_or("missing `per_worker`")?,
                )?,
            }))),
            "explained" => Ok(Response::Explained {
                text: str_field("text")?,
            }),
            "metrics" => Ok(Response::Metrics {
                body: str_field("body")?,
            }),
            "catalog" => Ok(Response::Catalog {
                databases: strings_from_json(
                    json.get("databases").ok_or("missing `databases`")?,
                    "databases",
                )?,
            }),
            "pong" => Ok(Response::Pong),
            "error" => Ok(Response::Error {
                message: str_field("error")?,
                code: json
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                retry_after_millis: json.get("retry_after_millis").and_then(Json::as_u64),
            }),
            other => Err(format!("unknown response type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Open {
                db: "dblp".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a LIMIT 5".into(),
                deadline_millis: None,
            },
            Request::Open {
                db: "dblp".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a LIMIT 5".into(),
                deadline_millis: Some(1500),
            },
            Request::Fetch { session: 7, k: 10 },
            Request::Close { session: 7 },
            Request::Cancel { session: 9 },
            Request::Query {
                db: "d".into(),
                sql: "SELECT DISTINCT a FROM T".into(),
            },
            Request::Explain {
                db: "d".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a".into(),
                analyze: true,
            },
            Request::Stats,
            Request::Metrics,
            Request::Catalog,
            Request::Ping,
        ] {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Opened {
                session: 3,
                columns: vec!["a1".into(), "a2".into()],
                algorithm: "acyclic".into(),
                plan_cached: true,
            },
            Response::Page {
                rows: vec![vec![1, 2], vec![3, 4]],
                exhausted: false,
            },
            Response::Closed { existed: true },
            Response::Cancelled { existed: true },
            Response::Cancelled { existed: false },
            Response::Result {
                columns: vec!["x".into()],
                rows: vec![vec![9]],
                algorithm: "union-merge".into(),
                plan_cached: false,
            },
            Response::Stats(Box::new(StatsReport {
                sessions_open: 1,
                sessions_opened: 2,
                sessions_evicted: 3,
                sessions_evicted_budget: 17,
                sessions_evicted_idle: 26,
                session_budget_bytes: 18,
                session_bytes_parked: 19,
                enumerators_built: 4,
                plan_cache_hits: 5,
                plan_cache_misses: 6,
                plan_cache_size: 7,
                prepared_built: 31,
                prepared_reused: 32,
                prepared_bytes: 33,
                prepared_evicted: 34,
                exec_pool_threads: 8,
                ghd_last_plan: "cycle-split(0,3) over 6 atoms".into(),
                enumeration: StatsSnapshot {
                    pq_pushes: 9,
                    pq_pops: 10,
                    cells_created: 11,
                    cells_reused: 16,
                    answers: 12,
                    tuple_allocs: 20,
                    frontier_bytes: 21,
                    frontier_peak_bytes: 22,
                    ghd_bags: 23,
                    ghd_estimated_rows: 24,
                    ghd_fallbacks: 25,
                    reduce_passes: 27,
                    reduce_input_rows: 28,
                    reduce_output_rows: 29,
                    pool_tasks: 13,
                    pool_steals: 14,
                    pool_busy_micros: 15,
                    requests_shed: 35,
                    deadline_exceeded: 36,
                    cancelled: 37,
                    faults_injected: 38,
                },
                transport: TransportCounters {
                    epoll_waits: 39,
                    wakeups: 40,
                    bytes_in: 41,
                    bytes_out: 42,
                    conns_accepted: 43,
                    disconnects: 44,
                },
                per_worker: vec![
                    WorkerCounters {
                        tasks: 30,
                        steals: 31,
                        busy_micros: 32,
                    },
                    WorkerCounters {
                        tasks: 33,
                        steals: 0,
                        busy_micros: 34,
                    },
                ],
            })),
            Response::Explained {
                text: "EXPLAIN\nstatement: join-project (2 atoms)\n".into(),
            },
            Response::Metrics {
                body: "# TYPE re_sessions_open gauge\nre_sessions_open 1\n".into(),
            },
            Response::Catalog {
                databases: vec!["a".into(), "b".into()],
            },
            Response::Pong,
            Response::Error {
                message: "boom".into(),
                code: String::new(),
                retry_after_millis: None,
            },
            Response::Error {
                message: "too busy".into(),
                code: "overloaded".into(),
                retry_after_millis: Some(250),
            },
            Response::Error {
                message: "query deadline exceeded".into(),
                code: "deadline_exceeded".into(),
                retry_after_millis: None,
            },
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn error_code_and_retry_hint_are_optional_on_the_wire() {
        // Old-style error lines (no `code`, no `retry_after_millis`)
        // still decode — the fields default to unclassified.
        let decoded =
            Response::decode("{\"ok\":false,\"type\":\"error\",\"error\":\"boom\"}").unwrap();
        assert_eq!(decoded, Response::error("boom"));
        // And the unclassified encoding omits the optional fields.
        assert!(!Response::error("boom").encode().contains("code"));
        assert!(
            Response::overloaded("busy", 40)
                .encode()
                .contains("\"retry_after_millis\":40"),
            "the back-off hint rides on overloaded errors"
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{\"cmd\":\"nope\"}").is_err());
        assert!(Request::decode("{\"cmd\":\"fetch\",\"session\":1}").is_err());
        assert!(Request::decode("{\"cmd\":\"open\",\"db\":\"d\"}").is_err());
        assert!(Request::decode("{\"cmd\":\"cancel\"}").is_err());
        // `deadline_millis`, when present, must be an unsigned integer.
        assert!(Request::decode(
            "{\"cmd\":\"open\",\"db\":\"d\",\"sql\":\"s\",\"deadline_millis\":\"soon\"}"
        )
        .is_err());
        // `explain` needs a boolean `analyze`, not a number.
        assert!(Request::decode("{\"cmd\":\"explain\",\"db\":\"d\",\"sql\":\"s\"}").is_err());
        assert!(
            Request::decode("{\"cmd\":\"explain\",\"db\":\"d\",\"sql\":\"s\",\"analyze\":1}")
                .is_err()
        );
    }
}
