//! The ranked-query service: shared state, request dispatch, and the TCP
//! front-end with its worker pool.
//!
//! [`RankedQueryServer`] is plain shared state (`catalog` + `plan cache` +
//! `session table` + metrics) with one synchronous entry point,
//! [`RankedQueryServer::handle`] — the in-process client calls it directly,
//! and the TCP front-end calls it from a pool of worker threads. All
//! concurrency lives in the data structures: the catalog is an `RwLock`
//! map of `Arc<Database>`s, plans are cached behind `Arc`, sessions are
//! checked out of a mutex-protected table for the duration of one fetch,
//! and metrics are plain atomics — no lock is held while an enumerator
//! runs.

use crate::catalog::Catalog;
use crate::plan_cache::PlanCache;
use crate::protocol::{Request, Response, StatsReport, TransportCounters, WorkerCounters};
use crate::session::SessionTable;
use crate::wire::{self, InboundItem, Negotiation, WireProtocol};
use rankedenum_core::{
    machine_threads, CancelKind, CancelToken, ExecContext, SharedStats, StatsSnapshot, WorkerPool,
};
use re_obs::trace::TraceCtx;
use re_obs::{
    saturating_nanos, AtomicHistogram, FieldValue, LabeledMetric, MetricKind, ScalarMetric,
};
use re_sql::{ExplainMode, OwnedSqlExecutor, QueryCursor};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which TCP front-end [`serve`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServerTransport {
    /// The event-driven reactor: one epoll thread drives every
    /// connection's state machine and hands parsed requests to the
    /// worker pool; idle connections cost one buffer and no thread. The
    /// default.
    #[default]
    Reactor,
    /// The legacy thread-per-connection front-end: each pooled worker
    /// owns one connection until EOF (bounding concurrent connections at
    /// `workers`). Kept for comparison benchmarks and as a fallback.
    ThreadPerConn,
}

/// Tunables for a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads of the TCP front-end. Under the
    /// [`ServerTransport::Reactor`] front-end this sizes the dispatch
    /// pool (concurrent *requests*, connections are unbounded); under
    /// [`ServerTransport::ThreadPerConn`] it bounds concurrent
    /// *connections*.
    pub workers: usize,
    /// Which TCP front-end [`serve`] runs (reactor by default). Both
    /// speak JSON-lines and the binary protocol, negotiated per
    /// connection from its first bytes.
    pub transport: ServerTransport,
    /// Idle time after which a session's cursor is reaped.
    pub session_ttl: Duration,
    /// Maximum number of cached plans.
    pub plan_cache_capacity: usize,
    /// Threads of the shared preprocessing pool (`0`: size to the machine,
    /// `1`: serial preprocessing — no pool is spawned).
    pub exec_threads: usize,
    /// Maximum total frontier bytes parked sessions may retain
    /// (`0`: unlimited). When parking a cursor pushes the total over this
    /// budget, the heaviest idle sessions are evicted first (the
    /// just-parked session is never the victim); a later `FETCH` on an
    /// evicted id reports "evicted to enforce the session memory budget".
    pub session_budget_bytes: u64,
    /// OPENs whose preprocessing takes at least this many milliseconds
    /// are written to the slow-query log (a `warn`-level JSON line with
    /// the SQL, plan shape, algorithm and phase breakdown). `0` disables
    /// the log. Defaults to 500, overridable via `RE_SLOW_QUERY_MS`.
    pub slow_query_millis: u64,
    /// Trace one in every `trace_sample` OPENs as a request-scoped span
    /// tree (preprocessing phases, pool fan-out with worker attribution),
    /// retained in the global registry's trace ring for later export.
    /// `0` disables tracing. Defaults to the `RE_TRACE_SAMPLE`
    /// environment variable (itself defaulting to 0).
    pub trace_sample: u64,
    /// Admission control: maximum expensive requests (OPEN / FETCH /
    /// QUERY / EXPLAIN) in flight at once across all connections. Excess
    /// requests are shed with a typed `overloaded` error carrying a
    /// `retry_after_millis` back-off hint. Cheap requests (PING, STATS,
    /// METRICS, CATALOG, CLOSE, CANCEL) always pass, so health checks and
    /// cancels work *especially* under overload.
    pub max_inflight: u64,
    /// Per-connection pipeline cap: the most complete request lines one
    /// connection may have queued unanswered at once. Requests beyond
    /// the cap are answered — in order — with `overloaded`, keeping the
    /// connection usable.
    pub max_pipeline: usize,
    /// Load shedding: OPEN / QUERY requests are shed with `overloaded`
    /// while the shared preprocessing pool has more than this many tasks
    /// queued (`0` disables the signal).
    pub shed_pool_queue: usize,
    /// Default deadline, in milliseconds, applied to every OPEN / QUERY
    /// that does not carry its own `deadline_millis` (`0`: none).
    /// Defaults to the `RE_QUERY_DEADLINE_MS` environment variable
    /// (itself defaulting to 0).
    pub default_deadline_millis: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            transport: ServerTransport::default(),
            session_ttl: Duration::from_secs(300),
            plan_cache_capacity: 128,
            exec_threads: 0,
            session_budget_bytes: 0,
            slow_query_millis: std::env::var("RE_SLOW_QUERY_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(500),
            trace_sample: re_obs::trace::env_sample_rate(),
            max_inflight: 64,
            max_pipeline: 32,
            shed_pool_queue: 0,
            default_deadline_millis: std::env::var("RE_QUERY_DEADLINE_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }
    }
}

/// Transport-level counters, bumped by whichever TCP front-end serves
/// the instance and snapshotted into [`StatsReport::transport`]. Plain
/// relaxed atomics: every field is a monotone total.
#[derive(Default)]
pub(crate) struct TransportStats {
    pub(crate) epoll_waits: AtomicU64,
    pub(crate) wakeups: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) disconnects: AtomicU64,
}

impl TransportStats {
    pub(crate) fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> TransportCounters {
        TransportCounters {
            epoll_waits: self.epoll_waits.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
        }
    }
}

/// The shared state of the ranked-query service.
pub struct RankedQueryServer {
    catalog: Catalog,
    /// Plans and the prepared artifacts cached with them (shared with the
    /// catalog's listener, which purges a replaced database's entries).
    plan_cache: Arc<PlanCache>,
    sessions: SessionTable,
    /// Enumeration work aggregated across every worker and session.
    enum_stats: SharedStats,
    /// Cursors opened (every OPEN and QUERY that got a cursor).
    enumerators_built: AtomicU64,
    /// Preprocessing passes run for OPEN/QUERY (plan-cache artifact misses).
    prepared_built: AtomicU64,
    /// Cursors opened on a cached prepared artifact.
    prepared_reused: AtomicU64,
    /// Shape of the most recent GHD plan chosen for a cyclic statement
    /// (with its fallback annotation, if any); empty until one runs.
    ghd_last_plan: Mutex<String>,
    /// The shared preprocessing context: one machine-sized worker pool
    /// that every OPEN's full reducer and bag materialisation runs on, so
    /// concurrent sessions share the cores instead of each preprocessing
    /// serially. `None` pool (exec_threads = 1) means serial preprocessing.
    exec: ExecContext,
    /// Slow-query threshold in milliseconds (`0`: disabled).
    slow_query_millis: u64,
    /// Admission control: expensive requests currently in flight, and the
    /// cap beyond which new ones are shed.
    inflight: AtomicU64,
    max_inflight: u64,
    /// Load-shedding threshold on the shared pool's queue depth
    /// (`0`: signal disabled).
    shed_pool_queue: usize,
    /// Default OPEN/QUERY deadline in milliseconds (`0`: none).
    default_deadline_millis: u64,
    /// 1-in-N OPEN trace sampling (`0`: off).
    trace_sample: u64,
    /// OPENs dispatched so far, the sampling clock.
    open_seq: AtomicU64,
    /// Per-op latency instruments, resolved from the global registry once
    /// so the dispatch path never takes the registry lock.
    obs_open_ns: Arc<AtomicHistogram>,
    obs_fetch_ns: Arc<AtomicHistogram>,
    obs_close_ns: Arc<AtomicHistogram>,
    obs_fetch_rows: Arc<AtomicHistogram>,
    slow_queries: Arc<AtomicU64>,
    /// Transport counters of whichever TCP front-end serves this instance.
    transport_stats: TransportStats,
}

impl RankedQueryServer {
    /// A server with the given tunables and an empty catalog.
    pub fn new(config: ServerConfig) -> Arc<Self> {
        let threads = if config.exec_threads == 0 {
            machine_threads()
        } else {
            config.exec_threads
        };
        let exec = if threads <= 1 {
            ExecContext::serial()
        } else {
            ExecContext::pooled(WorkerPool::new(threads))
        };
        let registry = re_obs::global();
        let plan_cache = Arc::new(PlanCache::new(config.plan_cache_capacity));
        let purge = Arc::clone(&plan_cache);
        Arc::new(RankedQueryServer {
            catalog: Catalog::with_listener(move |name, generation| {
                purge.purge(name, generation);
            }),
            plan_cache,
            sessions: SessionTable::with_budget(config.session_ttl, config.session_budget_bytes),
            enum_stats: SharedStats::new(),
            enumerators_built: AtomicU64::new(0),
            prepared_built: AtomicU64::new(0),
            prepared_reused: AtomicU64::new(0),
            ghd_last_plan: Mutex::new(String::new()),
            exec,
            slow_query_millis: config.slow_query_millis,
            inflight: AtomicU64::new(0),
            max_inflight: config.max_inflight,
            shed_pool_queue: config.shed_pool_queue,
            default_deadline_millis: config.default_deadline_millis,
            trace_sample: config.trace_sample,
            open_seq: AtomicU64::new(0),
            obs_open_ns: registry.histogram("server.open_ns"),
            obs_fetch_ns: registry.histogram("server.fetch_ns"),
            obs_close_ns: registry.histogram("server.close_ns"),
            obs_fetch_rows: registry.histogram("server.fetch_rows"),
            slow_queries: registry.counter("server.slow_queries"),
            transport_stats: TransportStats::default(),
        })
    }

    /// The transport counters, for the TCP front-ends to bump.
    pub(crate) fn transport_stats(&self) -> &TransportStats {
        &self.transport_stats
    }

    /// The database catalog (register databases here before serving).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The execution context OPENs preprocess under (pooled unless the
    /// server was configured with `exec_threads: 1`).
    pub fn exec_context(&self) -> &ExecContext {
        &self.exec
    }

    /// Current server-wide counters. The pool counters are read straight
    /// off the shared pool (they are monotone totals, like everything else
    /// in the snapshot).
    pub fn stats_report(&self) -> StatsReport {
        let mut enumeration = self.enum_stats.snapshot();
        // Add (not assign): enumerator snapshots carry zero pool fields
        // today, but a future producer feeding pool deltas into
        // `SharedStats` must not be silently overwritten here.
        let pool = self.exec.pool_stats();
        enumeration.pool_tasks += pool.tasks_executed;
        enumeration.pool_steals += pool.tasks_stolen;
        enumeration.pool_busy_micros += pool.busy_micros;
        // Folded from the process-global failpoint registry, like the pool
        // counters — the injection sites don't report through `SharedStats`.
        enumeration.faults_injected += re_fault::injected_total();
        StatsReport {
            sessions_open: self.sessions.open_count(),
            sessions_opened: self.sessions.opened_total(),
            sessions_evicted: self.sessions.evicted_total(),
            sessions_evicted_budget: self.sessions.evicted_budget_total(),
            sessions_evicted_idle: self.sessions.evicted_idle_total(),
            session_budget_bytes: self.sessions.budget_bytes(),
            session_bytes_parked: self.sessions.parked_bytes(),
            enumerators_built: self.enumerators_built.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache.hits(),
            plan_cache_misses: self.plan_cache.misses(),
            plan_cache_size: self.plan_cache.len() as u64,
            prepared_built: self.prepared_built.load(Ordering::Relaxed),
            prepared_reused: self.prepared_reused.load(Ordering::Relaxed),
            prepared_bytes: self.plan_cache.prepared_bytes(),
            prepared_evicted: self.plan_cache.prepared_evicted(),
            exec_pool_threads: self.exec.threads() as u64,
            // Poison recovery, not skip: the stored value is a whole
            // `String` swapped in one assignment, so a panicking writer
            // cannot leave it half-updated — same policy as the session
            // table and the metrics registry.
            ghd_last_plan: self
                .ghd_last_plan
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone(),
            enumeration,
            per_worker: self
                .exec
                .worker_stats()
                .iter()
                .map(|w| WorkerCounters {
                    tasks: w.tasks_executed,
                    steals: w.tasks_stolen,
                    busy_micros: w.busy_micros,
                })
                .collect(),
            transport: self.transport_stats.snapshot(),
        }
    }

    /// Add a delta with only the robustness counters set to the shared
    /// metrics (the other fields stay zero and merge as no-ops).
    fn bump(&self, set: impl FnOnce(&mut StatsSnapshot)) {
        let mut delta = StatsSnapshot::zero();
        set(&mut delta);
        self.enum_stats.add(&delta);
    }

    /// Record a shed request: counter plus the structured log event.
    pub(crate) fn note_shed(&self, reason: &str, retry_after_millis: u64) {
        self.bump(|d| d.requests_shed = 1);
        re_obs::log::warn(
            "re_server",
            "request shed",
            &[
                ("reason", FieldValue::Str(reason)),
                ("retry_after_millis", FieldValue::U64(retry_after_millis)),
                // Shed requests never reach the traced open path.
                ("trace_id", FieldValue::Str("untraced")),
            ],
        );
    }

    /// The back-off hint for a shed request, scaled to how loaded the
    /// server currently looks (deeper pool queue → longer back-off).
    pub(crate) fn retry_after_hint(&self) -> u64 {
        let queued = self.exec.pool_queued() as u64;
        (25 + queued * 5).min(5_000)
    }

    /// The typed response for a request shed by the per-connection
    /// pipeline cap (counts and logs the shed; both front-ends answer the
    /// excess — in order — with exactly this).
    pub(crate) fn shed_pipeline_response(&self, max_pipeline: usize) -> Response {
        let retry = self.retry_after_hint();
        self.note_shed("pipeline-cap", retry);
        Response::overloaded(
            format!(
                "connection pipelined more than {max_pipeline} requests; \
                 read responses before sending more"
            ),
            retry,
        )
    }

    /// [`Self::handle`] behind a panic boundary: a bug inside dispatch
    /// becomes an error response, never a dead worker thread (the shared
    /// tables recover from lock poisoning — see [`SessionTable`]).
    pub(crate) fn handle_caught(&self, request: Request) -> Response {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(request)))
            .unwrap_or_else(|_| Response::error("internal error while serving the request"))
    }

    /// Disconnect cleanup for a FETCH whose connection died while the
    /// fetch was still running: trip the session's cancel token so the
    /// cursor stops cooperatively, but only if that session's cursor is
    /// *currently checked out* — a parked session survives its client's
    /// disconnect by design (clients resume sessions across reconnects).
    pub(crate) fn cancel_disconnected_fetch(&self, session: u64) {
        if self.sessions.cancel_if_checked_out(session) {
            self.bump(|d| d.cancelled = 1);
            re_obs::log::warn(
                "re_server",
                "session cancelled",
                &[
                    ("session", FieldValue::U64(session)),
                    ("reason", FieldValue::Str("peer-disconnect")),
                    ("trace_id", FieldValue::Str("untraced")),
                ],
            );
        }
    }

    /// Admission control for expensive requests. On success the returned
    /// guard holds one in-flight slot and releases it on drop — including
    /// the unwind of a panicking dispatch, so a crashed request can never
    /// leak its slot and ratchet the server shut.
    fn admit(&self, request: &Request) -> Result<InflightGuard<'_>, Response> {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        let guard = InflightGuard {
            inflight: &self.inflight,
        };
        if prev >= self.max_inflight {
            let retry = self.retry_after_hint();
            self.note_shed("max-inflight", retry);
            return Err(Response::overloaded(
                format!(
                    "server is at its in-flight request limit ({}); retry later",
                    self.max_inflight
                ),
                retry,
            ));
        }
        // Preprocessing-heavy requests are also shed while the shared
        // pool's queue is deep: finishing the work already admitted beats
        // queueing more behind it.
        if self.shed_pool_queue > 0
            && matches!(request, Request::Open { .. } | Request::Query { .. })
        {
            let queued = self.exec.pool_queued();
            if queued > self.shed_pool_queue {
                let retry = self.retry_after_hint();
                self.note_shed("pool-queue-depth", retry);
                return Err(Response::overloaded(
                    format!("preprocessing pool is backed up ({queued} tasks queued); retry later"),
                    retry,
                ));
            }
        }
        Ok(guard)
    }

    /// Dispatch one request. Never panics on bad input; failures come back
    /// as [`Response::Error`]. Session-op latencies (OPEN/FETCH/CLOSE,
    /// including error outcomes) are recorded into the
    /// `server.{open,fetch,close}_ns` registry histograms.
    pub fn handle(&self, request: Request) -> Response {
        if let Err(fault) = re_fault::fire("server.dispatch") {
            return Response::error_coded(fault.to_string(), "fault");
        }
        let expensive = matches!(
            &request,
            Request::Open { .. }
                | Request::Fetch { .. }
                | Request::Query { .. }
                | Request::Explain { .. }
        );
        let _admission = if expensive {
            match self.admit(&request) {
                Ok(guard) => Some(guard),
                Err(response) => return response,
            }
        } else {
            None
        };
        let timer = match &request {
            Request::Open { .. } => Some(Arc::clone(&self.obs_open_ns)),
            Request::Fetch { .. } => Some(Arc::clone(&self.obs_fetch_ns)),
            Request::Close { .. } => Some(Arc::clone(&self.obs_close_ns)),
            _ => None,
        };
        let start = timer.as_ref().map(|_| Instant::now());
        let response = match request {
            Request::Open {
                db,
                sql,
                deadline_millis,
            } => self.do_open(db, sql, deadline_millis),
            Request::Fetch { session, k } => self.do_fetch(session, k),
            Request::Close { session } => Response::Closed {
                existed: self.sessions.close(session),
            },
            Request::Cancel { session } => self.do_cancel(session),
            Request::Query { db, sql } => self.do_query(db, sql),
            Request::Explain { db, sql, analyze } => self.do_explain(db, sql, analyze),
            Request::Stats => Response::Stats(Box::new(self.stats_report())),
            Request::Metrics => Response::Metrics {
                body: self.render_metrics(),
            },
            Request::Catalog => Response::Catalog {
                databases: self.catalog.names(),
            },
            Request::Ping => Response::Pong,
        };
        if let (Some(hist), Some(start)) = (timer, start) {
            hist.record(saturating_nanos(start.elapsed()));
        }
        response
    }

    /// Decode a request line, dispatch it, encode the response line.
    ///
    /// A panic inside dispatch (a bug, not a protocol error) is caught and
    /// turned into an error response: one bad request must not take down
    /// the worker serving it — the shared tables recover from lock
    /// poisoning (see [`SessionTable`]), so the server keeps serving.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match Request::decode(line) {
            Ok(request) => self.handle_caught(request),
            Err(message) => Response::error(message),
        };
        response.encode()
    }

    fn do_open(&self, db_name: String, sql: String, deadline_millis: Option<u64>) -> Response {
        // The request's own deadline wins; otherwise the configured
        // default applies. The token exists even without a deadline so a
        // later `CANCEL` can reach the cursor mid-fetch.
        let deadline = deadline_millis
            .or_else(|| (self.default_deadline_millis > 0).then_some(self.default_deadline_millis));
        let token = CancelToken::new(deadline.map(Duration::from_millis));
        // 1-in-N sampling: mint a request-scoped trace so every span the
        // preprocessing pass opens (reduce passes, bag materialisation,
        // pool tasks with worker lanes) lands in one exportable tree.
        let seq = self.open_seq.fetch_add(1, Ordering::Relaxed);
        let trace_ctx = if re_obs::trace::should_sample(self.trace_sample, seq) {
            Some(TraceCtx::new("server.open"))
        } else {
            None
        };
        let guard = trace_ctx.as_ref().map(|ctx| re_obs::trace::install(ctx, 0));
        let outcome = self.open_cursor(&db_name, &sql, Some(&token));
        drop(guard);
        let trace_id = trace_ctx.map(|ctx| {
            let trace = ctx.finish();
            let id = trace.trace_id.to_string();
            re_obs::global().push_trace(Arc::new(trace));
            id
        });
        match outcome {
            Ok((cursor, algorithm, plan_cached)) => {
                self.maybe_log_slow_open(&db_name, &sql, &algorithm, &cursor, trace_id.as_deref());
                let columns = cursor.columns().to_vec();
                if let Err(fault) = re_fault::fire("session.park") {
                    // The cursor is built but never parked: it drops here,
                    // leaking nothing.
                    return Response::error_coded(fault.to_string(), "fault");
                }
                let session = self.sessions.insert(db_name, cursor, Some(token));
                Response::Opened {
                    session,
                    columns,
                    algorithm,
                    plan_cached,
                }
            }
            Err(response) => {
                self.log_cancelled_outcome(&response, "open", trace_id.as_deref());
                response
            }
        }
    }

    /// Emit the structured event for an OPEN/QUERY/FETCH that ended in a
    /// cooperative cancellation (deadline or explicit), joined to the
    /// request's trace when one was sampled.
    fn log_cancelled_outcome(&self, response: &Response, op: &str, trace_id: Option<&str>) {
        let Response::Error { message, code, .. } = response else {
            return;
        };
        if code != "deadline_exceeded" && code != "cancelled" {
            return;
        }
        re_obs::log::warn(
            "re_server",
            "request cancelled",
            &[
                ("op", FieldValue::Str(op)),
                ("code", FieldValue::Str(code)),
                ("reason", FieldValue::Str(message)),
                ("trace_id", FieldValue::Str(trace_id.unwrap_or("untraced"))),
            ],
        );
    }

    /// Render the plan of `sql` — structure only (`analyze: false`) or
    /// annotated with the actual per-operator counters of one full run
    /// (`analyze: true`). The ANALYZE run preprocesses on the shared pool
    /// and always mints a trace (pushed to the registry ring), but its
    /// counters stay in the report text — they are diagnostics, not
    /// workload, so they do not inflate the server-wide aggregates.
    fn do_explain(&self, db_name: String, sql: String, analyze: bool) -> Response {
        let Some(db) = self.catalog.get(&db_name) else {
            return Response::error(format!("unknown database `{db_name}`"));
        };
        let mode = if analyze {
            ExplainMode::Analyze
        } else {
            ExplainMode::Plan
        };
        let executor = OwnedSqlExecutor::new(db).with_exec_context(self.exec.clone());
        match executor.explain(&sql, mode) {
            Ok(text) => Response::Explained { text },
            Err(e) => self.classify_sql_error(e),
        }
    }

    fn do_cancel(&self, id: u64) -> Response {
        let existed = self.sessions.cancel(id);
        if existed {
            // The single bump for this cancellation: fetches that later
            // observe the tripped token report the typed error without
            // re-counting.
            self.bump(|d| d.cancelled = 1);
            re_obs::log::warn(
                "re_server",
                "session cancelled",
                &[
                    ("session", FieldValue::U64(id)),
                    ("trace_id", FieldValue::Str("untraced")),
                ],
            );
        }
        Response::Cancelled { existed }
    }

    fn do_fetch(&self, id: u64, k: u64) -> Response {
        let Some(mut session) = self.sessions.take(id) else {
            // Cancelled and budget-evicted sessions get documented,
            // distinguishable errors so clients can tell "re-OPEN and
            // retry" from a typo'd id.
            if let Some(kind) = self.sessions.was_cancelled(id) {
                return Response::error_coded(format!("session {id}: {kind}"), kind.code());
            }
            let message = if self.sessions.was_budget_evicted(id) {
                format!("session {id} was evicted to enforce the session memory budget")
            } else {
                format!("unknown, expired or busy session {id}")
            };
            return Response::error(message);
        };
        // Catch panics *here*, not only in `handle_line`: the session is
        // checked out, and bailing without `discard`/`put_back` would leak
        // its id in the table's checked-out set forever.
        type FetchOutcome = Result<(Vec<re_storage::Tuple>, bool), re_fault::FaultError>;
        let page = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> FetchOutcome {
            re_fault::fire("fetch.next")?;
            let rows = session.cursor.fetch(k.min(usize::MAX as u64) as usize);
            let exhausted = session.cursor.is_exhausted();
            Ok((rows, exhausted))
        }));
        let (rows, exhausted) = match page {
            Ok(Ok(page)) => {
                self.obs_fetch_rows.record(page.0.len() as u64);
                page
            }
            Ok(Err(fault)) => {
                // An injected error is indistinguishable from a real mid-
                // fetch failure by design: the cursor is suspect, drop it.
                self.sessions.discard(session);
                return Response::error_coded(fault.to_string(), "fault");
            }
            Err(_) => {
                // The cursor's internal state is suspect; drop the session.
                self.sessions.discard(session);
                return Response::error(format!("internal error while fetching from session {id}"));
            }
        };
        // Publish this page's enumeration work to the shared metrics.
        let snapshot = session.cursor.stats_snapshot();
        self.enum_stats.add(&snapshot.diff(&session.reported));
        session.reported = snapshot;
        // A tripped cancel token (deadline passed mid-page, or a CANCEL
        // racing this fetch) latches on the stream: report the typed
        // error on the owning cursor and release it.
        if let Some(kind) = session.cursor.cancel_status() {
            if kind == CancelKind::Deadline {
                self.bump(|d| d.deadline_exceeded = 1);
            }
            self.sessions.discard_cancelled(session, kind);
            let response = Response::error_coded(format!("session {id}: {kind}"), kind.code());
            self.log_cancelled_outcome(&response, "fetch", None);
            return response;
        }
        if exhausted {
            // A finished cursor holds no future answers; release its memory
            // now instead of waiting for CLOSE or eviction.
            self.sessions.discard(session);
        } else {
            self.sessions.put_back(session);
        }
        Response::Page { rows, exhausted }
    }

    fn do_query(&self, db_name: String, sql: String) -> Response {
        // One-shot queries run under the configured default deadline, if
        // any (there is no session to CANCEL, so the token is pure
        // deadline).
        let token = (self.default_deadline_millis > 0).then(|| {
            CancelToken::with_deadline(Duration::from_millis(self.default_deadline_millis))
        });
        match self.open_cursor(&db_name, &sql, token.as_ref()) {
            Ok((mut cursor, algorithm, plan_cached)) => {
                let at_open = cursor.stats_snapshot();
                let rows = cursor.fetch_all();
                // `open_cursor` already published the preprocessing work;
                // only the enumeration delta is new.
                self.enum_stats.add(&cursor.stats_snapshot().diff(&at_open));
                // A deadline that struck mid-drain produced a truncated
                // result; report the typed error instead of passing the
                // partial rows off as complete.
                if let Some(kind) = cursor.cancel_status() {
                    if kind == CancelKind::Deadline {
                        self.bump(|d| d.deadline_exceeded = 1);
                    }
                    let response =
                        Response::error_coded(format!("query aborted: {kind}"), kind.code());
                    self.log_cancelled_outcome(&response, "query", None);
                    return response;
                }
                Response::Result {
                    columns: cursor.columns().to_vec(),
                    rows,
                    algorithm,
                    plan_cached,
                }
            }
            Err(response) => {
                self.log_cancelled_outcome(&response, "query", None);
                response
            }
        }
    }

    /// Map an executor error to a response: cooperative cancellations get
    /// their typed code (and counter bump); everything else stays an
    /// unclassified error.
    fn classify_sql_error(&self, e: re_sql::SqlError) -> Response {
        match e {
            re_sql::SqlError::Cancelled(kind) => {
                match kind {
                    CancelKind::Deadline => self.bump(|d| d.deadline_exceeded = 1),
                    CancelKind::Explicit => self.bump(|d| d.cancelled = 1),
                }
                Response::error_coded(kind.to_string(), kind.code())
            }
            other => Response::error(other.to_string()),
        }
    }

    /// Shared open path of `open` and `query`: catalog lookup, plan cache,
    /// then a cursor — opened on the statement's cached prepared artifact
    /// when the plan's entry holds one, otherwise after the one
    /// preprocessing pass (run under the cancel token when one is given).
    /// Failures come back as ready-made responses, typed for cooperative
    /// cancellations.
    fn open_cursor(
        &self,
        db_name: &str,
        sql: &str,
        token: Option<&CancelToken>,
    ) -> Result<(QueryCursor, String, bool), Response> {
        let (db, generation) = self
            .catalog
            .get_versioned(db_name)
            .ok_or_else(|| Response::error(format!("unknown database `{db_name}`")))?;
        let (cached, hit) = self
            .plan_cache
            .get_or_plan(db_name, generation, &db, sql)
            .map_err(|e| Response::error(e.to_string()))?;
        let exec = match token {
            Some(token) => self.exec.clone().with_cancel_token(token.clone()),
            None => self.exec.clone(),
        };
        // While any failpoint is armed the artifact cache is bypassed both
        // ways: a reused artifact would skip the preprocessing sites the
        // faults target.
        let cacheable = !re_fault::armed();
        let cursor = match cached.prepared.as_ref().filter(|_| cacheable) {
            Some(prepared) => {
                self.prepared_reused.fetch_add(1, Ordering::Relaxed);
                QueryCursor::open_prepared(prepared, &exec)
            }
            None => {
                let executor = OwnedSqlExecutor::new(db).with_exec_context(exec);
                let (cursor, prepared) = executor
                    .prepare_and_open_plan(&cached.plan)
                    .map_err(|e| self.classify_sql_error(e))?;
                self.prepared_built.fetch_add(1, Ordering::Relaxed);
                // Cache from the statement's second OPEN on (a plan-cache
                // hit: a statement seen once is not known to repeat), and
                // only a prepare that ran to completion — an error, panic
                // or cancellation never gets here, and a token that tripped
                // after the last check means the request is being torn down.
                if cacheable && hit && token.is_none_or(|t| t.check().is_ok()) {
                    self.plan_cache.store_prepared(&cached, prepared);
                }
                cursor
            }
        };
        self.enumerators_built.fetch_add(1, Ordering::Relaxed);
        // Count the preprocessing pass towards the shared metrics right
        // away (fetch deltas continue from this snapshot).
        self.enum_stats.add(&cursor.stats_snapshot());
        if let Some(shape) = cursor.plan_shape() {
            // Poison recovery, not skip — see `stats_report`.
            *self
                .ghd_last_plan
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = shape;
        }
        Ok((cursor, cached.algorithm.label().to_string(), hit))
    }

    /// Emit a slow-query log line when an OPEN's preprocessing exceeded
    /// the configured threshold: SQL, plan shape, algorithm and the exact
    /// per-phase breakdown captured while the cursor was built.
    fn maybe_log_slow_open(
        &self,
        db_name: &str,
        sql: &str,
        algorithm: &str,
        cursor: &QueryCursor,
        trace_id: Option<&str>,
    ) {
        if self.slow_query_millis == 0 {
            return;
        }
        let Some(timing) = cursor.timing() else {
            return;
        };
        let open_ms = timing.open_nanos / 1_000_000;
        if open_ms < self.slow_query_millis {
            return;
        }
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
        let plan_shape = cursor.plan_shape().unwrap_or_default();
        re_obs::log::warn(
            "re_server",
            "slow query open",
            &[
                ("db", FieldValue::Str(db_name)),
                ("sql", FieldValue::Str(sql)),
                ("algorithm", FieldValue::Str(algorithm)),
                ("plan_shape", FieldValue::Str(&plan_shape)),
                ("open_ms", FieldValue::U64(open_ms)),
                ("phases", FieldValue::Str(&timing.phases_summary())),
                // Joins the log line to the sampled span tree, when this
                // OPEN drew a trace ("untraced" otherwise).
                ("trace_id", FieldValue::Str(trace_id.unwrap_or("untraced"))),
            ],
        );
    }

    /// The Prometheus text exposition behind the `metrics` request: the
    /// `stats` counters as scalars, then every registry histogram (spans,
    /// op latencies, cursor delay/TTFA) and registry counter.
    fn render_metrics(&self) -> String {
        let report = self.stats_report();
        let e = &report.enumeration;
        let gauge = MetricKind::Gauge;
        let counter = MetricKind::Counter;
        let scalars = [
            (
                "sessions.open",
                "Sessions currently live.",
                gauge,
                report.sessions_open,
            ),
            (
                "sessions.opened",
                "Sessions opened since start.",
                counter,
                report.sessions_opened,
            ),
            (
                "sessions.evicted",
                "Sessions reaped by eviction (idle TTL + memory budget).",
                counter,
                report.sessions_evicted,
            ),
            (
                "sessions.evicted_budget",
                "Sessions evicted to enforce the memory budget.",
                counter,
                report.sessions_evicted_budget,
            ),
            (
                "sessions.evicted_idle",
                "Sessions evicted by the idle TTL sweep.",
                counter,
                report.sessions_evicted_idle,
            ),
            (
                "sessions.budget_bytes",
                "Configured parked-memory budget (0 = unlimited).",
                gauge,
                report.session_budget_bytes,
            ),
            (
                "sessions.bytes_parked",
                "Frontier bytes retained by parked sessions.",
                gauge,
                report.session_bytes_parked,
            ),
            (
                "enumerators.built",
                "Cursors opened (one enumerator each, fresh or on a cached prepared artifact).",
                counter,
                report.enumerators_built,
            ),
            (
                "prepared.built",
                "Preprocessing passes run by OPEN/QUERY.",
                counter,
                report.prepared_built,
            ),
            (
                "prepared.reused",
                "Cursors opened on a cached prepared artifact.",
                counter,
                report.prepared_reused,
            ),
            (
                "prepared.bytes",
                "Bytes of prepared artifacts held by the plan cache.",
                gauge,
                report.prepared_bytes,
            ),
            (
                "prepared.evicted",
                "Prepared artifacts dropped from the plan cache.",
                counter,
                report.prepared_evicted,
            ),
            (
                "plan_cache.hits",
                "Plan-cache hits.",
                counter,
                report.plan_cache_hits,
            ),
            (
                "plan_cache.misses",
                "Plan-cache misses.",
                counter,
                report.plan_cache_misses,
            ),
            (
                "plan_cache.size",
                "Plans currently cached.",
                gauge,
                report.plan_cache_size,
            ),
            (
                "exec.pool_threads",
                "Threads of the shared preprocessing pool.",
                gauge,
                report.exec_pool_threads,
            ),
            (
                "enum.pq_pushes",
                "Priority-queue insertions.",
                counter,
                e.pq_pushes,
            ),
            ("enum.pq_pops", "Priority-queue pops.", counter, e.pq_pops),
            (
                "enum.cells_created",
                "Cells allocated.",
                counter,
                e.cells_created,
            ),
            (
                "enum.cells_reused",
                "Memoized cells served from the memo.",
                counter,
                e.cells_reused,
            ),
            ("enum.answers", "Answers emitted.", counter, e.answers),
            (
                "enum.tuple_allocs",
                "Hot-path tuple allocations (tripwire).",
                counter,
                e.tuple_allocs,
            ),
            (
                "enum.frontier_bytes",
                "Frontier bytes retained (monotone).",
                counter,
                e.frontier_bytes,
            ),
            (
                "enum.frontier_peak_bytes",
                "Summed peak frontier bytes (upper bound).",
                counter,
                e.frontier_peak_bytes,
            ),
            (
                "enum.ghd_bags",
                "Bags across chosen GHD plans.",
                counter,
                e.ghd_bags,
            ),
            (
                "enum.ghd_estimated_rows",
                "Summed AGM bag-size estimates.",
                counter,
                e.ghd_estimated_rows,
            ),
            (
                "enum.ghd_fallbacks",
                "GHD selections that fell back to a single bag.",
                counter,
                e.ghd_fallbacks,
            ),
            (
                "enum.reduce_passes",
                "Semi-join reducer passes.",
                counter,
                e.reduce_passes,
            ),
            (
                "enum.reduce_input_rows",
                "Rows scanned by the semi-join reducer.",
                counter,
                e.reduce_input_rows,
            ),
            (
                "enum.reduce_output_rows",
                "Rows surviving the semi-join reducer.",
                counter,
                e.reduce_output_rows,
            ),
            (
                "exec.pool_tasks",
                "Parallel-preprocessing tasks executed.",
                counter,
                e.pool_tasks,
            ),
            (
                "exec.pool_steals",
                "Pool tasks stolen across workers.",
                counter,
                e.pool_steals,
            ),
            (
                "exec.pool_busy_micros",
                "Microseconds inside pool task bodies.",
                counter,
                e.pool_busy_micros,
            ),
            (
                "server.requests_shed",
                "Requests refused by admission control (in-flight gate, pipeline cap, load shedding).",
                counter,
                e.requests_shed,
            ),
            (
                "server.deadline_exceeded",
                "Requests aborted because their deadline passed.",
                counter,
                e.deadline_exceeded,
            ),
            (
                "server.cancelled",
                "Sessions cancelled by explicit CANCEL requests.",
                counter,
                e.cancelled,
            ),
            (
                "fault.injected_total",
                "Faults injected by armed failpoints (RE_FAULT).",
                counter,
                e.faults_injected,
            ),
            (
                "reactor.epoll_waits",
                "Poll waits the reactor returned from (0 while idle).",
                counter,
                report.transport.epoll_waits,
            ),
            (
                "reactor.wakeups",
                "Worker-completion wakeups delivered over the wake pipe.",
                counter,
                report.transport.wakeups,
            ),
            (
                "reactor.bytes_in",
                "Bytes read off client connections.",
                counter,
                report.transport.bytes_in,
            ),
            (
                "reactor.bytes_out",
                "Bytes written to client connections.",
                counter,
                report.transport.bytes_out,
            ),
            (
                "reactor.conns_accepted",
                "Connections accepted by the TCP front-end.",
                counter,
                report.transport.conns_accepted,
            ),
            (
                "reactor.disconnects",
                "Connections that ended (EOF, reset, or shutdown).",
                counter,
                report.transport.disconnects,
            ),
        ];
        let scalars: Vec<ScalarMetric> = scalars
            .into_iter()
            .map(|(name, help, kind, value)| ScalarMetric {
                name,
                help,
                kind,
                value: value as f64,
            })
            .collect();
        // Per-worker slices of the pool counters, labeled by slot. The
        // final slot aggregates caller threads helping batches (see the
        // exec pool's `WorkerStat`); skew across workers is the signal
        // the `exec.pool_*` aggregates hide.
        let worker_label = |i: usize| {
            if i + 1 == report.per_worker.len() {
                "caller".to_string()
            } else {
                i.to_string()
            }
        };
        let labeled: Vec<LabeledMetric> = report
            .per_worker
            .iter()
            .enumerate()
            .flat_map(|(i, w)| {
                [
                    (
                        "exec.worker_tasks",
                        "Pool tasks executed, per worker slot.",
                        w.tasks,
                    ),
                    (
                        "exec.worker_steals",
                        "Pool tasks stolen from another deque, per worker slot.",
                        w.steals,
                    ),
                    (
                        "exec.worker_busy_micros",
                        "Microseconds inside task bodies, per worker slot.",
                        w.busy_micros,
                    ),
                ]
                .map(|(name, help, value)| LabeledMetric {
                    name,
                    help,
                    kind: counter,
                    labels: vec![("worker".to_string(), worker_label(i))],
                    value: value as f64,
                })
            })
            .collect();
        re_obs::render_prometheus_labeled(&scalars, &labeled, re_obs::global())
    }
}

/// One admitted in-flight slot; released on drop — including a panic's
/// unwind — so a crashed request can never leak its slot.
struct InflightGuard<'a> {
    inflight: &'a AtomicU64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle for a running TCP front-end: the bound address plus a shutdown
/// switch that joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The reactor's wake pipe (None for the thread-per-connection
    /// front-end), poked on shutdown so an idle reactor leaves its
    /// indefinite poll wait.
    waker: Option<Arc<re_net::WakePipe>>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub(crate) fn from_parts(
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        waker: Option<Arc<re_net::WakePipe>>,
        threads: Vec<JoinHandle<()>>,
    ) -> Self {
        ServerHandle {
            addr,
            shutdown,
            waker,
            threads,
        }
    }

    /// The address the listener is bound to (use for clients; port 0 in
    /// the bind address picks a free port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the connection queue, and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        // Wake a blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.shutdown.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

/// Serve the request protocol on `bind_addr` (e.g. `"127.0.0.1:0"`) with
/// the front-end selected by `config.transport`: the event-driven reactor
/// by default, or the legacy thread-per-connection pool. Both negotiate
/// JSON-lines vs the binary protocol per connection from its first bytes.
pub fn serve(
    server: Arc<RankedQueryServer>,
    bind_addr: &str,
    config: &ServerConfig,
) -> std::io::Result<ServerHandle> {
    match config.transport {
        ServerTransport::Reactor => serve_reactor(server, bind_addr, config),
        ServerTransport::ThreadPerConn => serve_threaded(server, bind_addr, config),
    }
}

/// Serve with the event-driven reactor: one poll thread drives every
/// connection's read/dispatch/write state machine and hands parsed
/// requests to a `config.workers`-thread dispatch pool; completions come
/// back over a wake pipe. Idle connections cost one buffer and zero
/// wakeups, so tens of thousands of parked sessions can stay connected.
pub fn serve_reactor(
    server: Arc<RankedQueryServer>,
    bind_addr: &str,
    config: &ServerConfig,
) -> std::io::Result<ServerHandle> {
    crate::reactor::serve_reactor(server, bind_addr, config)
}

/// Serve with the legacy thread-per-connection front-end: a pool of
/// `config.workers` threads, each owning one connection until EOF.
///
/// The acceptor thread pushes connections into a channel; each worker pops
/// one and serves it to completion. A worker therefore handles one
/// connection at a time — the pool size bounds concurrent connections, and
/// requests on *different* connections run truly in parallel while sharing
/// the catalog, plan cache and session table. Kept as the comparison
/// baseline for the reactor (see `crates/bench/src/bin/server_load.rs`)
/// and as a fallback.
pub fn serve_threaded(
    server: Arc<RankedQueryServer>,
    bind_addr: &str,
    config: &ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind_addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let conn_rx = Arc::clone(&conn_rx);
            let server = Arc::clone(&server);
            let shutdown = Arc::clone(&shutdown);
            let max_pipeline = config.max_pipeline;
            std::thread::spawn(move || loop {
                // Holding the receiver lock only while popping keeps the
                // other workers free to pick up the next connection.
                let next = conn_rx.lock().expect("worker queue poisoned").recv();
                match next {
                    Ok(stream) => serve_connection(&server, stream, &shutdown, max_pipeline),
                    Err(_) => return, // acceptor gone, queue drained
                }
            })
        })
        .collect();

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break; // the wake-up connection is dropped unserved
                }
                match stream {
                    Ok(stream) => {
                        if conn_tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
            // Dropping conn_tx lets the workers drain and exit.
        })
    };

    let mut threads = workers;
    threads.push(acceptor);
    Ok(ServerHandle::from_parts(addr, shutdown, None, threads))
}

/// Serve one connection until EOF or server shutdown, in whichever
/// protocol its first bytes negotiate (JSON-lines or binary frames).
///
/// Reads run with a short timeout so an idle connection re-checks the
/// shutdown flag periodically — `ServerHandle::shutdown` therefore joins
/// within one timeout interval even while clients stay connected.
/// Requests are assembled from raw reads into a byte accumulator (never
/// through `read_line`, whose guard *discards* the bytes it read when a
/// timeout strikes mid-line), so a request split across TCP segments with
/// a stall in between is reassembled intact.
///
/// Pipelining is capped per drain batch: a client that writes more than
/// `max_pipeline` complete requests before reading any response gets the
/// excess answered — still in order — with typed `overloaded` errors, so
/// one greedy connection cannot queue unbounded work behind itself. All
/// of a batch's responses are buffered and flushed with *one* write
/// syscall (the connection runs with `TCP_NODELAY`, so the flush is not
/// delayed waiting for an ACK either).
fn serve_connection(
    server: &RankedQueryServer,
    stream: TcpStream,
    shutdown: &AtomicBool,
    max_pipeline: usize,
) {
    let stats = server.transport_stats();
    stats.add(&stats.conns_accepted, 1);
    let _ = stream.set_nodelay(true);
    let Ok(mut reader) = stream.try_clone() else {
        stats.add(&stats.disconnects, 1);
        return;
    };
    let _ = reader.set_read_timeout(Some(Duration::from_millis(100)));
    let max_pipeline = max_pipeline.max(1);
    let mut writer = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut protocol: Option<WireProtocol> = None;
    'conn: loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                stats.add(&stats.bytes_in, n as u64);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break, // broken pipe
        }
        if protocol.is_none() {
            match wire::negotiate(&pending) {
                Negotiation::NeedMore => continue,
                Negotiation::Json => protocol = Some(WireProtocol::Json),
                Negotiation::Binary => {
                    pending.drain(..wire::BINARY_MAGIC.len());
                    protocol = Some(WireProtocol::Binary);
                }
            }
        }
        let proto = protocol.expect("negotiated above");
        // Drain every complete request buffered so far, answer them in
        // order into one output buffer, then flush it with one write.
        let mut served_in_batch = 0usize;
        let mut out: Vec<u8> = Vec::new();
        let mut framing_broken = false;
        loop {
            match wire::next_inbound(proto, &mut pending) {
                Ok(None) => break,
                Ok(Some(item)) => {
                    let response = if served_in_batch >= max_pipeline {
                        server.shed_pipeline_response(max_pipeline)
                    } else {
                        match item {
                            InboundItem::Request(request) => server.handle_caught(request),
                            InboundItem::Malformed(message) => Response::error(message),
                        }
                    };
                    served_in_batch += 1;
                    wire::append_response(proto, &response, &mut out);
                }
                Err(message) => {
                    // Framing is unrecoverable (e.g. an oversized length
                    // prefix): send a final error and tear down.
                    wire::append_response(proto, &Response::error(message), &mut out);
                    framing_broken = true;
                    break;
                }
            }
        }
        if !out.is_empty() {
            if writer.write_all(&out).and_then(|_| writer.flush()).is_err() {
                break 'conn;
            }
            stats.add(&stats.bytes_out, out.len() as u64);
        }
        if framing_broken {
            break;
        }
    }
    stats.add(&stats.disconnects, 1);
}
