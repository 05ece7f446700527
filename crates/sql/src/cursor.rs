//! Resumable query cursors.
//!
//! A [`QueryCursor`] is a *live* ranked enumeration of a SQL statement: the
//! enumerator is built once (paying the preprocessing pass once) and then
//! pages of rank-ordered distinct answers are pulled with [`fetch`]
//! (`QueryCursor::fetch`) — the access pattern of a paginated top-k API.
//! Because every enumerator owns its inputs and is `Send`, a cursor can be
//! parked in a session table and resumed from any worker thread; two
//! successive `fetch(k)` calls return exactly what a single-shot
//! `LIMIT 2k` execution would, without re-running preprocessing.
//!
//! The preprocessing result is itself a value: [`PreparedQuery`] is the
//! immutable, `Arc`-shared prepared part of a statement, and
//! [`QueryCursor::open_prepared`] opens further cursors on it without
//! preprocessing again — byte-identical to a cold open.

use crate::error::SqlError;
use crate::planner::{OrderSpec, PlannedQuery, SqlPlan};
use rankedenum_core::{
    lexi_serves, prepare_ranked, Algorithm, CancelKind, ExecContext, InstrumentedStream,
    PreparedLexi, PreparedStream, PreparedUnion, RankedStream, StatsSnapshot, TimingBreakdown,
};
use re_ranking::{LexRanking, Ranking, SumRanking, WeightAssignment, WeightedSumRanking};
use re_storage::{Attr, Database, Tuple};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// The preprocessed, immutable half of a cursor: the enumerator's prepared
/// part (see [`PreparedStream`]) plus what every cursor of the statement
/// shares (output columns, `LIMIT`). Cheap to clone (one `Arc`); any
/// number of cursors, on any threads, can be opened on it with
/// [`QueryCursor::open_prepared`] without preprocessing again. It borrows
/// nothing: the database (or working set) it was prepared from can be
/// dropped.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<PreparedInner>,
}

struct PreparedInner {
    columns: Vec<String>,
    stream: Arc<dyn PreparedStream>,
    limit: Option<usize>,
}

impl PreparedQuery {
    /// Run the preprocessing phase of an already-planned statement over
    /// `db` under `ctx`. `db` must already contain the plan's derived
    /// relations (see [`SqlPlan::instantiate`]).
    pub fn prepare(
        db: &Database,
        weights: &WeightAssignment,
        plan: &SqlPlan,
        ctx: &ExecContext,
    ) -> Result<Self, SqlError> {
        let projection: &[Attr] = match &plan.query {
            PlannedQuery::Single(q) => q.projection(),
            PlannedQuery::Union(u) => u.projection(),
        };
        let stream: Arc<dyn PreparedStream> = match &plan.order {
            None => prepare_stream(plan, db, SumRanking::new(weights.clone()), ctx)?,
            Some(OrderSpec::Sum(attrs)) => {
                let listed: BTreeSet<&Attr> = attrs.iter().collect();
                let all: BTreeSet<&Attr> = projection.iter().collect();
                if listed == all {
                    prepare_stream(plan, db, SumRanking::new(weights.clone()), ctx)?
                } else {
                    prepare_stream(
                        plan,
                        db,
                        WeightedSumRanking::over_attrs(attrs.clone(), weights.clone()),
                        ctx,
                    )?
                }
            }
            Some(OrderSpec::Lex(items)) => {
                let lex = LexRanking::with_directions(items.clone(), weights.clone());
                let declared: Vec<Attr> = items.iter().map(|(a, _)| a.clone()).collect();
                match &plan.query {
                    // Lexicographic orders on acyclic single queries take
                    // the index-backed Algorithm 3 — the fast path since
                    // its PR 4 rebuild (no priority queues, memoized
                    // candidate cells, cursor-bump delay).
                    PlannedQuery::Single(q) if lexi_serves(q, &declared) => {
                        Arc::new(PreparedLexi::prepare(q, db, &lex, ctx)?)
                    }
                    _ => prepare_stream(plan, db, lex, ctx)?,
                }
            }
        };
        Ok(PreparedQuery {
            inner: Arc::new(PreparedInner {
                columns: projection.iter().map(|a| a.as_str().to_string()).collect(),
                stream,
                limit: plan.limit,
            }),
        })
    }

    /// Bytes the prepared part retains (see [`PreparedStream::bytes`]).
    pub fn bytes(&self) -> u64 {
        self.inner.stream.bytes()
    }

    /// Whether no cursor (or other handle) shares this prepared part.
    pub fn is_idle(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("columns", &self.inner.columns)
            .field("limit", &self.inner.limit)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// A live, resumable ranked enumeration of a planned SQL statement.
pub struct QueryCursor {
    /// Keeps the shared prepared part alive (and visibly in use) for as
    /// long as the cursor lives.
    prepared: PreparedQuery,
    stream: Box<dyn RankedStream>,
    /// Rows still allowed by the statement's `LIMIT` (`None`: unlimited).
    remaining: Option<usize>,
    exhausted: bool,
}

impl QueryCursor {
    /// Build a cursor for an already-planned statement over `db`.
    ///
    /// `db` must already contain the plan's derived relations (see
    /// [`SqlPlan::instantiate`]); the executors take care of that. The
    /// cursor does not borrow `db` — the enumerator copies what it needs
    /// during the full-reducer pass.
    pub fn open(
        db: &Database,
        weights: &WeightAssignment,
        plan: &SqlPlan,
    ) -> Result<Self, SqlError> {
        Self::open_ctx(db, weights, plan, &ExecContext::serial())
    }

    /// [`QueryCursor::open`] with the enumerator's preprocessing pass
    /// running under `ctx` — a pooled context parallelises the full
    /// reducer and GHD bag materialisation without changing any output.
    /// Always preprocesses: this is [`PreparedQuery::prepare`] followed by
    /// [`QueryCursor::open_prepared`].
    pub fn open_ctx(
        db: &Database,
        weights: &WeightAssignment,
        plan: &SqlPlan,
        ctx: &ExecContext,
    ) -> Result<Self, SqlError> {
        Ok(Self::prepare_and_open(db, weights, plan, ctx)?.0)
    }

    /// [`QueryCursor::open_ctx`] that also hands back the prepared part,
    /// so a caller can cache it and open later cursors on it. The cursor's
    /// timing covers the preprocessing: its open duration and the phase
    /// spans that closed on this thread while it ran.
    pub fn prepare_and_open(
        db: &Database,
        weights: &WeightAssignment,
        plan: &SqlPlan,
        ctx: &ExecContext,
    ) -> Result<(Self, PreparedQuery), SqlError> {
        // Time the whole open and capture the preprocessing spans that
        // close on this thread, so the cursor can report an exact phase
        // breakdown (and the server a slow-query log line).
        let opened_at = Instant::now();
        let (prepared, phases) =
            re_obs::capture_phases(|| PreparedQuery::prepare(db, weights, plan, ctx));
        let prepared = prepared?;
        let cursor = Self::open_at(&prepared, ctx, opened_at, phases);
        Ok((cursor, prepared))
    }

    /// Open a cursor on a prepared statement: no preprocessing, only the
    /// cursor's private state is allocated. `ctx` is the cursor's own
    /// context — its cancel token stops this cursor's enumeration (and
    /// deferred index builds), never another cursor's.
    pub fn open_prepared(prepared: &PreparedQuery, ctx: &ExecContext) -> Self {
        Self::open_at(prepared, ctx, Instant::now(), Vec::new())
    }

    fn open_at(
        prepared: &PreparedQuery,
        ctx: &ExecContext,
        opened_at: Instant,
        phases: Vec<(String, u64)>,
    ) -> Self {
        let stream = Arc::clone(&prepared.inner.stream).open_stream(ctx);
        // Thread the context's cancel token (when present) into the
        // stream wrapper, so a deadline or explicit cancel also stops the
        // enumeration phase — preprocessing already checks it per morsel.
        let mut instrumented = InstrumentedStream::new(stream, opened_at, phases);
        if let Some(token) = ctx.cancel_token() {
            instrumented = instrumented.with_cancel_token(token.clone());
        }
        QueryCursor {
            prepared: prepared.clone(),
            stream: Box::new(instrumented),
            remaining: prepared.inner.limit,
            exhausted: false,
        }
    }

    /// Output column names (canonical projection attribute names).
    pub fn columns(&self) -> &[String] {
        &self.prepared.inner.columns
    }
    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        self.stream.output_attrs()
    }

    /// The enumeration strategy driving this cursor.
    pub fn algorithm(&self) -> Algorithm {
        self.stream.algorithm()
    }

    /// Cheap snapshot of the enumeration counters (monotone; difference two
    /// snapshots for per-page costs).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stream.stats_snapshot()
    }

    /// The GHD plan shape behind this cursor, when the statement needed a
    /// decomposition (`None` for decomposition-free strategies). Carries
    /// the fallback annotation when plan selection had to degrade.
    pub fn plan_shape(&self) -> Option<String> {
        self.stream.plan_shape()
    }

    /// The full GHD selection report behind this cursor (candidates
    /// compared, per-bag estimate-vs-actual details), when the statement
    /// ran through a decomposition. `None` for decomposition-free
    /// strategies.
    pub fn ghd_report(&self) -> Option<rankedenum_core::GhdReport> {
        self.stream.ghd_report()
    }

    /// Wall-clock profile of this cursor: open duration, captured
    /// preprocessing phases, time-to-first-answer, and the distribution
    /// of delays between consecutive answers. Present for every cursor —
    /// `open_ctx` wraps the stream in an
    /// [`InstrumentedStream`](rankedenum_core::InstrumentedStream).
    pub fn timing(&self) -> Option<TimingBreakdown> {
        self.stream.timing_breakdown()
    }

    /// Whether the enumeration has ended (all distinct answers emitted, or
    /// the statement's `LIMIT` budget is spent).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Why this cursor stopped early, if it did: `Some(kind)` once the
    /// cursor's cancel token tripped mid-enumeration (the short page that
    /// observed it is the last page), `None` for an ordinary exhaustion.
    pub fn cancel_status(&self) -> Option<CancelKind> {
        self.stream.cancel_status()
    }

    /// The next page: up to `k` further answers in rank order. Consecutive
    /// pages concatenate to the single-shot result; a short (or empty) page
    /// means the cursor is exhausted.
    pub fn fetch(&mut self, k: usize) -> Vec<Tuple> {
        if self.exhausted {
            return Vec::new();
        }
        let take = match self.remaining {
            Some(rem) => rem.min(k),
            None => k,
        };
        let mut page = Vec::with_capacity(take.min(1024));
        for _ in 0..take {
            match self.stream.next() {
                Some(row) => page.push(row),
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        if let Some(rem) = &mut self.remaining {
            *rem -= page.len();
            if *rem == 0 {
                self.exhausted = true;
            }
        }
        page
    }

    /// Drain the cursor: every remaining answer (bounded by the statement's
    /// `LIMIT`).
    pub fn fetch_all(&mut self) -> Vec<Tuple> {
        // Page in bounded chunks so an unlimited statement cannot trigger
        // one huge up-front `with_capacity` reservation.
        const BATCH: usize = 1 << 20;
        let mut rows = Vec::new();
        while !self.exhausted {
            let page = self.fetch(BATCH);
            if page.is_empty() {
                break;
            }
            rows.extend(page);
        }
        rows
    }
}

fn prepare_stream<R: Ranking + Clone + 'static>(
    plan: &SqlPlan,
    db: &Database,
    ranking: R,
    ctx: &ExecContext,
) -> Result<Arc<dyn PreparedStream>, SqlError> {
    Ok(match &plan.query {
        PlannedQuery::Single(q) => prepare_ranked(q, db, ranking, ctx)?,
        PlannedQuery::Union(u) => Arc::new(PreparedUnion::prepare(u, db, ranking, ctx)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SqlExecutor;
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![
                    vec![1, 10],
                    vec![2, 10],
                    vec![3, 10],
                    vec![1, 11],
                    vec![4, 11],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    const SQL: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                       WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

    #[test]
    fn pages_concatenate_to_the_single_shot_result() {
        let db = db();
        let exec = SqlExecutor::new(&db);
        let mut cursor = exec.open(SQL).unwrap();
        assert_eq!(cursor.algorithm(), Algorithm::Acyclic);
        let preprocessing = cursor.stats_snapshot();
        assert!(preprocessing.cells_created > 0, "preprocessing ran at open");

        let p1 = cursor.fetch(3);
        let p2 = cursor.fetch(3);
        assert_eq!(p1.len(), 3);
        assert_eq!(p2.len(), 3);
        // No new cells between pages beyond successor generation; the
        // preprocessing pass did not re-run (cells grow incrementally, far
        // below a rebuild).
        let single_shot = exec.run(&format!("{SQL} LIMIT 6")).unwrap();
        let mut combined = p1;
        combined.extend(p2);
        assert_eq!(combined, single_shot.rows);
    }

    #[test]
    fn cursor_honours_the_statement_limit() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db)
            .open(&format!("{SQL} LIMIT 4"))
            .unwrap();
        let p1 = cursor.fetch(3);
        assert_eq!(p1.len(), 3);
        assert!(!cursor.is_exhausted());
        let p2 = cursor.fetch(100);
        assert_eq!(p2.len(), 1, "LIMIT 4 caps the second page");
        assert!(cursor.is_exhausted());
        assert!(cursor.fetch(10).is_empty());
    }

    #[test]
    fn exhaustion_is_reported_on_short_pages() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db).open(SQL).unwrap();
        let all = cursor.fetch(1_000_000);
        assert!(cursor.is_exhausted());
        let rerun = SqlExecutor::new(&db).run(SQL).unwrap();
        assert_eq!(all, rerun.rows);
        assert_eq!(cursor.stats_snapshot().answers as usize, all.len());
    }

    #[test]
    fn fetch_all_equals_run() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db)
            .open(&format!("{SQL} LIMIT 7"))
            .unwrap();
        let rows = cursor.fetch_all();
        assert_eq!(
            rows,
            SqlExecutor::new(&db)
                .run(&format!("{SQL} LIMIT 7"))
                .unwrap()
                .rows
        );
    }

    #[test]
    fn cursors_carry_a_wall_clock_timing_breakdown() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db).open(SQL).unwrap();
        let before = cursor.timing().expect("cursors are instrumented");
        assert!(before.open_nanos > 0);
        assert!(before.first_answer_nanos.is_none());
        // The acyclic open ran the full reducer on this thread.
        assert!(before.phase_nanos("preprocess.reduce") > 0);

        let page = cursor.fetch(3);
        assert_eq!(page.len(), 3);
        let after = cursor.timing().unwrap();
        assert_eq!(after.answers, 3);
        assert_eq!(after.delay.count(), 3);
        assert!(after.first_answer_nanos.unwrap() >= after.open_nanos);
    }

    #[test]
    fn cursor_is_send_and_outlives_the_executor_borrow() {
        let db = db();
        let cursor = {
            let exec = SqlExecutor::new(&db);
            exec.open(SQL).unwrap()
        };
        // the cursor owns its data: move it to another thread and drain it
        let rows = std::thread::spawn(move || {
            let mut cursor = cursor;
            cursor.fetch_all()
        })
        .join()
        .unwrap();
        assert!(!rows.is_empty());
    }
}
