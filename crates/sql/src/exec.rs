//! Execution: run a SQL statement through the ranked enumeration engine.

use crate::ast::ExplainMode;
use crate::cursor::{PreparedQuery, QueryCursor};
use crate::error::SqlError;
use crate::explain::{explain_analyze, explain_plan};
use crate::parser::{parse, parse_input};
use crate::planner::{plan, SqlPlan};
use rankedenum_core::ExecContext;
use re_ranking::WeightAssignment;
use re_storage::{Database, Tuple};
use std::sync::Arc;

/// The result of a SQL query: column names and the rows in rank order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Output column names (the canonical projection attribute names, which
    /// for selected columns are the names used in the select list).
    pub columns: Vec<String>,
    /// The rows, in the requested rank order, already de-duplicated and
    /// truncated to the requested `LIMIT`.
    pub rows: Vec<Tuple>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The outcome of executing one top-level SQL input: rows for plain
/// statements, a rendered plan for `EXPLAIN` / `EXPLAIN ANALYZE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqlOutput {
    /// A plain statement ran; these are its results.
    Rows(QueryResult),
    /// An `EXPLAIN`-prefixed statement; the rendered plan (annotated with
    /// actual counters for `EXPLAIN ANALYZE`).
    Explained(String),
}

/// Executes SQL statements against a [`Database`] using the ranked
/// enumeration engine (never by materialise–sort).
///
/// ```
/// use re_sql::SqlExecutor;
/// use re_storage::{attr::attrs, Database, Relation};
///
/// let mut db = Database::new();
/// db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]),
///     vec![vec![1, 10], vec![2, 10], vec![3, 11]]).unwrap()).unwrap();
///
/// let result = SqlExecutor::new(&db).run(
///     "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
///      WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid LIMIT 3",
/// ).unwrap();
/// assert_eq!(result.rows, vec![vec![1, 1], vec![1, 2], vec![2, 1]]);
/// ```
pub struct SqlExecutor<'a> {
    db: &'a Database,
    weights: WeightAssignment,
}

impl<'a> SqlExecutor<'a> {
    /// Executor whose `ORDER BY` weights are the attribute values themselves.
    pub fn new(db: &'a Database) -> Self {
        SqlExecutor {
            db,
            weights: WeightAssignment::value_as_weight(),
        }
    }

    /// Executor with an explicit weight assignment (e.g. h-index weights for
    /// author ids, as in Example 1 of the paper). The assignment is keyed by
    /// the *output column names* of the query (`"A1.name"`, `"aid"`, ...).
    pub fn with_weights(db: &'a Database, weights: WeightAssignment) -> Self {
        SqlExecutor { db, weights }
    }

    /// Parse, plan and execute a statement.
    pub fn run(&self, sql: &str) -> Result<QueryResult, SqlError> {
        let statement = parse(sql)?;
        let plan = plan(&statement, self.db)?;
        self.run_plan(&plan)
    }

    /// Parse and plan a statement without executing it (useful for
    /// inspecting the generated join-project query).
    pub fn plan(&self, sql: &str) -> Result<SqlPlan, SqlError> {
        let statement = parse(sql)?;
        plan(&statement, self.db)
    }

    /// Execute an already-planned statement.
    pub fn run_plan(&self, plan: &SqlPlan) -> Result<QueryResult, SqlError> {
        run_plan_on(self.db, &self.weights, plan, &ExecContext::serial())
    }

    /// Open a *resumable cursor* on a statement: the enumerator is built
    /// (preprocessing runs once) and successive [`QueryCursor::fetch`]
    /// calls stream further pages in rank order. The cursor owns its data
    /// and does not borrow the executor or the database.
    pub fn open(&self, sql: &str) -> Result<QueryCursor, SqlError> {
        let statement = parse(sql)?;
        let plan = plan(&statement, self.db)?;
        self.open_plan(&plan)
    }

    /// Open a cursor on an already-planned statement.
    pub fn open_plan(&self, plan: &SqlPlan) -> Result<QueryCursor, SqlError> {
        Ok(open_plan_on(self.db, &self.weights, plan, &ExecContext::serial())?.0)
    }

    /// Parse any top-level input and dispatch it: plain statements run to
    /// completion, `EXPLAIN` renders the plan without executing,
    /// `EXPLAIN ANALYZE` runs the statement and annotates the plan with
    /// actual counters.
    pub fn execute(&self, sql: &str) -> Result<SqlOutput, SqlError> {
        let input = parse_input(sql)?;
        let plan = plan(&input.statement, self.db)?;
        match input.explain {
            None => self.run_plan(&plan).map(SqlOutput::Rows),
            Some(mode) => self.explain_plan(&plan, mode).map(SqlOutput::Explained),
        }
    }

    /// Explain a statement. `sql` may be written with or without the
    /// `EXPLAIN [ANALYZE]` prefix; a written prefix overrides `mode`.
    pub fn explain(&self, sql: &str, mode: ExplainMode) -> Result<String, SqlError> {
        let input = parse_input(sql)?;
        let plan = plan(&input.statement, self.db)?;
        self.explain_plan(&plan, input.explain.unwrap_or(mode))
    }

    /// Explain an already-planned statement.
    pub fn explain_plan(&self, plan: &SqlPlan, mode: ExplainMode) -> Result<String, SqlError> {
        match mode {
            ExplainMode::Plan => explain_plan(self.db, plan),
            ExplainMode::Analyze => {
                explain_analyze(self.db, &self.weights, plan, &ExecContext::serial())
            }
        }
    }
}

/// Executes SQL statements against a *shared* [`Database`] behind an
/// [`Arc`] — the ownership-based sibling of [`SqlExecutor`] for concurrent
/// settings: the executor is `Send + Sync`, can be cloned cheaply into
/// worker threads, and the cursors it opens own their inputs, so sessions
/// keep streaming even while other threads plan and run queries against
/// the same database.
///
/// ```
/// use re_sql::OwnedSqlExecutor;
/// use re_storage::{attr::attrs, Database, Relation};
/// use std::sync::Arc;
///
/// let mut db = Database::new();
/// db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]),
///     vec![vec![1, 10], vec![2, 10], vec![3, 11]]).unwrap()).unwrap();
///
/// let exec = OwnedSqlExecutor::new(Arc::new(db));
/// let mut cursor = exec.open(
///     "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
///      WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid",
/// ).unwrap();
/// assert_eq!(cursor.fetch(2), vec![vec![1, 1], vec![1, 2]]);
/// assert_eq!(cursor.fetch(1), vec![vec![2, 1]]);
/// ```
#[derive(Clone)]
pub struct OwnedSqlExecutor {
    db: Arc<Database>,
    weights: WeightAssignment,
    exec: ExecContext,
}

impl OwnedSqlExecutor {
    /// Executor whose `ORDER BY` weights are the attribute values.
    pub fn new(db: Arc<Database>) -> Self {
        OwnedSqlExecutor {
            db,
            weights: WeightAssignment::value_as_weight(),
            exec: ExecContext::serial(),
        }
    }

    /// Executor with an explicit weight assignment.
    pub fn with_weights(db: Arc<Database>, weights: WeightAssignment) -> Self {
        OwnedSqlExecutor {
            db,
            weights,
            exec: ExecContext::serial(),
        }
    }

    /// Route the preprocessing of every cursor this executor opens through
    /// `ctx` (e.g. a server-wide worker pool). Enumeration output is
    /// unaffected — parallel preprocessing is bit-for-bit deterministic.
    pub fn with_exec_context(mut self, ctx: ExecContext) -> Self {
        self.exec = ctx;
        self
    }

    /// The execution context cursors are opened under.
    pub fn exec_context(&self) -> &ExecContext {
        &self.exec
    }

    /// The shared database this executor runs against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Parse, plan and execute a statement.
    pub fn run(&self, sql: &str) -> Result<QueryResult, SqlError> {
        let statement = parse(sql)?;
        let plan = plan(&statement, &self.db)?;
        self.run_plan(&plan)
    }

    /// Parse and plan a statement without executing it. The returned plan
    /// is immutable and can be cached and shared across threads.
    pub fn plan(&self, sql: &str) -> Result<SqlPlan, SqlError> {
        let statement = parse(sql)?;
        plan(&statement, &self.db)
    }

    /// Execute an already-planned statement.
    pub fn run_plan(&self, plan: &SqlPlan) -> Result<QueryResult, SqlError> {
        run_plan_on(&self.db, &self.weights, plan, &self.exec)
    }

    /// Open a resumable cursor on a statement (see [`SqlExecutor::open`]).
    pub fn open(&self, sql: &str) -> Result<QueryCursor, SqlError> {
        let statement = parse(sql)?;
        let plan = plan(&statement, &self.db)?;
        self.open_plan(&plan)
    }

    /// Open a cursor on an already-planned (possibly cached) statement.
    pub fn open_plan(&self, plan: &SqlPlan) -> Result<QueryCursor, SqlError> {
        Ok(self.prepare_and_open_plan(plan)?.0)
    }

    /// [`OwnedSqlExecutor::open_plan`] that also hands back the cursor's
    /// prepared part, for callers that cache it and open later cursors on
    /// it with [`QueryCursor::open_prepared`].
    pub fn prepare_and_open_plan(
        &self,
        plan: &SqlPlan,
    ) -> Result<(QueryCursor, PreparedQuery), SqlError> {
        open_plan_on(&self.db, &self.weights, plan, &self.exec)
    }

    /// Parse any top-level input and dispatch it (see
    /// [`SqlExecutor::execute`]). `EXPLAIN ANALYZE` runs under this
    /// executor's execution context, so pooled preprocessing shows up in
    /// the per-operator counters and the recorded trace.
    pub fn execute(&self, sql: &str) -> Result<SqlOutput, SqlError> {
        let input = parse_input(sql)?;
        let plan = plan(&input.statement, &self.db)?;
        match input.explain {
            None => self.run_plan(&plan).map(SqlOutput::Rows),
            Some(mode) => self.explain_plan(&plan, mode).map(SqlOutput::Explained),
        }
    }

    /// Explain a statement. `sql` may be written with or without the
    /// `EXPLAIN [ANALYZE]` prefix; a written prefix overrides `mode`.
    pub fn explain(&self, sql: &str, mode: ExplainMode) -> Result<String, SqlError> {
        let input = parse_input(sql)?;
        let plan = plan(&input.statement, &self.db)?;
        self.explain_plan(&plan, input.explain.unwrap_or(mode))
    }

    /// Explain an already-planned (possibly cached) statement.
    pub fn explain_plan(&self, plan: &SqlPlan, mode: ExplainMode) -> Result<String, SqlError> {
        match mode {
            ExplainMode::Plan => explain_plan(&self.db, plan),
            ExplainMode::Analyze => explain_analyze(&self.db, &self.weights, plan, &self.exec),
        }
    }
}

/// Shared execution path of both executors: instantiate derived relations,
/// open a cursor, drain it.
fn run_plan_on(
    db: &Database,
    weights: &WeightAssignment,
    plan: &SqlPlan,
    ctx: &ExecContext,
) -> Result<QueryResult, SqlError> {
    let (mut cursor, _) = open_plan_on(db, weights, plan, ctx)?;
    let rows = cursor.fetch_all();
    Ok(QueryResult {
        columns: cursor.columns().to_vec(),
        rows,
    })
}

/// Shared cursor-opening path of both executors.
///
/// The cursor's enumerator copies the relations it needs during the
/// full-reducer pass, so the working database only has to *exist* for the
/// duration of the open. [`SqlPlan::working_database`] returns `None` for
/// plans without derived relations — those run directly against the
/// caller's database, no copy at all — and a minimal working set (the
/// referenced base relations plus the materialised filters) otherwise, so
/// open cost scales with the queried relations, not the whole catalog
/// entry.
/// The cursor comes with its prepared part, which outlives the working
/// database too.
pub(crate) fn open_plan_on(
    db: &Database,
    weights: &WeightAssignment,
    plan: &SqlPlan,
    ctx: &ExecContext,
) -> Result<(QueryCursor, PreparedQuery), SqlError> {
    match plan.working_database(db)? {
        None => QueryCursor::prepare_and_open(db, weights, plan, ctx),
        Some(working) => QueryCursor::prepare_and_open(&working, weights, plan, ctx),
    }
}

/// One-call convenience: execute `sql` against `db` with value-as-weight
/// ranking.
pub fn query(db: &Database, sql: &str) -> Result<QueryResult, SqlError> {
    SqlExecutor::new(db).run(sql)
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_ranking::Weight;
    use re_storage::attr::attrs;
    use re_storage::Relation;
    use std::collections::HashMap;

    /// A small DBLP-style database: authors write papers, papers carry an
    /// `is_research` flag.
    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AuthorPapers",
                attrs(["aid", "pid"]),
                vec![
                    vec![1, 10],
                    vec![2, 10],
                    vec![3, 10],
                    vec![1, 11],
                    vec![4, 11],
                    vec![5, 12],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples(
                "Paper",
                attrs(["pid", "is_research"]),
                vec![vec![10, 1], vec![11, 1], vec![12, 0]],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn two_hop_with_sum_order_and_limit() {
        let result = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid LIMIT 4",
        )
        .unwrap();
        assert_eq!(result.columns, vec!["AP1.aid", "AP2.aid"]);
        assert_eq!(
            result.rows,
            vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![1, 3]]
        );
    }

    #[test]
    fn results_are_distinct_and_rank_ordered_without_limit() {
        let result = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid",
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut last = 0u64;
        for row in &result.rows {
            assert!(seen.insert(row.clone()), "duplicate row {row:?}");
            let s = row[0] + row[1];
            assert!(s >= last, "rows out of rank order");
            last = s;
        }
        // co-author pairs: within paper 10 {1,2,3}² = 9, within 11 {1,4}² = 4,
        // within 12 {5}² = 1, minus overlaps ({1,1} counted once) = 13.
        assert_eq!(result.rows.len(), 13);
    }

    #[test]
    fn constant_filter_restricts_the_join() {
        // Only research papers (10, 11) qualify, so author 5 disappears.
        let result = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP2.aid \
             FROM AuthorPapers AS AP1, AuthorPapers AS AP2, Paper AS P \
             WHERE AP1.pid = AP2.pid AND AP1.pid = P.pid AND P.is_research = TRUE \
             ORDER BY AP1.aid + AP2.aid",
        )
        .unwrap();
        assert!(result.rows.iter().all(|r| r[0] != 5 && r[1] != 5));
        assert_eq!(result.rows.len(), 12);
    }

    #[test]
    fn lexicographic_order_with_desc() {
        let result = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid ORDER BY AP1.aid DESC, AP2.aid ASC LIMIT 3",
        )
        .unwrap();
        assert_eq!(result.rows, vec![vec![5, 5], vec![4, 1], vec![4, 4]]);
    }

    #[test]
    fn order_by_subset_of_selected_columns() {
        // Rank only by the first endpoint; the second column is projected but
        // does not contribute to the rank.
        let result = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP1.aid LIMIT 20",
        )
        .unwrap();
        let firsts: Vec<u64> = result.rows.iter().map(|r| r[0]).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(firsts, sorted, "rows must be sorted by the first endpoint");
    }

    #[test]
    fn default_order_is_sum_over_all_selected_columns() {
        let with_order = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid",
        )
        .unwrap();
        let without_order = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid",
        )
        .unwrap();
        assert_eq!(with_order.rows, without_order.rows);
    }

    #[test]
    fn union_merges_branches_in_rank_order() {
        let mut db = db();
        db.add_relation(
            Relation::with_tuples(
                "PersonMovie",
                attrs(["person", "movie"]),
                vec![vec![2, 20], vec![6, 20]],
            )
            .unwrap(),
        )
        .unwrap();
        let result = query(
            &db,
            "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
             WHERE AP1.pid = AP2.pid \
             UNION \
             SELECT DISTINCT PM1.person, PM2.person FROM PersonMovie AS PM1, PersonMovie AS PM2 \
             WHERE PM1.movie = PM2.movie \
             ORDER BY PM1.person + PM2.person LIMIT 6",
        )
        .unwrap();
        assert_eq!(result.rows.len(), 6);
        // ranked by endpoint sum across both branches
        let sums: Vec<u64> = result.rows.iter().map(|r| r[0] + r[1]).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable();
        assert_eq!(sums, sorted);
        // (2, 2) appears in both branches but only once in the output
        assert_eq!(
            result
                .rows
                .iter()
                .filter(|r| r.as_slice() == [2, 2])
                .count(),
            1
        );
    }

    #[test]
    fn explicit_weight_assignment_changes_the_order() {
        // Give author 3 a tiny weight so pairs containing it come first.
        let mut table = HashMap::new();
        table.insert(3u64, Weight::new(-100.0));
        let weights = WeightAssignment::value_as_weight()
            .with_table("AP1.aid", table.clone())
            .with_table("AP2.aid", table);
        let result = SqlExecutor::with_weights(&db(), weights)
            .run(
                "SELECT DISTINCT AP1.aid, AP2.aid \
                 FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
                 WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid LIMIT 1",
            )
            .unwrap();
        assert_eq!(result.rows, vec![vec![3, 3]]);
    }

    #[test]
    fn single_table_projection_with_filter() {
        let result = query(
            &db(),
            "SELECT DISTINCT P.pid FROM Paper AS P WHERE P.is_research = TRUE ORDER BY P.pid",
        )
        .unwrap();
        assert_eq!(result.rows, vec![vec![10], vec![11]]);
        assert_eq!(result.columns, vec!["P.pid"]);
    }

    #[test]
    fn empty_result_is_not_an_error() {
        let result = query(
            &db(),
            "SELECT DISTINCT P.pid FROM Paper AS P WHERE P.is_research = 77",
        )
        .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.len(), 0);
    }

    #[test]
    fn planner_errors_surface_through_run() {
        let err = query(&db(), "SELECT DISTINCT nope FROM Paper AS P").unwrap_err();
        assert!(matches!(err, SqlError::Resolution(_)));
        let err = query(&db(), "SELECT P.pid FROM Paper AS P").unwrap_err();
        assert!(matches!(err, SqlError::Unsupported(_)));
    }

    #[test]
    fn plan_can_be_reused_across_runs() {
        let db = db();
        let exec = SqlExecutor::new(&db);
        let plan = exec
            .plan(
                "SELECT DISTINCT AP1.aid, AP2.aid \
                 FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
                 WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid LIMIT 2",
            )
            .unwrap();
        let r1 = exec.run_plan(&plan).unwrap();
        let r2 = exec.run_plan(&plan).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.rows.len(), 2);
    }

    #[test]
    fn three_hop_path_query_through_sql() {
        // author –(paper)– author –(paper)– author, ranked by endpoints.
        let result = query(
            &db(),
            "SELECT DISTINCT AP1.aid, AP3.aid \
             FROM AuthorPapers AS AP1, AuthorPapers AS AP2, AuthorPapers AS AP3 \
             WHERE AP1.pid = AP2.pid AND AP2.aid = AP3.aid \
             ORDER BY AP1.aid + AP3.aid LIMIT 5",
        )
        .unwrap();
        assert_eq!(result.rows[0], vec![1, 1]);
        let sums: Vec<u64> = result.rows.iter().map(|r| r[0] + r[1]).collect();
        let mut sorted = sums.clone();
        sorted.sort_unstable();
        assert_eq!(sums, sorted);
    }
}
