//! # re-sql — SQL front-end for ranked enumeration
//!
//! The paper's workloads are written as SQL statements of the shape
//!
//! ```sql
//! SELECT DISTINCT A1.name, A2.name
//! FROM   Author AS A1, Author AS A2, AuthorPapers AS AP1, AuthorPapers AS AP2
//! WHERE  AP1.pid = AP2.pid AND AP1.aid = A1.aid AND AP2.aid = A2.aid
//! ORDER  BY A1.weight + A2.weight LIMIT 100;
//! ```
//!
//! This crate parses that fragment (conjunctive `SELECT DISTINCT` with
//! equality joins, constant filters, `SUM` or lexicographic `ORDER BY`,
//! `LIMIT`, and `UNION`s of such blocks), plans it into a
//! [`re_query::JoinProjectQuery`] / [`re_query::UnionQuery`] with pushed-down
//! selections, and executes it with the ranked enumerators of
//! `rankedenum-core` — so a `LIMIT k` query pays for `k` answers, not for the
//! full join.
//!
//! ```
//! use re_sql::query;
//! use re_storage::{attr::attrs, Database, Relation};
//!
//! let mut db = Database::new();
//! db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]),
//!     vec![vec![1, 10], vec![2, 10], vec![3, 11], vec![1, 11]]).unwrap()).unwrap();
//!
//! let top = query(&db,
//!     "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
//!      WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid LIMIT 3").unwrap();
//! assert_eq!(top.rows, vec![vec![1, 1], vec![1, 2], vec![2, 1]]);
//! ```
//!
//! ## Scope and deliberate limitations
//!
//! * Only `SELECT DISTINCT` is accepted: the enumeration semantics of
//!   join-project queries are set semantics, and silently deduplicating a
//!   bag-semantics query would change its meaning.
//! * `WHERE` supports conjunctions of equality predicates (`a.x = b.y`,
//!   `a.x = 42`, `a.x = TRUE/FALSE`). Values are the dictionary-encoded
//!   integers of `re-storage`.
//! * `ORDER BY` must reference selected columns, because the paper's ranking
//!   functions are defined over the projection attributes. `a + b + c` maps
//!   to `SUM`, a comma list with optional `ASC`/`DESC` maps to
//!   `LEXICOGRAPHIC`; weights default to the attribute values and can be
//!   overridden with a [`re_ranking::WeightAssignment`].

pub mod ast;
pub mod cursor;
pub mod error;
pub mod exec;
pub mod explain;
pub mod normalize;
pub mod parser;
pub mod planner;
pub mod token;

pub use ast::{
    ColumnRef, ExplainMode, OrderBy, Predicate, SelectStatement, SqlInput, Statement, TableRef,
};
pub use cursor::{PreparedQuery, QueryCursor};
pub use error::SqlError;
pub use exec::{query, OwnedSqlExecutor, QueryResult, SqlExecutor, SqlOutput};
pub use explain::{explain_analyze, explain_plan, explain_query};
pub use normalize::normalize;
pub use parser::{parse, parse_input};
pub use planner::{plan, DerivedRelation, OrderSpec, PlannedQuery, PushedFilter, SqlPlan};
pub use token::{tokenize, Keyword, Token};

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::attr::attrs;
    use re_storage::{Database, Relation};

    #[test]
    fn end_to_end_smoke() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("E", attrs(["s", "t"]), vec![vec![1, 2], vec![2, 3]]).unwrap(),
        )
        .unwrap();
        let result = query(
            &db,
            "SELECT DISTINCT E1.s, E2.t FROM E AS E1, E AS E2 WHERE E1.t = E2.s \
             ORDER BY E1.s + E2.t",
        )
        .unwrap();
        assert_eq!(result.rows, vec![vec![1, 3]]);
        assert_eq!(result.columns, vec!["E1.s", "E2.t"]);
    }
}
