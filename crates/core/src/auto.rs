//! Convenience dispatcher that picks an enumeration strategy from the query
//! structure, plus a one-call `top_k` helper.

use crate::acyclic::{AcyclicEnumerator, PreparedAcyclic};
use crate::cyclic::{CyclicEnumerator, PreparedCyclic};
use crate::error::EnumError;
use crate::stats::EnumStats;
use crate::stream::PreparedStream;
use re_exec::ExecContext;
use re_query::{Hypergraph, JoinProjectQuery};
use re_ranking::Ranking;
use re_storage::{Attr, Database, Tuple};
use std::sync::Arc;

/// The enumeration strategy the dispatcher picks for a query. Exposed as a
/// first-class value so that callers which cache plans (e.g. a query
/// server's plan cache) can record the selection without building an
/// enumerator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The general acyclic algorithm (Algorithms 1–2, Theorem 1).
    Acyclic,
    /// GHD-based evaluation for cyclic queries (Theorem 3).
    CyclicGhd,
    /// The specialised backtracking algorithm for lexicographic orders
    /// (Algorithm 3, Lemma 4).
    Lexi,
    /// Ranked merge over UCQ branch streams (Theorem 4).
    UnionMerge,
}

impl Algorithm {
    /// Stable human-readable label (used in protocol responses and logs).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Acyclic => "acyclic",
            Algorithm::CyclicGhd => "cyclic-ghd",
            Algorithm::Lexi => "lexi",
            Algorithm::UnionMerge => "union-merge",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The strategy [`RankedEnumerator::new`] would choose for `query` — a
/// structure-only decision (hypergraph acyclicity), no data access.
pub fn select(query: &JoinProjectQuery) -> Algorithm {
    if Hypergraph::of_query(query).is_acyclic() {
        Algorithm::Acyclic
    } else {
        Algorithm::CyclicGhd
    }
}

/// Whether the specialised lexicographic algorithm (Algorithm 3) can serve
/// `query` under `ORDER BY` the `declared` attribute sequence with the same
/// output sequence as the general algorithm would produce.
///
/// Conditions: the query must be acyclic (the lexi engine enumerates over a
/// join tree), and at most one projection attribute may be missing from the
/// declared order — both engines append missing attributes as the implicit
/// order suffix, but they tie-break the *relative* order of two or more
/// undeclared attributes differently (lexi uses projection order, the
/// general algorithm the root node's subtree layout), so routing is only
/// safe when the suffix has at most one attribute.
pub fn lexi_serves(query: &JoinProjectQuery, declared: &[Attr]) -> bool {
    if !Hypergraph::of_query(query).is_acyclic() {
        return false;
    }
    let declared_projected = query
        .projection()
        .iter()
        .filter(|p| declared.contains(p))
        .count();
    query.projection().len() - declared_projected <= 1
}

/// The strategy for `query` given its ranking: `lex_order` carries the
/// declared attribute sequence of a lexicographic `ORDER BY` (and `None`
/// for SUM-like rankings). Since PR 4 made Algorithm 3 index-backed, lexi
/// is the fast path for lexicographic orders — it replaces per-answer
/// priority-queue work with a memoized hash probe and a cursor bump — so
/// the dispatcher prefers it whenever [`lexi_serves`] holds.
pub fn select_ranked(query: &JoinProjectQuery, lex_order: Option<&[Attr]>) -> Algorithm {
    match lex_order {
        Some(declared) if lexi_serves(query, declared) => Algorithm::Lexi,
        _ => select(query),
    }
}

/// The preprocessing phase of the strategy [`select`] picks for `query`
/// (the general acyclic algorithm, or GHD-based evaluation with a
/// cost-based plan), type-erased so callers can cache it and open any
/// number of cursors on it.
pub fn prepare_ranked<R: Ranking + Clone + 'static>(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: R,
    ctx: &ExecContext,
) -> Result<Arc<dyn PreparedStream>, EnumError> {
    Ok(match select(query) {
        Algorithm::Acyclic => Arc::new(PreparedAcyclic::prepare(query, db, ranking, ctx)?),
        _ => Arc::new(PreparedCyclic::prepare(query, db, ranking, ctx)?),
    })
}

/// A ranked enumerator for any join-project query: acyclic queries go to
/// [`AcyclicEnumerator`], cyclic ones to [`CyclicEnumerator`] with an
/// automatically chosen GHD plan.
pub enum RankedEnumerator<R: Ranking + Clone> {
    /// The query is acyclic (Theorem 1).
    Acyclic(AcyclicEnumerator<R>),
    /// The query is cyclic and evaluated through a GHD (Theorem 3).
    Cyclic(CyclicEnumerator<R>),
}

impl<R: Ranking + Clone> RankedEnumerator<R> {
    /// Build an enumerator for `query` over `db` under `ranking`.
    pub fn new(query: &JoinProjectQuery, db: &Database, ranking: R) -> Result<Self, EnumError> {
        Self::new_ctx(query, db, ranking, &ExecContext::serial())
    }

    /// Build an enumerator whose preprocessing (full reducer, GHD bag
    /// materialisation) runs under `ctx` — pooled contexts parallelise it
    /// without changing a single output byte.
    pub fn new_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        match select(query) {
            Algorithm::Acyclic => Ok(RankedEnumerator::Acyclic(AcyclicEnumerator::new_ctx(
                query, db, ranking, ctx,
            )?)),
            _ => Ok(RankedEnumerator::Cyclic(CyclicEnumerator::open(Arc::new(
                PreparedCyclic::prepare(query, db, ranking, ctx)?,
            )))),
        }
    }

    /// Whether the acyclic strategy was selected.
    pub fn is_acyclic(&self) -> bool {
        matches!(self, RankedEnumerator::Acyclic(_))
    }

    /// The strategy this enumerator runs.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            RankedEnumerator::Acyclic(_) => Algorithm::Acyclic,
            RankedEnumerator::Cyclic(_) => Algorithm::CyclicGhd,
        }
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        match self {
            RankedEnumerator::Acyclic(e) => e.output_attrs(),
            RankedEnumerator::Cyclic(e) => e.output_attrs(),
        }
    }

    /// Enumeration statistics.
    pub fn stats(&self) -> &EnumStats {
        match self {
            RankedEnumerator::Acyclic(e) => e.stats(),
            RankedEnumerator::Cyclic(e) => e.stats(),
        }
    }
}

impl<R: Ranking + Clone> Iterator for RankedEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        match self {
            RankedEnumerator::Acyclic(e) => e.next(),
            RankedEnumerator::Cyclic(e) => e.next(),
        }
    }
}

/// The `LIMIT k` entry point: the `k` highest-ranked distinct answers of a
/// join-project query, in rank order. The enumeration stops after `k`
/// answers — the whole point of the paper is that this costs far less than
/// materialising the full join.
pub fn top_k<R: Ranking + Clone>(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: R,
    k: usize,
) -> Result<Vec<Tuple>, EnumError> {
    Ok(RankedEnumerator::new(query, db, ranking)?.take(k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::SumRanking;
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "E",
                attrs(["s", "t"]),
                vec![vec![1, 2], vec![2, 3], vec![3, 1], vec![2, 4]],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn dispatches_acyclic() {
        let q = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let e = RankedEnumerator::new(&q, &db(), SumRanking::value_sum()).unwrap();
        assert!(e.is_acyclic());
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results.len(), 4); // (1,3),(2,1),(3,2),(2,4)... distinct x,z pairs
    }

    #[test]
    fn dispatches_cyclic() {
        let q = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .atom("E3", "E", ["z", "x"])
            .project(["x", "y"])
            .build()
            .unwrap();
        let e = RankedEnumerator::new(&q, &db(), SumRanking::value_sum()).unwrap();
        assert!(!e.is_acyclic());
        let results: Vec<Tuple> = e.collect();
        // Triangle rotations projected to (x, y), ranked by x + y.
        assert_eq!(results, vec![vec![1, 2], vec![3, 1], vec![2, 3]]);
    }

    #[test]
    fn select_ranked_prefers_lexi_for_lexicographic_orders() {
        use re_storage::attr::attrs;
        let acyclic = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        // Fully declared lex order → lexi.
        assert!(lexi_serves(&acyclic, &attrs(["x", "z"])));
        assert_eq!(
            select_ranked(&acyclic, Some(&attrs(["x", "z"]))),
            Algorithm::Lexi
        );
        // One undeclared projection attribute: the suffix is unambiguous.
        assert_eq!(
            select_ranked(&acyclic, Some(&attrs(["x"]))),
            Algorithm::Lexi
        );
        // SUM ranking keeps the general algorithm.
        assert_eq!(select_ranked(&acyclic, None), Algorithm::Acyclic);
        // Two undeclared attributes: the engines disagree on the implicit
        // suffix order, so stay on the general algorithm.
        let wide = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "y", "z"])
            .build()
            .unwrap();
        assert_eq!(
            select_ranked(&wide, Some(&attrs(["x"]))),
            Algorithm::Acyclic
        );
        // Cyclic queries never route to lexi.
        let cyclic = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .atom("E3", "E", ["z", "x"])
            .project(["x", "y"])
            .build()
            .unwrap();
        assert_eq!(
            select_ranked(&cyclic, Some(&attrs(["x", "y"]))),
            Algorithm::CyclicGhd
        );
    }

    #[test]
    fn top_k_truncates() {
        let q = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let top2 = top_k(&q, &db(), SumRanking::value_sum(), 2).unwrap();
        assert_eq!(top2.len(), 2);
        let all = top_k(&q, &db(), SumRanking::value_sum(), 100).unwrap();
        assert_eq!(&all[..2], &top2[..]);
    }
}
