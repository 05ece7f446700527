//! Correctness of answer streams: distinct rows in non-decreasing rank
//! within a session, and every fetched prefix equal — up to the order of
//! tied rows — to the materialise-and-sort oracle of `re_baseline`.
//!
//! The rank key is computed here from the ORDER BY columns (value-as-weight
//! sums, or the lexicographic tuple), not taken from the library's ranking
//! code, so a ranking bug cannot hide behind itself.

use crate::workload::{Data, Shape, Statement, MEMBERSHIP};
use re_baseline::MaterializeSortEngine;
use re_query::QueryBuilder;
use re_ranking::{LexRanking, SumRanking, WeightAssignment};
use re_storage::{Database, Tuple, Value};
use std::collections::HashSet;

/// A row's rank key: smaller ranks first.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// Sum of the row's values (`ORDER BY a + b + ...`).
    Sum(u128),
    /// The row itself, compared column by column (`ORDER BY a, b ASC`).
    Lex(Vec<Value>),
}

/// The rank key of `row` under `shape`'s ORDER BY (every statement orders
/// by all of its output columns, in output order).
pub fn key(shape: Shape, row: &[Value]) -> Key {
    if shape.is_lex() {
        Key::Lex(row.to_vec())
    } else {
        Key::Sum(row.iter().map(|&v| u128::from(v)).sum())
    }
}

/// Indices of the rows of one session's stream that break the in-session
/// contract: a repeat of an earlier row, or a rank below its predecessor.
pub fn order_violations(shape: Shape, rows: &[Tuple]) -> Vec<usize> {
    let mut seen: HashSet<&[Value]> = HashSet::with_capacity(rows.len());
    let mut bad = Vec::new();
    let mut prev: Option<Key> = None;
    for (i, row) in rows.iter().enumerate() {
        let k = key(shape, row);
        let out_of_order = prev.as_ref().is_some_and(|p| k < *p);
        if !seen.insert(row.as_slice()) || out_of_order {
            bad.push(i);
        }
        prev = Some(k);
    }
    bad
}

/// Check a fetched prefix against the oracle's full answer list (sorted by
/// [`key`]). Rows strictly before the last rank in the prefix must be
/// exactly the oracle's rows of those ranks; rows of the last rank must be
/// some of the oracle's rows of that rank (ties may come in any order and
/// the prefix may cut through them). An exhausted stream must hold every
/// answer. Returns the index of the first offending row.
pub fn prefix_mismatch(
    shape: Shape,
    got: &[Tuple],
    oracle: &[Tuple],
    exhausted: bool,
) -> Option<usize> {
    let n = got.len();
    if n > oracle.len() {
        return Some(oracle.len());
    }
    if exhausted && n < oracle.len() {
        return Some(n.saturating_sub(1));
    }
    if n == 0 {
        return None;
    }
    // Rank multisets must agree position by position.
    for i in 0..n {
        if key(shape, &got[i]) != key(shape, &oracle[i]) {
            return Some(i);
        }
    }
    let last = key(shape, &oracle[n - 1]);
    let tie_start = oracle[..n]
        .iter()
        .position(|r| key(shape, r) == last)
        .expect("the last row has the last rank");
    let below: HashSet<&[Value]> = oracle[..tie_start].iter().map(|r| r.as_slice()).collect();
    if let Some(i) = got[..tie_start]
        .iter()
        .position(|r| !below.contains(r.as_slice()))
    {
        return Some(i);
    }
    let tied: HashSet<&[Value]> = oracle[tie_start..]
        .iter()
        .take_while(|r| key(shape, r) == last)
        .map(|r| r.as_slice())
        .collect();
    got[tie_start..]
        .iter()
        .position(|r| !tied.contains(r.as_slice()))
        .map(|i| tie_start + i)
}

/// The answers of `stmt` that rank at or before `bound` (every answer when
/// `bound` is `None`), sorted by [`key`] (ties by row), computed by
/// `re_baseline`'s blocking materialise + DISTINCT + sort plan.
///
/// Rank keys are sums of non-negative values (or the row itself), so an
/// answer ranking at or before `bound` has every ranked column at most the
/// bound's sum (or its first column at most the bound's first column).
/// The oracle therefore restricts those columns in each atom before it
/// materialises — a selection, not a change of the result — which keeps
/// the blocking plan affordable on deep prefixes. The UNION's answers are
/// the union of its branches' oracle answers.
pub fn oracle(stmt: &Statement, data: &Data, bound: Option<&[Value]>) -> Vec<Tuple> {
    let shape = stmt.shape;
    let db = data.db(shape.db());
    let limit = bound.map(|row| match key(shape, row) {
        Key::Sum(s) => Value::try_from(s).unwrap_or(Value::MAX),
        Key::Lex(r) => r[0],
    });
    // Filters of one atom: (column, anchor equality) and (columns, bound).
    let pin = |anchored: bool| {
        if anchored {
            stmt.anchor
        } else {
            None
        }
    };
    let le = |cols: &'static [usize]| limit.map(|l| (cols, l));
    let m = MEMBERSHIP;
    let branches: Vec<Vec<AtomSpec>> = match shape {
        Shape::TwoHopSum | Shape::TwoHopLex => vec![vec![
            AtomSpec::new(m, ["a1", "p"], pin(true), le(&[0])),
            AtomSpec::new(
                m,
                ["a2", "p"],
                None,
                if shape.is_lex() { None } else { le(&[0]) },
            ),
        ]],
        Shape::ThreeStarSum => vec![vec![
            AtomSpec::new(m, ["a1", "p"], pin(true), le(&[0])),
            AtomSpec::new(m, ["a2", "p"], None, le(&[0])),
            AtomSpec::new(m, ["a3", "p"], None, le(&[0])),
        ]],
        Shape::FourCycleSum => vec![vec![
            AtomSpec::new(m, ["a1", "p1"], pin(true), le(&[0])),
            AtomSpec::new(m, ["a2", "p1"], None, le(&[0])),
            AtomSpec::new(m, ["a2", "p2"], None, le(&[0])),
            AtomSpec::new(m, ["a1", "p2"], None, le(&[0])),
        ]],
        Shape::KnowsUnion => vec![
            vec![AtomSpec::new("Knows", ["p", "f"], pin(true), le(&[0, 1]))],
            vec![
                AtomSpec::new("Knows", ["p", "m"], pin(true), le(&[0])),
                AtomSpec::new("Knows", ["m", "f"], None, le(&[1])),
            ],
        ],
        Shape::ThreeHopSum => vec![vec![
            AtomSpec::new(m, ["a1", "p1"], pin(true), le(&[0])),
            AtomSpec::new(m, ["b", "p1"], None, None),
            AtomSpec::new(m, ["b", "p2"], None, None),
            AtomSpec::new(m, ["a4", "p2"], None, le(&[0])),
        ]],
    };
    let projection: &[&str] = match shape {
        Shape::ThreeStarSum => &["a1", "a2", "a3"],
        Shape::ThreeHopSum => &["a1", "a4"],
        Shape::KnowsUnion => &["p", "f"],
        _ => &["a1", "a2"],
    };
    let rows = branches
        .iter()
        .flat_map(|atoms| materialise(db, atoms, projection, shape))
        .collect();
    finish(shape, rows, bound)
}

/// Sort by rank, drop duplicates (UNION branches overlap) and rows past
/// the bound.
fn finish(shape: Shape, mut rows: Vec<Tuple>, bound: Option<&[Value]>) -> Vec<Tuple> {
    rows.sort_by_cached_key(|r| (key(shape, r), r.clone()));
    rows.dedup();
    if let Some(bound) = bound {
        let last = key(shape, bound);
        rows.retain(|r| key(shape, r) <= last);
    }
    rows
}

/// One atom of an oracle query: a base relation read under optional
/// selections.
struct AtomSpec {
    relation: &'static str,
    vars: [&'static str; 2],
    /// Column 0 must equal this constant.
    anchor: Option<Value>,
    /// These columns must be at most this value.
    at_most: Option<(&'static [usize], Value)>,
}

impl AtomSpec {
    fn new(
        relation: &'static str,
        vars: [&'static str; 2],
        anchor: Option<Value>,
        at_most: Option<(&'static [usize], Value)>,
    ) -> Self {
        AtomSpec {
            relation,
            vars,
            anchor,
            at_most,
        }
    }
}

/// Materialise the distinct projection of the atoms' join with
/// `MaterializeSortEngine`, each atom reading its own filtered copy of
/// its relation.
fn materialise(db: &Database, atoms: &[AtomSpec], projection: &[&str], shape: Shape) -> Vec<Tuple> {
    let mut filtered = Database::new();
    let mut builder = QueryBuilder::new();
    for (i, atom) in atoms.iter().enumerate() {
        let name = format!("oracle_atom{i}");
        let mut rel = db.relation(atom.relation).expect("oracle relation").clone();
        rel.retain(|t| {
            atom.anchor.is_none_or(|c| t[0] == c)
                && atom
                    .at_most
                    .is_none_or(|(cols, l)| cols.iter().all(|&c| t[c] <= l))
        });
        rel.set_name(name.clone());
        filtered.set_relation(rel);
        builder = builder.atom(name.clone(), name, atom.vars);
    }
    let query = builder
        .project(projection.iter().copied())
        .build()
        .expect("oracle query is well formed");
    let engine = MaterializeSortEngine::new();
    let (rows, _) = if shape.is_lex() {
        let ranking = LexRanking::new(
            query.projection().to_vec(),
            WeightAssignment::value_as_weight(),
        );
        engine.top_k(&query, &filtered, &ranking, usize::MAX)
    } else {
        engine.top_k(&query, &filtered, &SumRanking::value_sum(), usize::MAX)
    }
    .expect("oracle plan runs");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::{attr::attrs, Relation};

    fn rows(v: &[[Value; 2]]) -> Vec<Tuple> {
        v.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn sorted_distinct_stream_passes() {
        let got = rows(&[[1, 1], [1, 2], [2, 1], [2, 2]]);
        assert!(order_violations(Shape::TwoHopSum, &got).is_empty());
        assert!(order_violations(Shape::TwoHopLex, &got).is_empty());
    }

    #[test]
    fn swapped_rows_are_caught() {
        let got = rows(&[[1, 1], [2, 2], [1, 2]]);
        assert_eq!(order_violations(Shape::TwoHopSum, &got), vec![2]);
        let oracle = rows(&[[1, 1], [1, 2], [2, 1], [2, 2]]);
        assert_eq!(
            prefix_mismatch(Shape::TwoHopSum, &got, &oracle, false),
            Some(1)
        );
    }

    #[test]
    fn duplicates_are_caught() {
        let got = rows(&[[1, 1], [1, 2], [1, 2]]);
        assert_eq!(order_violations(Shape::TwoHopSum, &got), vec![2]);
    }

    #[test]
    fn ties_may_come_in_any_order_and_be_cut() {
        let oracle = rows(&[[1, 1], [1, 2], [2, 1], [1, 3], [2, 2], [3, 1]]);
        let got = rows(&[[1, 1], [2, 1], [1, 2], [3, 1]]);
        assert_eq!(
            prefix_mismatch(Shape::TwoHopSum, &got, &oracle, false),
            None
        );
        // A row of the right rank that is not an answer is caught.
        let got = rows(&[[1, 1], [2, 1], [1, 2], [0, 4]]);
        assert_eq!(
            prefix_mismatch(Shape::TwoHopSum, &got, &oracle, false),
            Some(3)
        );
        // An exhausted stream must be complete.
        let got = oracle[..5].to_vec();
        assert_eq!(
            prefix_mismatch(Shape::TwoHopSum, &got, &oracle, true),
            Some(4)
        );
        assert_eq!(
            prefix_mismatch(Shape::TwoHopSum, &oracle, &oracle, true),
            None
        );
    }

    #[test]
    fn oracle_matches_a_hand_computed_two_hop() {
        let mut db = Database::new();
        db.set_relation(
            Relation::with_tuples(
                MEMBERSHIP,
                attrs(["aid", "pid"]),
                vec![vec![1, 10], vec![2, 10], vec![3, 11]],
            )
            .unwrap(),
        );
        let data = Data {
            dbs: vec![(crate::workload::DBLP, std::sync::Arc::new(db))],
            sizes: crate::workload::Workload::TopkHot.sizes(),
        };
        let all = oracle(
            &Statement {
                shape: Shape::TwoHopSum,
                anchor: None,
            },
            &data,
            None,
        );
        assert_eq!(all, rows(&[[1, 1], [1, 2], [2, 1], [2, 2], [3, 3]]));
        let anchored = oracle(
            &Statement {
                shape: Shape::TwoHopSum,
                anchor: Some(2),
            },
            &data,
            None,
        );
        assert_eq!(anchored, rows(&[[2, 1], [2, 2]]));
    }
}
