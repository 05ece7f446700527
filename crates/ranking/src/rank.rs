//! The [`Ranking`] trait and the concrete ranking functions.
//!
//! A ranking function maps an output tuple (a list of values over a known
//! attribute list) to a totally ordered *key*. The enumeration algorithms
//! compute keys for *partial* outputs — the projection attributes of a
//! join-tree subtree — so the key must be meaningful for any attribute
//! subset, and it must be **monotone**: making one part of the tuple worse
//! (a larger key for the sub-tuple) can never make the whole tuple better.
//! SUM, LEXICOGRAPHIC, MIN and MAX all have this property.

use crate::assignment::WeightAssignment;
use crate::key::RankKey;
use crate::weight::{ExactSum, Weight};
use re_storage::{Attr, Value};
use std::fmt::Debug;

/// A ranking function with a totally ordered key.
///
/// `Ranking`, its keys and its plans are required to be [`Send`]: the
/// enumerators own their inputs (relations are copied out of the database
/// during the full-reducer pass), so a `Send` ranking is all it takes for a
/// live enumerator to migrate between threads — which is what lets a query
/// server keep enumerators alive as resumable cursors served by a worker
/// pool. `Sync` (on the ranking, its keys and plans) lets the immutable
/// result of preprocessing be shared by cursors on several threads at
/// once. Every ranking in this crate satisfies the bounds (weight tables
/// are shared behind `Arc`).
pub trait Ranking: Send + Sync {
    /// The key type; answers are enumerated in non-decreasing key order.
    /// The [`RankKey`] bound (a representation fingerprint plus a heap-byte
    /// estimate on top of `Ord + Clone + Send + Sync`) is what lets the frontier
    /// kernel intern keys and account their memory.
    type Key: RankKey;
    /// A per-attribute-list plan, precomputed once per join-tree node so
    /// that key computation during enumeration is a constant-time loop.
    type Plan: Clone + Debug + Send + Sync;

    /// Precompute a key plan for tuples over `attrs` (in that order).
    fn plan(&self, attrs: &[Attr]) -> Self::Plan;

    /// Compute the key of a tuple `values` laid out according to `plan`.
    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key;

    /// Convenience: plan + key in one call (used on final outputs and in
    /// tests; enumerators use cached plans).
    fn key_of(&self, attrs: &[Attr], values: &[Value]) -> Self::Key {
        self.key(&self.plan(attrs), values)
    }
}

/// `SUM` ranking: the key of a tuple is the sum of its attribute-value
/// weights (Example 1 / Example 3 of the paper).
#[derive(Clone, Debug)]
pub struct SumRanking {
    weights: WeightAssignment,
}

impl SumRanking {
    /// Rank by the sum of weights under the given assignment.
    pub fn new(weights: WeightAssignment) -> Self {
        SumRanking { weights }
    }

    /// Rank by the sum of the raw attribute values.
    pub fn value_sum() -> Self {
        SumRanking::new(WeightAssignment::value_as_weight())
    }

    /// Access the underlying weight assignment.
    pub fn weights(&self) -> &WeightAssignment {
        &self.weights
    }
}

impl Ranking for SumRanking {
    /// Keys are [`ExactSum`]s rather than plain floats: exact summation is
    /// what makes the key of a tuple independent of the order its weights
    /// are added in, which the enumerators' duplicate elimination relies on
    /// (see [`ExactSum`] for the invariants).
    type Key = ExactSum;
    type Plan = Vec<Attr>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        attrs.to_vec()
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        debug_assert_eq!(plan.len(), values.len());
        ExactSum::of(
            plan.iter()
                .zip(values)
                .map(|(a, &v)| self.weights.weight_of(a, v)),
        )
    }
}

/// Sort direction of one attribute in a lexicographic order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smallest weight first.
    Asc,
    /// Largest weight first.
    Desc,
}

/// `LEXICOGRAPHIC` ranking: tuples are ordered by the weights of their
/// attributes following a global attribute priority order, each attribute
/// ascending or descending (`ORDER BY A1 ASC, A2 DESC, ...`).
#[derive(Clone, Debug)]
pub struct LexRanking {
    order: Vec<(Attr, Direction)>,
    weights: WeightAssignment,
}

impl LexRanking {
    /// Ascending lexicographic order over `order` with the given weights.
    pub fn new(
        order: impl IntoIterator<Item = impl Into<Attr>>,
        weights: WeightAssignment,
    ) -> Self {
        LexRanking {
            order: order
                .into_iter()
                .map(|a| (a.into(), Direction::Asc))
                .collect(),
            weights,
        }
    }

    /// Lexicographic order with explicit per-attribute directions.
    pub fn with_directions(
        order: impl IntoIterator<Item = (impl Into<Attr>, Direction)>,
        weights: WeightAssignment,
    ) -> Self {
        LexRanking {
            order: order.into_iter().map(|(a, d)| (a.into(), d)).collect(),
            weights,
        }
    }

    /// The declared attribute priority order with directions.
    pub fn order(&self) -> &[(Attr, Direction)] {
        &self.order
    }

    /// The underlying weight assignment.
    pub fn weights(&self) -> &WeightAssignment {
        &self.weights
    }

    /// The global priority position of an attribute (attributes outside the
    /// declared order sort last, in declaration order of the node).
    fn position(&self, attr: &Attr) -> usize {
        self.order
            .iter()
            .position(|(a, _)| a == attr)
            .unwrap_or(self.order.len())
    }

    fn direction(&self, attr: &Attr) -> Direction {
        self.order
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, d)| *d)
            .unwrap_or(Direction::Asc)
    }
}

/// Key plan for [`LexRanking`]: for each key slot (in global priority
/// order), which input position to read, which attribute it is, and its
/// direction.
#[derive(Clone, Debug)]
pub struct LexPlan {
    slots: Vec<(usize, Attr, Direction)>,
}

impl Ranking for LexRanking {
    type Key = Vec<Weight>;
    type Plan = LexPlan;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        let mut slots: Vec<(usize, Attr, Direction)> = attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.clone(), self.direction(a)))
            .collect();
        slots.sort_by_key(|(i, a, _)| (self.position(a), *i));
        LexPlan { slots }
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        plan.slots
            .iter()
            .map(|(i, a, d)| {
                let w = self.weights.weight_of(a, values[*i]);
                match d {
                    Direction::Asc => w,
                    Direction::Desc => -w,
                }
            })
            .collect()
    }
}

/// `MIN` ranking (extension): the key of a tuple is the minimum attribute
/// weight. Monotone, hence compatible with the enumeration machinery.
#[derive(Clone, Debug)]
pub struct MinRanking {
    weights: WeightAssignment,
}

impl MinRanking {
    /// Rank by the minimum weight.
    pub fn new(weights: WeightAssignment) -> Self {
        MinRanking { weights }
    }
}

impl Ranking for MinRanking {
    type Key = Weight;
    type Plan = Vec<Attr>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        attrs.to_vec()
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        plan.iter()
            .zip(values)
            .map(|(a, &v)| self.weights.weight_of(a, v))
            .min()
            .unwrap_or(Weight::ZERO)
    }
}

/// `MAX` ranking (extension): the key of a tuple is the maximum attribute
/// weight.
#[derive(Clone, Debug)]
pub struct MaxRanking {
    weights: WeightAssignment,
}

impl MaxRanking {
    /// Rank by the maximum weight.
    pub fn new(weights: WeightAssignment) -> Self {
        MaxRanking { weights }
    }
}

impl Ranking for MaxRanking {
    type Key = Weight;
    type Plan = Vec<Attr>;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        attrs.to_vec()
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        plan.iter()
            .zip(values)
            .map(|(a, &v)| self.weights.weight_of(a, v))
            .max()
            .unwrap_or(Weight::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::attr::attrs;

    #[test]
    fn sum_ranking_adds_weights() {
        let r = SumRanking::value_sum();
        let k = r.key_of(&attrs(["a", "b"]), &[3, 4]);
        assert_eq!(k, Weight::new(7.0));
    }

    #[test]
    fn sum_ranking_orders_tuples() {
        let r = SumRanking::value_sum();
        let a = attrs(["a", "b"]);
        assert!(r.key_of(&a, &[1, 1]) < r.key_of(&a, &[1, 2]));
        assert!(r.key_of(&a, &[5, 0]) == r.key_of(&a, &[0, 5]));
    }

    #[test]
    fn lex_ranking_respects_global_order_regardless_of_node_layout() {
        let r = LexRanking::new(["x", "y"], WeightAssignment::value_as_weight());
        // node stores attributes in reverse order (y, x): the plan must put
        // x's weight first in the key anyway.
        let plan = r.plan(&attrs(["y", "x"]));
        let k1 = r.key(&plan, &[100, 1]); // y=100, x=1
        let k2 = r.key(&plan, &[0, 2]); // y=0,   x=2
        assert!(k1 < k2, "x is the primary sort attribute");
    }

    #[test]
    fn lex_ranking_desc_direction_flips_order() {
        let r = LexRanking::with_directions(
            [("x", Direction::Desc), ("y", Direction::Asc)],
            WeightAssignment::value_as_weight(),
        );
        let a = attrs(["x", "y"]);
        let hi = r.key_of(&a, &[10, 0]);
        let lo = r.key_of(&a, &[1, 0]);
        assert!(hi < lo, "descending on x: larger x sorts first");
    }

    #[test]
    fn lex_ranking_ties_fall_through_to_next_attr() {
        let r = LexRanking::new(["x", "y"], WeightAssignment::value_as_weight());
        let a = attrs(["x", "y"]);
        assert!(r.key_of(&a, &[1, 5]) < r.key_of(&a, &[1, 6]));
    }

    #[test]
    fn min_max_rankings() {
        let w = WeightAssignment::value_as_weight();
        let a = attrs(["x", "y", "z"]);
        assert_eq!(
            MinRanking::new(w.clone()).key_of(&a, &[5, 2, 9]),
            Weight::new(2.0)
        );
        assert_eq!(MaxRanking::new(w).key_of(&a, &[5, 2, 9]), Weight::new(9.0));
    }

    #[test]
    fn sum_monotonicity_on_subtuple_replacement() {
        // Replacing the sub-tuple contribution (position 1) with a larger
        // weight never decreases the total key.
        let r = SumRanking::value_sum();
        let a = attrs(["p", "q"]);
        let base = r.key_of(&a, &[3, 4]);
        let bumped = r.key_of(&a, &[3, 6]);
        assert!(bumped >= base);
    }

    #[test]
    fn lex_monotonicity_on_subtuple_replacement() {
        let r = LexRanking::new(["p", "q", "s"], WeightAssignment::value_as_weight());
        let a = attrs(["p", "q", "s"]);
        let base = r.key_of(&a, &[3, 4, 7]);
        // make the (q, s) sub-tuple lexicographically larger while keeping p
        let bumped = r.key_of(&a, &[3, 5, 0]);
        assert!(bumped >= base);
    }
}
