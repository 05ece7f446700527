//! Ranked enumeration for unions of join-project queries (Theorem 4).
//!
//! Each branch of the UCQ is enumerated by its own ranked enumerator
//! (acyclic or GHD-based); the branch streams are merged by rank, and
//! duplicates — which, across branches, are always adjacent because every
//! stream is sorted by `(key, tuple)` — are suppressed with a last-answer
//! check.

use crate::auto::prepare_ranked;
use crate::error::EnumError;
use crate::merge::MergeEntry;
use crate::stats::{EnumStats, StatsSnapshot};
use crate::stream::{PreparedStream, RankedStream};
use re_exec::ExecContext;
use re_query::UnionQuery;
use re_ranking::Ranking;
use re_storage::{Attr, Database, Tuple};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One merged input: either a full ranked enumerator (whose statistics
/// stay observable) or an opaque sorted iterator supplied through
/// [`UnionEnumerator::from_streams`].
enum BranchStream {
    /// A live enumerator; its counters contribute to
    /// [`UnionEnumerator::stats_snapshot`].
    Ranked(Box<dyn RankedStream>),
    /// An arbitrary `(key, tuple)`-sorted source with no visible stats.
    Plain(Box<dyn Iterator<Item = Tuple> + Send>),
}

impl BranchStream {
    fn snapshot(&self) -> StatsSnapshot {
        match self {
            BranchStream::Ranked(s) => s.stats_snapshot(),
            BranchStream::Plain(_) => StatsSnapshot::zero(),
        }
    }
}

impl Iterator for BranchStream {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        match self {
            BranchStream::Ranked(s) => s.next(),
            BranchStream::Plain(s) => s.next(),
        }
    }
}

/// The preprocessing phase of a UCQ, done once and shared: one prepared
/// part per branch (see [`prepare_ranked`]).
pub struct PreparedUnion<R: Ranking + Clone> {
    ranking: R,
    projection: Vec<Attr>,
    branches: Vec<Arc<dyn PreparedStream>>,
}

impl<R: Ranking + Clone + 'static> PreparedUnion<R> {
    /// Preprocess every branch under `ctx`: each acyclic branch for the
    /// general algorithm, each cyclic one through a cost-based GHD.
    pub fn prepare(
        union: &UnionQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let branches = union
            .branches()
            .iter()
            .map(|q| prepare_ranked(q, db, ranking.clone(), ctx))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PreparedUnion {
            ranking,
            projection: union.projection().to_vec(),
            branches,
        })
    }

    /// Bytes retained by all branches' prepared parts.
    pub fn bytes(&self) -> u64 {
        self.branches.iter().map(|b| b.bytes()).sum()
    }
}

/// Ranked enumerator for UCQs.
pub struct UnionEnumerator<R: Ranking + Clone> {
    ranking: R,
    projection: Vec<Attr>,
    branches: Vec<BranchStream>,
    pq: BinaryHeap<Reverse<MergeEntry<R::Key>>>,
    last: Option<Tuple>,
    stats: EnumStats,
}

impl<R: Ranking + Clone + 'static> UnionEnumerator<R> {
    /// Build the enumerator for a UCQ: each acyclic branch gets an
    /// [`AcyclicEnumerator`](crate::AcyclicEnumerator), each cyclic branch
    /// a [`CyclicEnumerator`](crate::CyclicEnumerator) with an
    /// automatically chosen GHD plan.
    pub fn new(union: &UnionQuery, db: &Database, ranking: R) -> Result<Self, EnumError> {
        Self::new_ctx(union, db, ranking, &ExecContext::serial())
    }

    /// [`UnionEnumerator::new`] with every branch's preprocessing running
    /// under `ctx`.
    pub fn new_ctx(
        union: &UnionQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let prepared = PreparedUnion::prepare(union, db, ranking, ctx)?;
        Ok(Self::open(Arc::new(prepared), ctx))
    }

    /// Open a cursor on a prepared UCQ: one branch cursor per branch
    /// (opened under `ctx`), seeded into the ranked merge.
    pub fn open(prepared: Arc<PreparedUnion<R>>, ctx: &ExecContext) -> Self {
        let branches = prepared
            .branches
            .iter()
            .map(|b| BranchStream::Ranked(Arc::clone(b).open_stream(ctx)))
            .collect();
        Self::merge(
            prepared.projection.clone(),
            prepared.ranking.clone(),
            branches,
        )
    }

    /// Build the enumerator from already-constructed sorted iterators.
    /// Every stream must yield tuples over `projection` in non-decreasing
    /// `(key, tuple)` order. Sources supplied this way are opaque: they
    /// contribute answers but no statistics (see
    /// [`UnionEnumerator::stats_snapshot`]).
    pub fn from_streams(
        projection: Vec<Attr>,
        ranking: R,
        branches: Vec<Box<dyn Iterator<Item = Tuple> + Send>>,
    ) -> Self {
        Self::merge(
            projection,
            ranking,
            branches.into_iter().map(BranchStream::Plain).collect(),
        )
    }

    fn merge(projection: Vec<Attr>, ranking: R, mut branches: Vec<BranchStream>) -> Self {
        let mut pq = BinaryHeap::new();
        for (i, b) in branches.iter_mut().enumerate() {
            if let Some(tuple) = b.next() {
                let key = ranking.key_of(&projection, &tuple);
                pq.push(Reverse(MergeEntry {
                    key,
                    tuple,
                    source: i,
                }));
            }
        }
        UnionEnumerator {
            ranking,
            projection,
            branches,
            pq,
            last: None,
            stats: EnumStats::new(),
        }
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        &self.projection
    }

    /// Merge statistics (the union's own priority-queue work; branch
    /// counters are *not* folded in here — see
    /// [`UnionEnumerator::stats_snapshot`]).
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Combined counters: the merge's own operations plus the work of
    /// every branch enumerator (preprocessing cells, per-branch priority
    /// queues, frontier bytes — the union's footprint is the disjoint sum
    /// of its branch frontiers). Branch `answers` are excluded — a branch
    /// answer is not a union answer until it survives deduplication, so
    /// `answers` counts only what the union emitted.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut total = self.stats.snapshot();
        for branch in &self.branches {
            let b = branch.snapshot();
            total.pq_pushes += b.pq_pushes;
            total.pq_pops += b.pq_pops;
            total.cells_created += b.cells_created;
            total.cells_reused += b.cells_reused;
            total.tuple_allocs += b.tuple_allocs;
            total.frontier_bytes += b.frontier_bytes;
            total.frontier_peak_bytes += b.frontier_peak_bytes;
        }
        total
    }
}

impl<R: Ranking + Clone + 'static> Iterator for UnionEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        loop {
            let Reverse(entry) = self.pq.pop()?;
            self.stats.record_pop();
            if let Some(tuple) = self.branches[entry.source].next() {
                let key = self.ranking.key_of(&self.projection, &tuple);
                self.pq.push(Reverse(MergeEntry {
                    key,
                    tuple,
                    source: entry.source,
                }));
                self.stats.record_push();
            }
            if self.last.as_ref() == Some(&entry.tuple) {
                continue; // duplicate produced by another branch
            }
            self.last = Some(entry.tuple.clone());
            self.stats.record_answer();
            return Some(entry.tuple);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::{Ranking, SumRanking};
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "Knows",
                attrs(["src", "dst"]),
                vec![vec![1, 2], vec![2, 3], vec![1, 3]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("Likes", attrs(["src", "dst"]), vec![vec![1, 2], vec![3, 4]])
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn union_query() -> UnionQuery {
        let knows = QueryBuilder::new()
            .atom("K", "Knows", ["x", "y"])
            .project(["x", "y"])
            .build()
            .unwrap();
        let likes = QueryBuilder::new()
            .atom("L", "Likes", ["x", "y"])
            .project(["x", "y"])
            .build()
            .unwrap();
        UnionQuery::new(vec![knows, likes]).unwrap()
    }

    #[test]
    fn union_merges_and_deduplicates() {
        let e = UnionEnumerator::new(&union_query(), &db(), SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        // (1,2) appears in both branches but must be emitted once.
        assert_eq!(
            results,
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![3, 4]]
        );
    }

    #[test]
    fn union_output_is_sorted_by_rank() {
        let e = UnionEnumerator::new(&union_query(), &db(), SumRanking::value_sum()).unwrap();
        let ranking = SumRanking::value_sum();
        let mut last = None;
        for t in e {
            let k = ranking.key_of(&attrs(["x", "y"]), &t);
            if let Some(prev) = last {
                assert!(k >= prev);
            }
            last = Some(k);
        }
    }

    #[test]
    fn union_with_two_hop_branches() {
        // Q = 2-hop over Knows ∪ 2-hop over Likes, ranked by endpoint sum.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "Knows",
                attrs(["p", "g"]),
                vec![vec![1, 100], vec![2, 100], vec![3, 101]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("Likes", attrs(["p", "g"]), vec![vec![3, 200], vec![4, 200]])
                .unwrap(),
        )
        .unwrap();
        let branch = |rel: &str| {
            QueryBuilder::new()
                .atom("A1", rel, ["x", "g"])
                .atom("A2", rel, ["y", "g"])
                .project(["x", "y"])
                .build()
                .unwrap()
        };
        let u = UnionQuery::new(vec![branch("Knows"), branch("Likes")]).unwrap();
        let results: Vec<Tuple> = UnionEnumerator::new(&u, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        assert_eq!(
            results,
            vec![
                vec![1, 1],
                vec![1, 2],
                vec![2, 1],
                vec![2, 2],
                vec![3, 3],
                vec![3, 4],
                vec![4, 3],
                vec![4, 4],
            ]
        );
    }

    #[test]
    fn snapshot_includes_branch_preprocessing_work() {
        let e = UnionEnumerator::new(&union_query(), &db(), SumRanking::value_sum()).unwrap();
        let snapshot = e.stats_snapshot();
        assert!(
            snapshot.cells_created > 0,
            "branch preprocessing must be visible before the first answer"
        );
        let drained: Vec<Tuple> = e.collect();
        assert_eq!(drained.len(), 4);
    }

    #[test]
    fn from_streams_accepts_custom_sources() {
        let ranking = SumRanking::value_sum();
        let s1: Box<dyn Iterator<Item = Tuple> + Send> =
            Box::new(vec![vec![1u64, 1], vec![5, 5]].into_iter());
        let s2: Box<dyn Iterator<Item = Tuple> + Send> =
            Box::new(vec![vec![2u64, 2], vec![5, 5]].into_iter());
        let e = UnionEnumerator::from_streams(attrs(["a", "b"]), ranking, vec![s1, s2]);
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results, vec![vec![1, 1], vec![2, 2], vec![5, 5]]);
    }
}
