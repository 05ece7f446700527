//! The star-query data structure with a preprocessing/delay tradeoff
//! (Algorithms 4 and 5, Theorem 2).
//!
//! For `Q*_m = π_{A_1..A_m}(R_1(A_1,B) ⋈ ... ⋈ R_m(A_m,B))` and a degree
//! threshold `δ ≥ 1`:
//!
//! * a value of `A_i` is **heavy** if it appears in at least `δ` tuples of
//!   `R_i`; a tuple is heavy if its `A_i` value is heavy;
//! * all-heavy answers (`O_H`) are fully materialised and sorted during
//!   preprocessing — there are at most `(|D|/δ)^m` of them;
//! * the remaining answers are partitioned by the *first* light position
//!   `i` into sub-queries `Q_i` (heavy on positions `< i`, light on `i`,
//!   unrestricted after), each handled by an [`AcyclicEnumerator`] rooted at
//!   `R_i`, whose per-answer duplication — and hence delay — is bounded by
//!   `δ`;
//! * enumeration is an `(m+1)`-way ranked merge of `O_H` and the `Q_i`.
//!
//! Choosing `δ = |D|^{1-ε}` yields the tradeoff of Theorem 2: delay
//! `O(|D|^{1-ε} log |D|)` with `O(|D|^{1+(m-1)ε})` preprocessing.

use crate::acyclic::{AcyclicEnumerator, PreparedAcyclic};
use crate::error::EnumError;
use crate::merge::MergeEntry;
use crate::stats::{EnumStats, StatsSnapshot};
use re_exec::ExecContext;
use re_join::{full_reduce_ctx, par_hash_join, par_project_distinct};
use re_query::{Atom, JoinProjectQuery, JoinTree, StarShape};
use re_ranking::RankKey;
use re_ranking::Ranking;
use re_storage::{Attr, Database, HashIndex, Relation, Tuple};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The preprocessing phase of the star data structure, done once and
/// shared: the sorted all-heavy output `O_H` and one prepared acyclic part
/// per sub-query `Q_i`. The heavy/light split relations and the per-`Q_i`
/// working databases are build-time only.
pub struct PreparedStar<R: Ranking + Clone> {
    ranking: R,
    projection: Vec<Attr>,
    threshold: usize,
    /// All-heavy output, sorted by `(key, tuple)`.
    heavy: Vec<(R::Key, Tuple)>,
    subs: Vec<Arc<PreparedAcyclic<R>>>,
    /// Reducer counters and the heavy output's bytes, inherited by every
    /// cursor.
    stats: EnumStats,
}

impl<R: Ranking + Clone> PreparedStar<R> {
    /// Preprocess with an explicit degree threshold `δ ≥ 1`: the full
    /// reducer and the all-heavy output materialisation (the `O_H` join +
    /// distinct of Algorithm 4, the expensive part at small δ) run under
    /// `ctx`. Identical output at any thread count.
    pub fn prepare(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        threshold: usize,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        if threshold == 0 {
            return Err(EnumError::InvalidThreshold);
        }
        let shape = StarShape::detect(query)?;
        query.validate_against(db)?;
        let m = query.atoms().len();
        let projection: Vec<Attr> = query.projection().to_vec();

        // Dangling-free atom relations (node index == atom index because the
        // tree is not pruned).
        let tree = JoinTree::build(query)?;
        let (reduced, rstats) = full_reduce_ctx(ctx, query, &tree, db)?;
        let empty = reduced.iter().any(|r| r.is_empty());

        // Heavy/light split per atom, on the atom's leaf attribute(s).
        let mut heavy_rels: Vec<Relation> = Vec::with_capacity(m);
        let mut light_rels: Vec<Relation> = Vec::with_capacity(m);
        for (i, rel) in reduced.iter().enumerate() {
            let leaf = &shape.leaves[i];
            let idx = HashIndex::build(rel, leaf)?;
            let leaf_pos = rel.positions(leaf)?;
            let mut heavy = Relation::new(format!("{}_heavy", rel.name()), rel.attrs().to_vec());
            let mut light = Relation::new(format!("{}_light", rel.name()), rel.attrs().to_vec());
            for t in rel.iter() {
                let key: Tuple = leaf_pos.iter().map(|&p| t[p]).collect();
                if idx.get(&key).len() >= threshold {
                    heavy.push_unchecked(t);
                } else {
                    light.push_unchecked(t);
                }
            }
            heavy_rels.push(heavy);
            light_rels.push(light);
        }

        // O_H: the all-heavy output, materialised and sorted.
        let mut heavy_output: Vec<(R::Key, Tuple)> = Vec::new();
        if !empty && heavy_rels.iter().all(|r| !r.is_empty()) {
            let mut acc = heavy_rels[0].clone();
            for rel in &heavy_rels[1..] {
                acc = par_hash_join(ctx, &acc, rel, "heavy_join")?;
            }
            let distinct = par_project_distinct(ctx, &acc, &projection)?;
            heavy_output = distinct
                .iter()
                .map(|t| {
                    let tuple = t.to_vec();
                    (ranking.key_of(&projection, &tuple), tuple)
                })
                .collect();
            heavy_output.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        }

        // Sub-queries Q_i: heavy before i, light at i, unrestricted after.
        let mut subs: Vec<Arc<PreparedAcyclic<R>>> = Vec::with_capacity(m);
        if !empty {
            for i in 0..m {
                let mut sub_db = Database::new();
                let mut atoms = Vec::with_capacity(m);
                for (j, atom) in query.atoms().iter().enumerate() {
                    let mut rel = if j < i {
                        heavy_rels[j].clone()
                    } else if j == i {
                        light_rels[j].clone()
                    } else {
                        reduced[j].clone()
                    };
                    let rel_name = format!("q{i}_{}", atom.name);
                    rel.set_name(rel_name.clone());
                    sub_db.set_relation(rel);
                    atoms.push(Atom::new(atom.name.clone(), rel_name, atom.vars.clone()));
                }
                let sub_query = JoinProjectQuery::new(atoms, projection.clone())?;
                // Join tree T_i: R_i as root, all other relations as children.
                let sub_tree = JoinTree::build_rooted(&sub_query, i)?;
                subs.push(Arc::new(PreparedAcyclic::prepare_with_tree(
                    &sub_query,
                    &sub_db,
                    ranking.clone(),
                    sub_tree,
                    ctx,
                )?));
            }
        }

        let mut stats = EnumStats::new();
        stats.record_reduce(rstats.passes, rstats.input_rows, rstats.output_rows);
        // The materialised all-heavy output is part of every cursor's
        // parked footprint, alongside the sub-enumerators' frontiers
        // (accounted in their own stats).
        let heavy_bytes: u64 = heavy_output
            .iter()
            .map(|(k, t)| {
                (std::mem::size_of::<(R::Key, Tuple)>()
                    + k.heap_bytes()
                    + t.len() * std::mem::size_of::<re_storage::Value>()) as u64
            })
            .sum();
        stats.frontier_alloc(heavy_bytes, heavy_bytes);

        Ok(PreparedStar {
            ranking,
            projection,
            threshold,
            heavy: heavy_output,
            subs,
            stats,
        })
    }
}

/// Ranked enumerator for star queries with a tunable degree threshold: a
/// cursor over a shared [`PreparedStar`].
pub struct StarEnumerator<R: Ranking + Clone> {
    prepared: Arc<PreparedStar<R>>,
    heavy_cursor: usize,
    /// One acyclic cursor per sub-query `Q_i`.
    subs: Vec<AcyclicEnumerator<R>>,
    pq: BinaryHeap<Reverse<MergeEntry<R::Key>>>,
    stats: EnumStats,
}

impl<R: Ranking + Clone> StarEnumerator<R> {
    /// Build the enumerator with an explicit degree threshold `δ ≥ 1`.
    pub fn new(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        threshold: usize,
    ) -> Result<Self, EnumError> {
        Self::new_ctx(query, db, ranking, threshold, &ExecContext::serial())
    }

    /// [`StarEnumerator::new`] with the preprocessing running under `ctx`
    /// (see [`PreparedStar::prepare`]).
    pub fn new_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        threshold: usize,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let prepared = PreparedStar::prepare(query, db, ranking, threshold, ctx)?;
        Ok(Self::open(Arc::new(prepared)))
    }

    /// Open a cursor on a prepared part: one sub-query cursor per `Q_i`,
    /// each seeded into the `(m+1)`-way merge together with the first
    /// all-heavy answer.
    pub fn open(prepared: Arc<PreparedStar<R>>) -> Self {
        let mut subs: Vec<AcyclicEnumerator<R>> = prepared
            .subs
            .iter()
            .map(|p| AcyclicEnumerator::open(Arc::clone(p)))
            .collect();
        let m = subs.len();
        let mut pq = BinaryHeap::new();
        for (i, sub) in subs.iter_mut().enumerate() {
            if let Some(tuple) = sub.next() {
                let key = prepared.ranking.key_of(&prepared.projection, &tuple);
                pq.push(Reverse(MergeEntry {
                    key,
                    tuple,
                    source: i,
                }));
            }
        }
        if let Some((key, tuple)) = prepared.heavy.first().cloned() {
            pq.push(Reverse(MergeEntry {
                key,
                tuple,
                source: m,
            }));
        }
        StarEnumerator {
            stats: prepared.stats.clone(),
            prepared,
            heavy_cursor: 0,
            subs,
            pq,
        }
    }

    /// Build the enumerator from the tradeoff parameter `ε ∈ [0, 1]` of
    /// Theorem 2 by setting `δ = ⌈|D|^{1-ε}⌉`. `ε = 0` recovers Theorem 1
    /// (no extra preprocessing); `ε = 1` fully materialises the sorted
    /// output.
    pub fn with_epsilon(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        epsilon: f64,
    ) -> Result<Self, EnumError> {
        let n = db.size().max(1) as f64;
        let delta = n.powf(1.0 - epsilon.clamp(0.0, 1.0)).ceil() as usize;
        Self::new(query, db, ranking, delta.max(1))
    }

    /// The degree threshold δ in use.
    pub fn threshold(&self) -> usize {
        self.prepared.threshold
    }

    /// Number of all-heavy answers materialised during preprocessing — the
    /// space side of the tradeoff.
    pub fn heavy_output_size(&self) -> usize {
        self.prepared.heavy.len()
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        &self.prepared.projection
    }

    /// Merge-level statistics (per-branch statistics live in the branches).
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Total cells allocated across the sub-enumerators (memory footprint
    /// proxy, excludes the materialised heavy output).
    pub fn cell_count(&self) -> usize {
        self.subs.iter().map(|s| s.cell_count()).sum()
    }

    /// Combined counters: the merge's own operations and the materialised
    /// heavy output's bytes, plus every sub-enumerator's work and frontier
    /// footprint (the tradeoff's memory side, end to end).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut total = self.stats.snapshot();
        for sub in &self.subs {
            let s = sub.stats().snapshot();
            total.pq_pushes += s.pq_pushes;
            total.pq_pops += s.pq_pops;
            total.cells_created += s.cells_created;
            total.tuple_allocs += s.tuple_allocs;
            total.frontier_bytes += s.frontier_bytes;
            total.frontier_peak_bytes += s.frontier_peak_bytes;
        }
        total
    }
}

impl<R: Ranking + Clone> Iterator for StarEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let Reverse(entry) = self.pq.pop()?;
        self.stats.record_pop();
        if entry.source < self.subs.len() {
            if let Some(tuple) = self.subs[entry.source].next() {
                let key = self
                    .prepared
                    .ranking
                    .key_of(&self.prepared.projection, &tuple);
                self.pq.push(Reverse(MergeEntry {
                    key,
                    tuple,
                    source: entry.source,
                }));
                self.stats.record_push();
            }
        } else {
            self.heavy_cursor += 1;
            if let Some((key, tuple)) = self.prepared.heavy.get(self.heavy_cursor).cloned() {
                self.pq.push(Reverse(MergeEntry {
                    key,
                    tuple,
                    source: self.subs.len(),
                }));
                self.stats.record_push();
            }
        }
        self.stats.record_answer();
        Some(entry.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::SumRanking;
    use re_storage::attr::attrs;

    /// A small bipartite instance: papers 10 and 11, authors 1..4.
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

    fn two_star() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap()
    }

    fn expected_two_star() -> Vec<Tuple> {
        // co-author pairs through papers 10 ({1,2,3}) and 11 ({1,4}),
        // ranked by a1+a2, ties by tuple order.
        vec![
            vec![1, 1],
            vec![1, 2],
            vec![2, 1],
            vec![1, 3],
            vec![2, 2],
            vec![3, 1],
            vec![1, 4],
            vec![2, 3],
            vec![3, 2],
            vec![4, 1],
            vec![3, 3],
            vec![4, 4],
        ]
    }

    #[test]
    fn star_enumerator_matches_acyclic_enumerator_for_all_thresholds() {
        let db = db();
        let q = two_star();
        let reference: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        assert_eq!(reference, expected_two_star());
        for threshold in [1usize, 2, 3, 10] {
            let got: Vec<Tuple> = StarEnumerator::new(&q, &db, SumRanking::value_sum(), threshold)
                .unwrap()
                .collect();
            assert_eq!(got, reference, "threshold {threshold} changed the output");
        }
    }

    #[test]
    fn threshold_one_materialises_everything() {
        // With δ = 1 every value is heavy, so the entire output is
        // materialised during preprocessing and the sub-queries are empty.
        let db = db();
        let q = two_star();
        let e = StarEnumerator::new(&q, &db, SumRanking::value_sum(), 1).unwrap();
        assert_eq!(e.heavy_output_size(), expected_two_star().len());
    }

    #[test]
    fn huge_threshold_materialises_nothing() {
        let db = db();
        let q = two_star();
        let e = StarEnumerator::new(&q, &db, SumRanking::value_sum(), 1000).unwrap();
        assert_eq!(e.heavy_output_size(), 0);
        assert_eq!(e.collect::<Vec<_>>(), expected_two_star());
    }

    #[test]
    fn epsilon_extremes() {
        let db = db();
        let q = two_star();
        let eager = StarEnumerator::with_epsilon(&q, &db, SumRanking::value_sum(), 1.0).unwrap();
        assert!(eager.heavy_output_size() > 0);
        let lazy = StarEnumerator::with_epsilon(&q, &db, SumRanking::value_sum(), 0.0).unwrap();
        assert_eq!(lazy.threshold(), db.size());
        assert_eq!(eager.collect::<Vec<_>>(), lazy.collect::<Vec<_>>());
    }

    #[test]
    fn three_armed_star() {
        let db = db();
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .atom("AP3", "AP", ["a3", "p"])
            .project(["a1", "a2", "a3"])
            .build()
            .unwrap();
        let reference: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        for threshold in [1usize, 2, 4] {
            let got: Vec<Tuple> = StarEnumerator::new(&q, &db, SumRanking::value_sum(), threshold)
                .unwrap()
                .collect();
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn zero_threshold_rejected_and_non_star_rejected() {
        let db = db();
        assert!(matches!(
            StarEnumerator::new(&two_star(), &db, SumRanking::value_sum(), 0),
            Err(EnumError::InvalidThreshold)
        ));
        // A 3-path projecting its endpoints is not a star query (the three
        // atoms share no common attribute).
        let path = QueryBuilder::new()
            .atom("R1", "AP", ["a", "b"])
            .atom("R2", "AP", ["b", "c"])
            .atom("R3", "AP", ["c", "d"])
            .project(["a", "d"])
            .build()
            .unwrap();
        assert!(StarEnumerator::new(&path, &db, SumRanking::value_sum(), 2).is_err());
    }

    #[test]
    fn empty_star_result() {
        let mut d = Database::new();
        d.add_relation(Relation::with_tuples("A", attrs(["a", "b"]), vec![vec![1, 10]]).unwrap())
            .unwrap();
        d.add_relation(Relation::with_tuples("B", attrs(["c", "b"]), vec![vec![2, 99]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("A", "A", ["a1", "p"])
            .atom("B", "B", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let mut e = StarEnumerator::new(&q, &d, SumRanking::value_sum(), 2).unwrap();
        assert_eq!(e.next(), None);
    }
}
