//! Semi-joins and the Yannakakis full reducer.
//!
//! The preprocessing phase of every enumerator in the paper assumes the
//! instance contains no *dangling* tuples — tuples that cannot contribute to
//! any join result. The classical Yannakakis full reducer removes them with
//! two sweeps of semi-joins over a join tree: a bottom-up pass
//! (`parent ⋉ child`) followed by a top-down pass (`child ⋉ parent`).

use crate::bind::bind_atom;
use crate::error::JoinError;
use crate::parallel::par_semi_join;
use re_exec::ExecContext;
use re_query::{JoinProjectQuery, JoinTree};
use re_storage::{Attr, Database, HashIndex, Relation};
use std::collections::BTreeSet;

/// Keep only the tuples of `left` whose shared-attribute values appear in
/// `right` (`left ⋉ right`). If the relations share no attributes this is a
/// no-op when `right` is non-empty and empties `left` otherwise (standard
/// semi-join semantics under natural join).
pub fn semi_join(left: &mut Relation, right: &Relation) -> Result<(), JoinError> {
    let shared = shared_attrs(left, right);
    if shared.is_empty() {
        if right.is_empty() {
            left.retain(|_| false);
        }
        return Ok(());
    }
    let left_pos = left.positions(&shared)?;
    let right_index = HashIndex::build(right, &shared)?;
    let mut key = Vec::with_capacity(shared.len());
    left.retain(|t| {
        key.clear();
        key.extend(left_pos.iter().map(|&p| t[p]));
        right_index.contains(&key)
    });
    Ok(())
}

/// Per-operator counters of one full-reducer run: every semi-join pass
/// contributes its filtered relation's row count before and after, so
/// `input_rows - output_rows` is exactly the dangling tuples removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Semi-join passes executed (bottom-up plus top-down).
    pub passes: u64,
    /// Rows entering the filtered side of each pass, summed.
    pub input_rows: u64,
    /// Rows surviving each pass, summed.
    pub output_rows: u64,
}

impl ReduceStats {
    /// Rows the reducer removed, summed over all passes.
    pub fn filtered_rows(&self) -> u64 {
        self.input_rows.saturating_sub(self.output_rows)
    }

    /// Fold another run's counters into this one (composite enumerators
    /// reduce once per branch).
    pub fn merge(&mut self, other: &ReduceStats) {
        self.passes += other.passes;
        self.input_rows += other.input_rows;
        self.output_rows += other.output_rows;
    }
}

/// Run the full reducer over already-bound per-node relations.
///
/// `relations[i]` must be the relation of join-tree node `i` (attribute
/// names are query variables). After the call every relation contains
/// exactly its non-dangling tuples.
pub fn full_reduce_relations(
    tree: &JoinTree,
    relations: &mut [Relation],
) -> Result<ReduceStats, JoinError> {
    full_reduce_relations_ctx(&ExecContext::serial(), tree, relations)
}

/// One instrumented semi-join pass: `left ⋉ right`, counted into `stats`
/// and (when a request trace is installed) recorded as a `reduce.pass`
/// trace span carrying the pair and the row movement.
fn reduce_pass(
    ctx: &ExecContext,
    left: &mut Relation,
    right: &Relation,
    direction: &str,
    stats: &mut ReduceStats,
) -> Result<(), JoinError> {
    // Pass boundary: the cancellation poll point of the reducer sweeps,
    // and the `reduce.pass` failpoint.
    ctx.check_cancelled()?;
    re_fault::fire("reduce.pass")?;
    let input = left.len() as u64;
    let mut span = re_obs::trace::child_span("reduce.pass");
    par_semi_join(ctx, left, right)?;
    let output = left.len() as u64;
    stats.passes += 1;
    stats.input_rows += input;
    stats.output_rows += output;
    if let Some(s) = span.as_mut() {
        use re_obs::AttrValue;
        s.set_attr("left", AttrValue::Str(left.name().to_string()));
        s.set_attr("right", AttrValue::Str(right.name().to_string()));
        s.set_attr("direction", AttrValue::Str(direction.to_string()));
        s.set_attr("input_rows", AttrValue::U64(input));
        s.set_attr("output_rows", AttrValue::U64(output));
        s.set_attr("filtered_rows", AttrValue::U64(input - output));
    }
    Ok(())
}

/// [`full_reduce_relations`] under an execution context: the semi-join
/// sweeps follow the same tree order (they are data-dependent along the
/// tree), but each individual semi-join probes its morsels in parallel on
/// large relations. The reduced relations are identical to the serial
/// reducer's at any thread count.
pub fn full_reduce_relations_ctx(
    ctx: &ExecContext,
    tree: &JoinTree,
    relations: &mut [Relation],
) -> Result<ReduceStats, JoinError> {
    assert_eq!(tree.len(), relations.len());
    let _span = re_obs::Span::enter("preprocess.reduce");
    let mut trace_span = re_obs::trace::child_span("preprocess.reduce");
    let mut stats = ReduceStats::default();
    let post = tree.post_order();
    // Bottom-up: parent ⋉ child.
    for &u in &post {
        if let Some(p) = tree.node(u).parent {
            let (parent_rel, child_rel) = two_mut(relations, p, u);
            reduce_pass(ctx, parent_rel, child_rel, "bottom-up", &mut stats)?;
        }
    }
    // Top-down: child ⋉ parent (reverse post-order visits parents first).
    for &u in post.iter().rev() {
        for &c in &tree.node(u).children {
            let (parent_rel, child_rel) = two_mut(relations, u, c);
            reduce_pass(ctx, child_rel, parent_rel, "top-down", &mut stats)?;
        }
    }
    if let Some(s) = trace_span.as_mut() {
        use re_obs::AttrValue;
        s.set_attr("passes", AttrValue::U64(stats.passes));
        s.set_attr("input_rows", AttrValue::U64(stats.input_rows));
        s.set_attr("output_rows", AttrValue::U64(stats.output_rows));
    }
    Ok(stats)
}

/// Bind the atoms of an acyclic query and run the full reducer, returning
/// one dangling-free relation per join-tree node (indexed like the tree's
/// nodes).
pub fn full_reduce(
    query: &JoinProjectQuery,
    tree: &JoinTree,
    db: &Database,
) -> Result<(Vec<Relation>, ReduceStats), JoinError> {
    full_reduce_ctx(&ExecContext::serial(), query, tree, db)
}

/// [`full_reduce`] under an execution context (see
/// [`full_reduce_relations_ctx`]).
pub fn full_reduce_ctx(
    ctx: &ExecContext,
    query: &JoinProjectQuery,
    tree: &JoinTree,
    db: &Database,
) -> Result<(Vec<Relation>, ReduceStats), JoinError> {
    // Bind exactly the atoms the tree's nodes reference, in node order
    // (node i of an unpruned tree is atom i, but a pruned tree may have
    // fewer nodes): one copy of each base relation, moved into place.
    let mut relations: Vec<Relation> = tree
        .nodes()
        .iter()
        .map(|n| bind_atom(query, db, n.atom_index))
        .collect::<Result<_, _>>()?;
    let stats = full_reduce_relations_ctx(ctx, tree, &mut relations)?;
    Ok((relations, stats))
}

/// Full-reduce over the **unpruned** tree, then prune non-projecting
/// subtrees, returning the pruned tree together with its node-aligned
/// reduced relations.
///
/// The order matters: subtrees that own no projection attribute still act
/// as semi-join filters, so dropping them is only answer-preserving on a
/// dangling-free instance. Every enumerator that wants a pruned tree must
/// go through this (or repeat the same dance) — pruning first silently
/// readmits dangling tuples.
pub fn reduce_then_prune(
    query: &JoinProjectQuery,
    tree: JoinTree,
    db: &Database,
) -> Result<(JoinTree, Vec<Relation>, ReduceStats), JoinError> {
    reduce_then_prune_ctx(&ExecContext::serial(), query, tree, db)
}

/// [`reduce_then_prune`] under an execution context (see
/// [`full_reduce_relations_ctx`]).
pub fn reduce_then_prune_ctx(
    ctx: &ExecContext,
    query: &JoinProjectQuery,
    tree: JoinTree,
    db: &Database,
) -> Result<(JoinTree, Vec<Relation>, ReduceStats), JoinError> {
    let (reduced_all, stats) = full_reduce_ctx(ctx, query, &tree, db)?;
    let mut by_atom: Vec<Option<Relation>> = vec![None; query.atoms().len()];
    for (node, rel) in tree.nodes().iter().zip(reduced_all) {
        by_atom[node.atom_index] = Some(rel);
    }
    let pruned = tree.prune_non_projecting();
    let reduced = pruned
        .nodes()
        .iter()
        .map(|n| by_atom[n.atom_index].take().expect("kept node was reduced"))
        .collect();
    Ok((pruned, reduced, stats))
}

/// Sanity check used by tests and debug assertions: a reduced instance is
/// *globally consistent* for a join tree if every parent/child pair agrees
/// on the shared attributes in both directions.
pub fn is_fully_reduced(tree: &JoinTree, relations: &[Relation]) -> Result<bool, JoinError> {
    for (i, node) in tree.nodes().iter().enumerate() {
        if let Some(p) = node.parent {
            if !semi_join_would_keep_all(&relations[i], &relations[p])?
                || !semi_join_would_keep_all(&relations[p], &relations[i])?
            {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

fn semi_join_would_keep_all(left: &Relation, right: &Relation) -> Result<bool, JoinError> {
    let shared: Vec<Attr> = left
        .attrs()
        .iter()
        .filter(|a| right.attrs().contains(a))
        .cloned()
        .collect();
    if shared.is_empty() {
        // The semi-join keeps everything iff the right side is non-empty or
        // there is nothing to remove on the left.
        return Ok(!right.is_empty() || left.is_empty());
    }
    let left_pos = left.positions(&shared)?;
    let idx = HashIndex::build(right, &shared)?;
    for t in left.iter() {
        let key: Vec<_> = left_pos.iter().map(|&p| t[p]).collect();
        if !idx.contains(&key) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn two_mut<T>(slice: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = slice.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = slice.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

/// The set of attributes shared by two relations (helper reused by joins).
pub fn shared_attrs(a: &Relation, b: &Relation) -> Vec<Attr> {
    let bset: BTreeSet<&Attr> = b.attrs().iter().collect();
    a.attrs()
        .iter()
        .filter(|x| bset.contains(*x))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_storage::attr::attrs;

    fn path_db() -> Database {
        // R1(A,B), R2(B,C), R3(C,D) with some dangling tuples.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R1",
                attrs(["A", "B"]),
                vec![vec![1, 1], vec![2, 1], vec![3, 9]], // (3,9) dangles
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R2", attrs(["B", "C"]), vec![vec![1, 5], vec![7, 6]]).unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![5, 2], vec![5, 3]]).unwrap(),
        )
        .unwrap();
        db
    }

    fn path_query() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .atom("R3", "R3", ["C", "D"])
            .project(["A", "D"])
            .build()
            .unwrap()
    }

    #[test]
    fn semi_join_filters_left() {
        let mut l =
            Relation::with_tuples("L", attrs(["A", "B"]), vec![vec![1, 1], vec![2, 9]]).unwrap();
        let r = Relation::with_tuples("R", attrs(["B", "C"]), vec![vec![1, 4]]).unwrap();
        semi_join(&mut l, &r).unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l.tuple(0), &[1, 1]);
    }

    #[test]
    fn semi_join_disjoint_attrs_keeps_all_when_right_nonempty() {
        let mut l = Relation::with_tuples("L", attrs(["A"]), vec![vec![1], vec![2]]).unwrap();
        let r = Relation::with_tuples("R", attrs(["B"]), vec![vec![9]]).unwrap();
        semi_join(&mut l, &r).unwrap();
        assert_eq!(l.len(), 2);
        let empty = Relation::new("E", attrs(["B"]));
        semi_join(&mut l, &empty).unwrap();
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn full_reducer_removes_dangling_tuples() {
        let q = path_query();
        let tree = JoinTree::build_rooted(&q, 1).unwrap();
        let db = path_db();
        let (reduced, stats) = full_reduce(&q, &tree, &db).unwrap();
        // node order == atom order for unpruned trees
        assert_eq!(reduced[0].len(), 2); // (1,1), (2,1)
        assert_eq!(reduced[1].len(), 1); // (1,5)
        assert_eq!(reduced[2].len(), 2); // (5,2), (5,3)
        assert!(is_fully_reduced(&tree, &reduced).unwrap());
        // 3 nodes, root 1: two bottom-up passes plus two top-down passes,
        // and exactly the dangling (3,9) plus R2's (7,6) were filtered.
        assert_eq!(stats.passes, 4);
        assert_eq!(stats.filtered_rows(), 2);
        assert_eq!(stats.input_rows - 2, stats.output_rows);
    }

    #[test]
    fn full_reducer_handles_empty_join() {
        let q = path_query();
        let tree = JoinTree::build(&q).unwrap();
        let mut db = path_db();
        // Make R3 share no C values with R2.
        db.set_relation(Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![99, 2]]).unwrap());
        let (reduced, _) = full_reduce(&q, &tree, &db).unwrap();
        assert!(reduced.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn reduction_is_idempotent() {
        let q = path_query();
        let tree = JoinTree::build(&q).unwrap();
        let db = path_db();
        let (reduced, _) = full_reduce(&q, &tree, &db).unwrap();
        let mut again = reduced.clone();
        let stats = full_reduce_relations(&tree, &mut again).unwrap();
        for (a, b) in reduced.iter().zip(&again) {
            assert_eq!(a.len(), b.len());
        }
        // An already-reduced instance loses nothing on the second run.
        assert_eq!(stats.filtered_rows(), 0);
    }

    #[test]
    fn reduce_passes_land_in_an_installed_trace() {
        let q = path_query();
        let tree = JoinTree::build(&q).unwrap();
        let db = path_db();
        let tctx = re_obs::TraceCtx::new("reduce");
        {
            let _g = re_obs::trace::install(&tctx, 0);
            full_reduce(&q, &tree, &db).unwrap();
        }
        let trace = tctx.finish();
        let parent = trace.spans_named("preprocess.reduce").next().unwrap();
        let passes: Vec<_> = trace.spans_named("reduce.pass").collect();
        assert_eq!(passes.len(), 4);
        for p in &passes {
            assert_eq!(p.parent, parent.id);
            assert!(p
                .attrs
                .iter()
                .any(|(k, v)| k == "input_rows" && matches!(v, re_obs::AttrValue::U64(_))));
        }
    }
}
