//! The general ranked-enumeration algorithm for acyclic join-project
//! queries (Algorithms 1 and 2 of the paper, Theorem 1), on the arena
//! frontier kernel.
//!
//! Each join-tree node incrementally materialises — in rank order and
//! without duplicates — the partial answers over its subtree projection
//! attributes `Aπ_i`, keyed by the node's anchor value. The materialisation
//! is driven by per-anchor priority queues whose elements are cells; the
//! `next` chain of a cell records the ranked order so that every parent
//! tuple reuses the same computation. Popping the root queue repeatedly
//! yields the final answers in rank order; a last-answer check removes
//! duplicates (equal outputs are adjacent because ties are broken by the
//! output tuple).
//!
//! Representation ([`crate::frontier`]): cell outputs live in one
//! fixed-stride slab per node ([`CellArena`]), rank keys are interned once
//! per distinct value ([`KeyInterner`]) and heap entries are two `u32`s
//! ([`FrontierEntry`]) whose order is resolved by table lookup — key id,
//! then the output tie-break read straight from the arena, then cell id.
//! Anchor values get dense ids during preprocessing, so the per-anchor
//! queues are a plain `Vec<FrontierHeap>` and the enumeration hot path
//! never builds, hashes or clones an anchor tuple. Steady-state `next()`
//! performs **zero `Tuple` allocations beyond the emitted answer** — the
//! [`EnumStats::tuple_allocs`] tripwire exists so tests assert the ban —
//! and every byte the frontier retains is accounted in
//! [`EnumStats::frontier_bytes`] / [`EnumStats::frontier_peak_bytes`].
//!
//! Preprocessing and enumeration are split across two types:
//! [`PreparedAcyclic`] is the immutable result of the linear phase
//! (reduced relations, rank plans, the initial cells, keys and anchor
//! queues) and is shared behind an `Arc`; an [`AcyclicEnumerator`] is a
//! cursor over it that owns only what enumeration mutates — the cells and
//! keys it adds, the `next` chain, and how far it consumed each anchor
//! queue plus the entries it pushed (see [`QueueOverlay`]). Opening a
//! second cursor on the same prepared part costs no preprocessing.
//!
//! Guarantees (Lemmas 1–3): `O(|D|)` preprocessing (after the full-reducer
//! pass), `O(|D| log |D|)` worst-case delay, answers emitted in
//! non-decreasing rank order without duplicates, byte-identical to the
//! retained pre-arena engine ([`crate::ReferenceAcyclic`]). For
//! free-connex queries the same code achieves `O(log |D|)` delay
//! (Appendix E).

use crate::cell::CellId;
use crate::error::EnumError;
use crate::frontier::{
    CellArena, CellOverlay, FrontierEntry, FrontierHeap, KeyInterner, KeyOverlay, QueueOverlay,
    NEXT_EXHAUSTED, NEXT_NOT_COMPUTED,
};
use crate::stats::EnumStats;
use re_exec::ExecContext;
use re_join::reduce_then_prune_ctx;
use re_query::{JoinProjectQuery, JoinTree};
use re_ranking::Ranking;
use re_storage::{Attr, Database, Relation, Tuple, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Immutable per-node state of a [`PreparedAcyclic`]: the reduced
/// relation, positional plans and the initial frontier (one cell per
/// reduced tuple, its interned keys and the anchor queues holding them).
struct PreparedNode<R: Ranking> {
    relation: Relation,
    /// Positions (in `relation`) of the projection attributes owned by this node.
    own_proj_pos: Vec<usize>,
    /// Child node indices, in tree order.
    children: Vec<usize>,
    /// Permutation that reorders this node's subtree-order output by the
    /// *global* projection-attribute order (the user's projection order).
    /// Tie-breaking reads the permuted output out of the arena, so it is
    /// globally consistent across all nodes — the property that makes
    /// equal outputs adjacent in pop order (and, at the root, makes the
    /// emitted tie order equal to the user projection order).
    tie_perm: Vec<usize>,
    /// Ranking plan over the node's subtree-order output attributes.
    plan: <R as Ranking>::Plan,
    /// The initial cells (outputs, pointers, metadata).
    arena: CellArena,
    /// The initial cells' interned rank keys.
    keys: KeyInterner<R::Key>,
    /// `PQ_i[u]` as preprocessing left it: one queue per anchor id.
    queues: Vec<FrontierHeap>,
}

/// A cursor's private slice of one node's frontier (see the overlays in
/// [`crate::frontier`]).
struct NodeCursor<K> {
    cells: CellOverlay,
    keys: KeyOverlay<K>,
    queues: QueueOverlay,
}

/// Total order of a node's frontier entries: interned key, then the
/// tie-permuted output read from the arena, then cell id — the same order
/// the owned-tuple engine realised with cloned `(key, tie, cell)` entries.
#[inline]
fn frontier_cmp<'a>(
    key_cmp: impl Fn(u32, u32) -> Ordering,
    output: impl Fn(CellId) -> &'a [Value],
    tie_perm: &[usize],
    a: FrontierEntry,
    b: FrontierEntry,
) -> Ordering {
    let by_key = key_cmp(a.key, b.key);
    if by_key != Ordering::Equal {
        return by_key;
    }
    if a.cell == b.cell {
        return Ordering::Equal;
    }
    let (oa, ob) = (output(a.cell), output(b.cell));
    for &p in tie_perm {
        match oa[p].cmp(&ob[p]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.cell.cmp(&b.cell)
}

/// [`frontier_cmp`] through a cursor's view of a shared node.
#[inline]
fn entry_cmp<R: Ranking>(
    shared: &PreparedNode<R>,
    cells: &CellOverlay,
    keys: &KeyOverlay<R::Key>,
    a: FrontierEntry,
    b: FrontierEntry,
) -> Ordering {
    frontier_cmp(
        |x, y| keys.cmp(&shared.keys, x, y),
        |c| cells.output(&shared.arena, c),
        &shared.tie_perm,
        a,
        b,
    )
}

/// Bytes a live frontier heap entry occupies.
const ENTRY_BYTES: u64 = std::mem::size_of::<FrontierEntry>() as u64;

/// The preprocessing phase of the acyclic algorithm (Algorithm 1), done
/// once and shared: the fully reduced node relations, per-node rank plans
/// and the initial frontier. Immutable after construction, so any number
/// of [`AcyclicEnumerator`] cursors — on any threads — can be opened on
/// one `Arc<PreparedAcyclic>`; each keeps only the frontier it grows.
pub struct PreparedAcyclic<R: Ranking + Clone> {
    ranking: R,
    root: usize,
    nodes: Vec<PreparedNode<R>>,
    /// Projection attributes in the user-requested order (the order of the
    /// emitted tuples and of rank tie-breaking).
    projection: Vec<Attr>,
    /// Some reduced relation is empty: no answer exists.
    empty: bool,
    /// The build's counters (reducer passes, initial cells and their
    /// frontier bytes). Every cursor starts from them, so its accounting
    /// is the same whether the prepared part was built for it or reused.
    pub(crate) stats: EnumStats,
    bytes: u64,
}

impl<R: Ranking + Clone> PreparedAcyclic<R> {
    /// Preprocess `query` over `db` with a default join tree, running the
    /// full-reducer pass under `ctx` (morsel-parallel semi-joins on a
    /// pooled context). The result — and therefore every emitted answer —
    /// is identical to the serial build at any thread count.
    pub fn prepare(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let tree = JoinTree::build(query)?;
        Self::prepare_with_tree(query, db, ranking, tree, ctx)
    }

    /// [`PreparedAcyclic::prepare`] with an explicit join tree (any root
    /// is valid; the complexity guarantees do not depend on the choice).
    pub fn prepare_with_tree(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        tree: JoinTree,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        query.validate_against(db)?;
        let (pruned, reduced, rstats) = reduce_then_prune_ctx(ctx, query, tree, db)?;
        let mut built = Self::from_reduced(query.projection().to_vec(), ranking, pruned, reduced)?;
        built
            .stats
            .record_reduce(rstats.passes, rstats.input_rows, rstats.output_rows);
        Ok(built)
    }

    /// Build from per-node relations that are already bound to query
    /// variables and fully reduced (the star-query and GHD-based
    /// enumerators prepare their own instances).
    fn from_reduced(
        projection: Vec<Attr>,
        ranking: R,
        tree: JoinTree,
        reduced: Vec<Relation>,
    ) -> Result<Self, EnumError> {
        assert_eq!(tree.len(), reduced.len());
        let mut stats = EnumStats::new();
        let empty = reduced.iter().any(|r| r.is_empty());

        // Global position of each projection attribute: its index in the
        // user projection order. Tie-breaking reads every node's output in
        // this global order, which keeps comparisons consistent across the
        // whole tree.
        let global_pos = |a: &Attr| -> usize {
            projection
                .iter()
                .position(|x| x == a)
                .expect("projection attribute missing from join tree output")
        };

        // Static per-node info; anchor positions are build-time only.
        let mut nodes: Vec<PreparedNode<R>> = Vec::with_capacity(tree.len());
        let mut anchor_pos: Vec<Vec<usize>> = Vec::with_capacity(tree.len());
        let mut child_anchor_pos: Vec<Vec<Vec<usize>>> = Vec::with_capacity(tree.len());
        for (idx, rel) in reduced.into_iter().enumerate() {
            let node = tree.node(idx);
            anchor_pos.push(rel.positions(&node.anchor)?);
            child_anchor_pos.push(
                node.children
                    .iter()
                    .map(|&c| rel.positions(&tree.node(c).anchor))
                    .collect::<Result<Vec<_>, _>>()?,
            );
            let mut tie_perm: Vec<usize> = (0..node.subtree_proj.len()).collect();
            tie_perm.sort_by_key(|&i| global_pos(&node.subtree_proj[i]));
            nodes.push(PreparedNode {
                own_proj_pos: rel.positions(&node.own_proj)?,
                children: node.children.clone(),
                arena: CellArena::new(node.subtree_proj.len(), node.children.len()),
                tie_perm,
                plan: ranking.plan(&node.subtree_proj),
                relation: rel,
                keys: KeyInterner::new(),
                queues: Vec::new(),
            });
        }

        // Preprocessing (Algorithm 1): bottom-up cell construction. The
        // anchor maps assign dense queue ids per distinct anchor value;
        // they are build-time only — cells remember their anchor id, so
        // the maps are dropped (with their tuples) before enumeration.
        if !empty {
            let mut anchor_ids: Vec<HashMap<Tuple, u32>> = (0..tree.len())
                .map(|u| HashMap::with_capacity(nodes[u].relation.len().min(1024)))
                .collect();
            let mut out_buf: Tuple = Vec::new();
            let mut ptr_buf: Vec<CellId> = Vec::new();
            let mut anchor_buf: Tuple = Vec::new();
            for &u in &tree.post_order() {
                'rows: for row in 0..nodes[u].relation.len() {
                    out_buf.clear();
                    ptr_buf.clear();
                    anchor_buf.clear();
                    {
                        let ns = &nodes[u];
                        let t = ns.relation.tuple(row);
                        out_buf.extend(ns.own_proj_pos.iter().map(|&p| t[p]));
                        for (ci, &child) in ns.children.iter().enumerate() {
                            anchor_buf.clear();
                            anchor_buf.extend(child_anchor_pos[u][ci].iter().map(|&p| t[p]));
                            let child_ns = &nodes[child];
                            let top = anchor_ids[child]
                                .get(anchor_buf.as_slice())
                                .and_then(|&aid| child_ns.queues[aid as usize].peek());
                            let Some(top) = top else {
                                // A dangling tuple; cannot happen on a fully
                                // reduced instance but skipping it keeps the
                                // enumerator correct regardless.
                                debug_assert!(false, "dangling tuple on reduced instance");
                                continue 'rows;
                            };
                            ptr_buf.push(top.cell);
                            out_buf.extend_from_slice(child_ns.arena.output(top.cell));
                        }
                        anchor_buf.clear();
                        anchor_buf.extend(anchor_pos[u].iter().map(|&p| t[p]));
                    }
                    let key = ranking.key(&nodes[u].plan, &out_buf);
                    let anchor = match anchor_ids[u].get(anchor_buf.as_slice()) {
                        Some(&aid) => aid,
                        None => {
                            let aid = nodes[u].queues.len() as u32;
                            nodes[u].queues.push(FrontierHeap::new());
                            anchor_ids[u].insert(anchor_buf.clone(), aid);
                            aid
                        }
                    };
                    let ns = &mut nodes[u];
                    let (key_id, key_bytes) = ns.keys.intern(key);
                    let cell = ns
                        .arena
                        .push(row as u32, anchor, key_id, 0, &out_buf, &ptr_buf);
                    let PreparedNode {
                        arena,
                        keys,
                        queues,
                        tie_perm,
                        ..
                    } = ns;
                    let grown = queues[anchor as usize].push(
                        FrontierEntry { key: key_id, cell },
                        |a, b| {
                            frontier_cmp(|x, y| keys.cmp(x, y), |c| arena.output(c), tie_perm, a, b)
                        },
                    );
                    // Bump the raw counters, not `record_*`: preprocessing
                    // work must not leak into the per-answer delay
                    // histogram.
                    stats.cells_created += 1;
                    stats.pq_pushes += 1;
                    stats.frontier_alloc(
                        (arena.bytes_per_cell() + key_bytes + grown) as u64,
                        arena.bytes_per_cell() as u64 + key_bytes as u64 + ENTRY_BYTES,
                    );
                }
            }
        }

        // A sorted array is a valid heap: sorting every queue but the
        // root's (one queue of all root cells) lets cursors consume the
        // shared queues in place (see `QueueOverlay`). The per-anchor sorts
        // are small; the root's would be the one `O(n log n)` term.
        let root = tree.root();
        for (_, ns) in nodes.iter_mut().enumerate().filter(|(u, _)| *u != root) {
            let PreparedNode {
                arena,
                keys,
                queues,
                tie_perm,
                ..
            } = ns;
            for queue in queues.iter_mut() {
                queue.sort(|a, b| {
                    frontier_cmp(|x, y| keys.cmp(x, y), |c| arena.output(c), tie_perm, a, b)
                });
            }
        }
        let bytes = nodes
            .iter()
            .map(|n| {
                n.relation.value_count() * std::mem::size_of::<Value>()
                    + n.arena.bytes()
                    + n.keys.bytes()
                    + n.queues
                        .iter()
                        .map(FrontierHeap::retained_bytes)
                        .sum::<usize>()
            })
            .sum::<usize>() as u64;
        Ok(PreparedAcyclic {
            ranking,
            root,
            nodes,
            projection,
            empty,
            stats,
            bytes,
        })
    }

    /// Bytes the prepared part retains (reduced relations plus the initial
    /// frontier) — shared by every cursor opened on it.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Ranked enumerator for acyclic join-project queries: a cursor over a
/// shared [`PreparedAcyclic`].
///
/// ```
/// use rankedenum_core::AcyclicEnumerator;
/// use re_query::QueryBuilder;
/// use re_ranking::SumRanking;
/// use re_storage::{attr::attrs, Database, Relation};
///
/// let mut db = Database::new();
/// db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]),
///     vec![vec![1, 10], vec![2, 10], vec![3, 11]]).unwrap()).unwrap();
/// let q = QueryBuilder::new()
///     .atom("AP1", "AP", ["a1", "p"])
///     .atom("AP2", "AP", ["a2", "p"])
///     .project(["a1", "a2"])
///     .build().unwrap();
/// let top: Vec<_> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
///     .unwrap().take(3).collect();
/// assert_eq!(top, vec![vec![1, 1], vec![1, 2], vec![2, 1]]);
/// ```
pub struct AcyclicEnumerator<R: Ranking + Clone> {
    prepared: Arc<PreparedAcyclic<R>>,
    nodes: Vec<NodeCursor<R::Key>>,
    /// Root cell of the last emitted answer (cells are never freed, so the
    /// id stays valid) — the deduplication check compares arena slices
    /// instead of keeping an owned copy.
    last_emitted: Option<CellId>,
    /// Reusable output scratch buffer (cleared per successor, capacity
    /// kept — the reason steady-state expansion allocates nothing).
    out_buf: Tuple,
    /// Reusable child-pointer scratch buffer.
    ptr_buf: Vec<CellId>,
    stats: EnumStats,
    exhausted: bool,
}

impl<R: Ranking + Clone> AcyclicEnumerator<R> {
    /// Build the enumerator with a default join tree.
    pub fn new(query: &JoinProjectQuery, db: &Database, ranking: R) -> Result<Self, EnumError> {
        Self::new_ctx(query, db, ranking, &ExecContext::serial())
    }

    /// Build the enumerator with a default join tree, preprocessing under
    /// `ctx` (see [`PreparedAcyclic::prepare`]).
    pub fn new_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let prepared = PreparedAcyclic::prepare(query, db, ranking, ctx)?;
        Ok(Self::open(Arc::new(prepared)))
    }

    /// Build the enumerator with an explicit join tree (any root is valid;
    /// the complexity guarantees do not depend on the choice).
    pub fn with_tree(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        tree: JoinTree,
    ) -> Result<Self, EnumError> {
        let prepared =
            PreparedAcyclic::prepare_with_tree(query, db, ranking, tree, &ExecContext::serial())?;
        Ok(Self::open(Arc::new(prepared)))
    }

    /// Open a cursor on a prepared part: no preprocessing, only the
    /// private views (unset chain pointers, no own cells or keys, no
    /// copied queues) are allocated.
    pub fn open(prepared: Arc<PreparedAcyclic<R>>) -> Self {
        let nodes = prepared
            .nodes
            .iter()
            .enumerate()
            .map(|(u, n)| NodeCursor {
                cells: CellOverlay::new(&n.arena),
                keys: KeyOverlay::new(&n.keys),
                queues: QueueOverlay::new(n.queues.len(), u != prepared.root),
            })
            .collect();
        AcyclicEnumerator {
            stats: prepared.stats.clone(),
            exhausted: prepared.empty,
            prepared,
            nodes,
            last_emitted: None,
            out_buf: Tuple::new(),
            ptr_buf: Vec::new(),
        }
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        &self.prepared.projection
    }

    /// The ranking function used by this enumerator.
    pub fn ranking(&self) -> &R {
        &self.prepared.ranking
    }

    /// Enumeration statistics collected so far.
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Total number of cells visible to this cursor (shared initial cells
    /// plus the ones it created) — the dominant part of the enumerator's
    /// memory footprint.
    pub fn cell_count(&self) -> usize {
        self.nodes.iter().map(|n| n.cells.len()).sum()
    }

    /// Bytes currently retained by the frontier (see
    /// [`EnumStats::frontier_bytes`]).
    pub fn frontier_bytes(&self) -> u64 {
        self.stats.frontier_bytes
    }

    /// Distinct rank keys interned across all nodes (each stored once, no
    /// matter how many cells or queue entries reference it).
    pub fn interned_keys(&self) -> usize {
        self.nodes.iter().map(|n| n.keys.len()).sum()
    }

    /// Rank key of an output tuple (in user projection order).
    pub fn key_of_output(&self, tuple: &[Value]) -> R::Key {
        self.prepared
            .ranking
            .key_of(&self.prepared.projection, tuple)
    }

    /// Pop the minimum entry of `node`'s queue `anchor`, if any.
    fn pop_queue(&mut self, node: usize, anchor: u32) -> Option<FrontierEntry> {
        let shared = &self.prepared.nodes[node];
        let NodeCursor {
            cells,
            keys,
            queues,
        } = &mut self.nodes[node];
        let popped = queues.pop(&shared.queues, anchor, |a, b| {
            entry_cmp(shared, cells, keys, a, b)
        })?;
        self.stats.record_pop();
        self.stats.frontier_release(ENTRY_BYTES);
        Some(popped)
    }

    /// The minimum entry of `node`'s queue `anchor`, if any.
    fn peek_queue(&self, node: usize, anchor: u32) -> Option<FrontierEntry> {
        let shared = &self.prepared.nodes[node];
        let NodeCursor {
            cells,
            keys,
            queues,
        } = &self.nodes[node];
        queues.peek(&shared.queues, anchor, |a, b| {
            entry_cmp(shared, cells, keys, a, b)
        })
    }

    /// Whether the outputs of two cells of `node` are equal (tie-permuted
    /// equality coincides with raw slab equality — the permutation is a
    /// bijection).
    fn outputs_equal(&self, node: usize, a: CellId, b: CellId) -> bool {
        let base = &self.prepared.nodes[node].arena;
        let cells = &self.nodes[node].cells;
        a == b || cells.output(base, a) == cells.output(base, b)
    }

    /// Create the successor cell of `cell` at `node` that advances child
    /// `ci` to `next_child`, filling the scratch buffers in place (no
    /// allocations once their capacity has warmed up) and pushing the new
    /// cell into the anchor queue.
    fn push_successor(
        &mut self,
        node: usize,
        cell: CellId,
        ci: usize,
        next_child: CellId,
        anchor: u32,
    ) {
        let mut out = std::mem::take(&mut self.out_buf);
        let mut ptrs = std::mem::take(&mut self.ptr_buf);
        out.clear();
        ptrs.clear();
        let prepared = &*self.prepared;
        let shared = &prepared.nodes[node];
        let row = self.nodes[node].cells.row(&shared.arena, cell);
        {
            let t = shared.relation.tuple(row as usize);
            out.extend(shared.own_proj_pos.iter().map(|&p| t[p]));
            ptrs.extend_from_slice(self.nodes[node].cells.ptrs(&shared.arena, cell));
            ptrs[ci] = next_child;
            for (cj, &child) in shared.children.iter().enumerate() {
                let child_base = &prepared.nodes[child].arena;
                out.extend_from_slice(self.nodes[child].cells.output(child_base, ptrs[cj]));
            }
        }
        let key = prepared.ranking.key(&shared.plan, &out);
        let NodeCursor {
            cells,
            keys,
            queues,
        } = &mut self.nodes[node];
        let (key_id, key_bytes) = keys.intern(&shared.keys, key);
        let id = cells.push(row, anchor, key_id, ci as u32, &out, &ptrs);
        let grown = queues.push(
            &shared.queues,
            anchor,
            FrontierEntry {
                key: key_id,
                cell: id,
            },
            |a, b| entry_cmp(shared, cells, keys, a, b),
        );
        let cell_bytes = shared.arena.bytes_per_cell() as u64;
        self.stats.record_cell();
        self.stats.record_push();
        self.stats.frontier_alloc(
            cell_bytes + (key_bytes + grown) as u64,
            cell_bytes + key_bytes as u64 + ENTRY_BYTES,
        );
        self.out_buf = out;
        self.ptr_buf = ptrs;
    }

    /// Generate the successor cells of `cell` at `node`: advance one child
    /// pointer at a time (lines 13–16 of Algorithm 2). Only children at or
    /// after the cell's `advance_from` are advanced, so every pointer
    /// combination is generated exactly once.
    fn expand_successors(&mut self, node: usize, cell: CellId, anchor: u32) {
        let base = &self.prepared.nodes[node].arena;
        let advance_from = self.nodes[node].cells.advance_from(base, cell) as usize;
        for ci in advance_from..self.prepared.nodes[node].children.len() {
            let child = self.prepared.nodes[node].children[ci];
            let base = &self.prepared.nodes[node].arena;
            let child_cell = self.nodes[node].cells.ptrs(base, cell)[ci];
            if let Some(next_child) = self.topdown(child_cell, child) {
                self.push_successor(node, cell, ci, next_child, anchor);
            }
        }
    }

    /// The `Topdown` procedure of Algorithm 2: advance the ranked
    /// materialisation of `node`'s queue past the cell `cell`, returning the
    /// id of the next distinct partial answer (or `None` when exhausted).
    /// Only called on non-root nodes — the root queue is driven directly by
    /// [`Iterator::next`], which owns the popped entry instead of chaining.
    fn topdown(&mut self, cell: CellId, node: usize) -> Option<CellId> {
        match self.nodes[node].cells.next(cell) {
            NEXT_EXHAUSTED => return None,
            NEXT_NOT_COMPUTED => {}
            chained => return Some(chained),
        }
        debug_assert_ne!(node, self.prepared.root, "topdown never drives the root");
        // The cell remembers its dense anchor id — no anchor tuple is ever
        // rebuilt or hashed here (the old engine allocated one per call).
        let anchor = self.nodes[node]
            .cells
            .anchor(&self.prepared.nodes[node].arena, cell);
        let mut first_iteration = true;
        loop {
            let Some(popped) = self.pop_queue(node, anchor) else {
                self.nodes[node].cells.set_next(cell, NEXT_EXHAUSTED);
                return None;
            };
            if first_iteration {
                // When `next` is unset the cell is the current chain end and
                // therefore the top of its queue.
                debug_assert_eq!(popped.cell, cell, "expanded cell must be the queue top");
                first_iteration = false;
            }

            self.expand_successors(node, popped.cell, anchor);

            // Chain to the new top; keep popping while it duplicates the
            // output we just advanced past (lines 17–19).
            let top = self.peek_queue(node, anchor);
            let (next_ptr, duplicate) = match top {
                None => (NEXT_EXHAUSTED, false),
                Some(e) => (e.cell, self.outputs_equal(node, e.cell, popped.cell)),
            };
            self.nodes[node].cells.set_next(cell, next_ptr);
            if !duplicate {
                return match next_ptr {
                    NEXT_EXHAUSTED | NEXT_NOT_COMPUTED => None,
                    chained => Some(chained),
                };
            }
        }
    }
}

impl<R: Ranking + Clone> Iterator for AcyclicEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.exhausted {
            return None;
        }
        let root = self.prepared.root;
        // The root's anchor is the empty tuple, so all root cells share
        // queue 0.
        loop {
            if self.prepared.nodes[root].queues.is_empty() {
                self.exhausted = true;
                return None;
            }
            // Pop the best root entry and own it — the root never chains,
            // so no peek is needed to keep the queue consistent.
            let Some(top) = self.pop_queue(root, 0) else {
                self.exhausted = true;
                return None;
            };
            self.expand_successors(root, top.cell, 0);
            // Keep popping while the new top duplicates the advanced-past
            // output (lines 17–19 of Algorithm 2 at the root).
            loop {
                let dup = match self.peek_queue(root, 0) {
                    Some(e) if self.outputs_equal(root, e.cell, top.cell) => Some(e.cell),
                    _ => None,
                };
                let Some(cell) = dup else { break };
                self.pop_queue(root, 0);
                self.expand_successors(root, cell, 0);
            }
            // Deduplicate against the previous answer by comparing arena
            // slices — no owned copy is kept. The only allocation below is
            // the emitted answer itself.
            if self
                .last_emitted
                .is_none_or(|last| !self.outputs_equal(root, last, top.cell))
            {
                self.last_emitted = Some(top.cell);
                self.stats.record_answer();
                let shared = &self.prepared.nodes[root];
                let out = self.nodes[root].cells.output(&shared.arena, top.cell);
                // At the root the tie permutation maps the subtree layout
                // to the user projection order.
                return Some(shared.tie_perm.iter().map(|&p| out[p]).collect());
            }
            // Duplicate of the previous answer (possible only through rank
            // ties introduced by later insertions); skip and continue.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::{LexRanking, SumRanking, WeightAssignment};
    use re_storage::attr::attrs;

    /// The instance of Example 4 in the paper.
    fn paper_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R1",
                attrs(["A", "B"]),
                vec![vec![1, 1], vec![2, 1], vec![1, 2], vec![3, 2]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R2", attrs(["B", "C"]), vec![vec![1, 1], vec![2, 1]]).unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![1, 1], vec![1, 2]]).unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R4", attrs(["D", "E"]), vec![vec![1, 1], vec![1, 2]]).unwrap(),
        )
        .unwrap();
        db
    }

    /// The 4-path query of Example 2: `π_{A,E}(R1 ⋈ R2 ⋈ R3 ⋈ R4)`.
    fn paper_query() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .atom("R3", "R3", ["C", "D"])
            .atom("R4", "R4", ["D", "E"])
            .project(["A", "E"])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_running_example_sum_order() {
        let db = paper_db();
        let q = paper_query();
        let tree = JoinTree::build_rooted(&q, 2).unwrap();
        let e = AcyclicEnumerator::with_tree(&q, &db, SumRanking::value_sum(), tree).unwrap();
        let results: Vec<Tuple> = e.collect();
        // Distinct (A, E) pairs: A ∈ {1,2,3}, E ∈ {1,2}; ranked by A+E with
        // ties broken by the output tuple.
        assert_eq!(
            results,
            vec![
                vec![1, 1],
                vec![1, 2],
                vec![2, 1],
                vec![2, 2],
                vec![3, 1],
                vec![3, 2],
            ]
        );
    }

    #[test]
    fn first_answer_matches_example_5() {
        let db = paper_db();
        let q = paper_query();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert_eq!(e.next(), Some(vec![1, 1]));
    }

    #[test]
    fn every_root_choice_gives_the_same_answer_sequence() {
        let db = paper_db();
        let q = paper_query();
        let reference: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        for root in 0..4 {
            let tree = JoinTree::build_rooted(&q, root).unwrap();
            let got: Vec<Tuple> =
                AcyclicEnumerator::with_tree(&q, &db, SumRanking::value_sum(), tree)
                    .unwrap()
                    .collect();
            assert_eq!(got, reference, "root {root} changed the output");
        }
    }

    #[test]
    fn no_duplicates_and_sorted_by_rank() {
        let db = paper_db();
        let q = paper_query();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let ranking = SumRanking::value_sum();
        let results: Vec<Tuple> = e.collect();
        let mut seen = std::collections::HashSet::new();
        let mut last_key = None;
        for t in &results {
            assert!(seen.insert(t.clone()), "duplicate answer {t:?}");
            let k = ranking.key_of(&attrs(["A", "E"]), t);
            if let Some(prev) = last_key {
                assert!(k >= prev, "answers out of order");
            }
            last_key = Some(k);
        }
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn two_hop_self_join() {
        // Authors 1,2 share paper 10; author 3 alone on paper 11.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![vec![1, 10], vec![2, 10], vec![3, 11]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        assert_eq!(
            results,
            vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2], vec![3, 3],]
        );
    }

    #[test]
    fn empty_join_yields_no_answers() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("R", attrs(["a", "b"]), vec![vec![1, 1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("S", attrs(["b", "c"]), vec![vec![9, 5]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .atom("S", "S", ["b", "c"])
            .project(["a", "c"])
            .build()
            .unwrap();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert_eq!(e.next(), None);
        assert_eq!(e.next(), None);
    }

    #[test]
    fn lexicographic_ranking_through_general_algorithm() {
        let db = paper_db();
        let q = paper_query();
        let lex = LexRanking::new(["E", "A"], WeightAssignment::value_as_weight());
        let e = AcyclicEnumerator::new(&q, &db, lex).unwrap();
        let results: Vec<Tuple> = e.collect();
        // Ordered by E first, then A.
        assert_eq!(
            results,
            vec![
                vec![1, 1],
                vec![2, 1],
                vec![3, 1],
                vec![1, 2],
                vec![2, 2],
                vec![3, 2],
            ]
        );
    }

    #[test]
    fn stats_are_collected() {
        let db = paper_db();
        let q = paper_query();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert!(e.stats().pq_pushes > 0, "preprocessing must insert cells");
        let pre_cells = e.cell_count();
        assert!(pre_cells > 0);
        let _ = e.by_ref().take(3).collect::<Vec<_>>();
        assert_eq!(e.stats().answers, 3);
        assert_eq!(e.stats().ops_per_answer.len(), 3);
        assert!(e.stats().pq_pops > 0);
    }

    #[test]
    fn frontier_memory_is_accounted_and_hot_path_allocates_no_tuples() {
        let db = paper_db();
        let q = paper_query();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let at_build = e.frontier_bytes();
        assert!(at_build > 0, "preprocessing retains the initial frontier");
        assert!(e.interned_keys() > 0);
        let n = e.by_ref().count();
        assert!(n > 0);
        assert!(
            e.frontier_bytes() >= at_build,
            "retained bytes are monotone"
        );
        assert!(e.stats().frontier_peak_bytes > 0);
        assert!(e.stats().frontier_peak_bytes <= e.stats().frontier_bytes);
        assert_eq!(
            e.stats().tuple_allocs,
            0,
            "steady-state next() must not allocate tuples beyond the answer"
        );
        assert_eq!(e.stats().relation_clones, 0);
        assert_eq!(e.stats().reducer_calls, 0);
    }

    #[test]
    fn equal_rank_keys_are_interned_once() {
        // Every co-author pair (a1, a2) and its mirror (a2, a1) share the
        // rank key a1 + a2 — the interner must store each distinct sum
        // once, not once per cell.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![vec![1, 10], vec![2, 10], vec![3, 10], vec![4, 10]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let n = e.by_ref().count();
        assert_eq!(n, 16);
        let cells = e.cell_count();
        let keys = e.interned_keys();
        assert!(
            keys < cells,
            "rank ties must share interned keys ({keys} keys for {cells} cells)"
        );
    }

    #[test]
    fn single_atom_query_projects_and_dedups() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R",
                attrs(["a", "b"]),
                vec![vec![2, 7], vec![1, 8], vec![2, 9]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .project(["a"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results, vec![vec![1], vec![2]]);
    }

    #[test]
    fn cartesian_product_enumeration() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("R", attrs(["a"]), vec![vec![1], vec![3]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("S", attrs(["b"]), vec![vec![2], vec![4]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a"])
            .atom("S", "S", ["b"])
            .project(["a", "b"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0], vec![1, 2]);
        assert_eq!(results[3], vec![3, 4]);
    }

    #[test]
    fn projection_order_is_respected_in_output() {
        let db = paper_db();
        // Same query but projecting (E, A) — outputs must come in that order.
        let q = QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .atom("R3", "R3", ["C", "D"])
            .atom("R4", "R4", ["D", "E"])
            .project(["E", "A"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let first = e.take(1).next().unwrap();
        assert_eq!(first, vec![1, 1]);
        assert_eq!(
            AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
                .unwrap()
                .output_attrs(),
            &[Attr::new("E"), Attr::new("A")]
        );
    }
}
