//! The shared frontier kernel: arena-backed cells, interned rank keys and
//! slim priority queues.
//!
//! The paper's delay bounds treat cells and priority-queue entries as
//! constant-size handles, but the first-cut general engine materialised an
//! owned `Tuple` per cell, cloned it again into every heap entry, and
//! cloned the rank key per entry — so frontier memory and allocator
//! traffic grew with answer arity. This module is the fixed-size-handle
//! representation the analysis assumes:
//!
//! * [`CellArena`] — one slab per join-tree node. A node's output arity
//!   and child count are constants, so a cell's output lives at
//!   `cell_id × out_stride` in one flat `Vec<Value>` and its child
//!   pointers at `cell_id × ptr_stride` in one flat `Vec<CellId>`; the
//!   per-cell metadata (`row`, `anchor`, `key`, `advance_from`) is four
//!   `u32`s. No per-cell allocations, ever.
//! * [`CellOverlay`], [`KeyOverlay`], [`QueueOverlay`] — a cursor's
//!   private view over an immutable, shared node: the initial cells, keys
//!   and anchor queues stay in the prepared part every cursor reads; a
//!   cursor appends its own cells and keys after them (ids continue past
//!   the shared ones), keeps every cell's `next` pointer privately, and
//!   copies an anchor queue on its first pop or push.
//! * [`KeyInterner`] — each distinct rank key is stored once; entries
//!   carry a `u32` key id and compare by table lookup
//!   ([`KeyInterner::cmp`]), never by cloning key expansions.
//! * [`FrontierHeap`] — a binary min-heap of `(key_id, cell_id)` pairs
//!   (8 bytes per entry). Because the ids only order relative to their
//!   node's interner and arena, the heap takes the comparator as an
//!   argument instead of demanding `Ord` — the comparator is total
//!   (`(key, tie output, cell id)`), so pop order is independent of the
//!   heap implementation.
//!
//! Everything here is byte-accounted: the arena, interner and heap all
//! report their footprint so [`EnumStats`](crate::EnumStats) can expose
//! `frontier_bytes` / `frontier_peak_bytes` and the server can enforce
//! session memory budgets.

use crate::cell::CellId;
use re_ranking::RankKey;
use re_storage::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Packed `next`-pointer sentinel: not computed yet (`⊥` in the paper).
pub const NEXT_NOT_COMPUTED: u32 = u32::MAX;
/// Packed `next`-pointer sentinel: the ranked output is exhausted.
pub const NEXT_EXHAUSTED: u32 = u32::MAX - 1;

/// Per-cell metadata: four `u32`s, stored in one flat vector. The `next`
/// chain pointer lives outside the cell (see [`CellOverlay`]): it is the
/// only field enumeration writes, so it belongs to the cursor while the
/// cell itself can be shared.
#[derive(Clone, Copy, Debug)]
struct CellMeta {
    /// Row index of the node tuple inside the node's reduced relation.
    row: u32,
    /// Anchor-queue id the cell belongs to (see the enumerator: anchor
    /// values get dense ids during preprocessing, so successor pushes and
    /// `Topdown` never rebuild or hash an anchor tuple).
    anchor: u32,
    /// Interned rank-key id of the cell's output.
    key: u32,
    /// First child pointer successors of this cell may advance (the
    /// duplicate-path breaker of Algorithm 2).
    advance_from: u32,
}

/// Fixed-stride cell storage for one join-tree node.
#[derive(Debug)]
pub struct CellArena {
    out_stride: usize,
    ptr_stride: usize,
    /// Cell `i`'s output occupies `outputs[i * out_stride ..][..out_stride]`.
    outputs: Vec<Value>,
    /// Cell `i`'s child pointers occupy `ptrs[i * ptr_stride ..][..ptr_stride]`.
    ptrs: Vec<CellId>,
    meta: Vec<CellMeta>,
}

impl CellArena {
    /// An empty arena for a node with the given output arity and child
    /// count.
    pub fn new(out_stride: usize, ptr_stride: usize) -> Self {
        CellArena {
            out_stride,
            ptr_stride,
            outputs: Vec::new(),
            ptrs: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Number of cells stored.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the arena holds no cells.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The output arity of every cell.
    pub fn out_stride(&self) -> usize {
        self.out_stride
    }

    /// Append a cell; `output` and `ptrs` must have exactly the arena's
    /// strides. Returns the new cell's id.
    pub fn push(
        &mut self,
        row: u32,
        anchor: u32,
        key: u32,
        advance_from: u32,
        output: &[Value],
        ptrs: &[CellId],
    ) -> CellId {
        debug_assert_eq!(output.len(), self.out_stride);
        debug_assert_eq!(ptrs.len(), self.ptr_stride);
        let id = self.meta.len() as CellId;
        self.outputs.extend_from_slice(output);
        self.ptrs.extend_from_slice(ptrs);
        self.meta.push(CellMeta {
            row,
            anchor,
            key,
            advance_from,
        });
        id
    }

    /// The cell's output over the node's subtree projection attributes.
    pub fn output(&self, cell: CellId) -> &[Value] {
        let start = cell as usize * self.out_stride;
        &self.outputs[start..start + self.out_stride]
    }

    /// The cell's child pointers, in child order.
    pub fn ptrs(&self, cell: CellId) -> &[CellId] {
        let start = cell as usize * self.ptr_stride;
        &self.ptrs[start..start + self.ptr_stride]
    }

    /// The cell's relation row.
    pub fn row(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].row
    }

    /// The cell's anchor-queue id.
    pub fn anchor(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].anchor
    }

    /// The cell's interned key id.
    pub fn key_id(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].key
    }

    /// The cell's `advance_from` child index.
    pub fn advance_from(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].advance_from
    }

    /// Bytes one cell occupies: slab slices, metadata and the packed
    /// `next` pointer its cursor keeps for it.
    pub fn bytes_per_cell(&self) -> usize {
        self.out_stride * std::mem::size_of::<Value>()
            + self.ptr_stride * std::mem::size_of::<CellId>()
            + std::mem::size_of::<CellMeta>()
            + std::mem::size_of::<u32>()
    }

    /// Bytes occupied by the stored cells (length-based, so deterministic
    /// across runs).
    pub fn bytes(&self) -> usize {
        self.len() * self.bytes_per_cell()
    }
}

/// A cursor's cells of one node: the shared initial cells (ids
/// `0..base.len()`, read from the immutable `base` arena every accessor
/// takes) followed by the cells this cursor created, plus the packed
/// `next` pointer ([`NEXT_NOT_COMPUTED`] / [`NEXT_EXHAUSTED`] / a cell
/// id) of every cell — the chain is the one thing enumeration writes, so
/// each cursor keeps its own.
#[derive(Debug)]
pub struct CellOverlay {
    base_len: u32,
    own: CellArena,
    next: Vec<u32>,
}

impl CellOverlay {
    /// A fresh view over `base`: every chain pointer unset, no own cells.
    pub fn new(base: &CellArena) -> Self {
        CellOverlay {
            base_len: base.len() as u32,
            own: CellArena::new(base.out_stride, base.ptr_stride),
            next: vec![NEXT_NOT_COMPUTED; base.len()],
        }
    }

    /// Cells visible to the cursor (shared plus own).
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether the view holds no cells.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// The arena holding `cell`, and the cell's index inside it.
    #[inline]
    fn locate<'a>(&'a self, base: &'a CellArena, cell: CellId) -> (&'a CellArena, CellId) {
        if cell < self.base_len {
            (base, cell)
        } else {
            (&self.own, cell - self.base_len)
        }
    }

    /// The cell's output over the node's subtree projection attributes.
    #[inline]
    pub fn output<'a>(&'a self, base: &'a CellArena, cell: CellId) -> &'a [Value] {
        let (arena, i) = self.locate(base, cell);
        arena.output(i)
    }

    /// The cell's child pointers, in child order.
    #[inline]
    pub fn ptrs<'a>(&'a self, base: &'a CellArena, cell: CellId) -> &'a [CellId] {
        let (arena, i) = self.locate(base, cell);
        arena.ptrs(i)
    }

    /// The cell's relation row.
    #[inline]
    pub fn row(&self, base: &CellArena, cell: CellId) -> u32 {
        let (arena, i) = self.locate(base, cell);
        arena.row(i)
    }

    /// The cell's anchor-queue id.
    #[inline]
    pub fn anchor(&self, base: &CellArena, cell: CellId) -> u32 {
        let (arena, i) = self.locate(base, cell);
        arena.anchor(i)
    }

    /// The cell's `advance_from` child index.
    #[inline]
    pub fn advance_from(&self, base: &CellArena, cell: CellId) -> u32 {
        let (arena, i) = self.locate(base, cell);
        arena.advance_from(i)
    }

    /// The packed `next` pointer.
    #[inline]
    pub fn next(&self, cell: CellId) -> u32 {
        self.next[cell as usize]
    }

    /// Overwrite the packed `next` pointer.
    #[inline]
    pub fn set_next(&mut self, cell: CellId, next: u32) {
        self.next[cell as usize] = next;
    }

    /// Append an own cell (see [`CellArena::push`]); returns its id, which
    /// continues after the shared cells.
    pub fn push(
        &mut self,
        row: u32,
        anchor: u32,
        key: u32,
        advance_from: u32,
        output: &[Value],
        ptrs: &[CellId],
    ) -> CellId {
        let id = self.base_len + self.own.push(row, anchor, key, advance_from, output, ptrs);
        self.next.push(NEXT_NOT_COMPUTED);
        id
    }
}

/// Approximate per-id bucket overhead of the interner's fingerprint map
/// (the `u64` fingerprint plus a candidate-list slot).
const INTERN_BUCKET_BYTES: usize = 16;

/// End of a fingerprint collision chain.
const NO_ID: u32 = u32::MAX;

/// Hasher for the fingerprint map: a fingerprint already is a hash (or a
/// small integer for integer keys), so one multiply-xorshift finalizer
/// spreads it over the table instead of a second SipHash pass.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Stores each distinct rank key once and hands out dense `u32` ids.
///
/// Deduplication buckets candidates by [`RankKey::fingerprint`] and
/// confirms with `Ord` — keys that compare equal through different
/// representations may receive two ids, which costs a little sharing but
/// never correctness, because every ordering decision goes through
/// [`KeyInterner::cmp`]'s value comparison.
#[derive(Debug, Default)]
pub struct KeyInterner<K> {
    keys: Vec<K>,
    /// fingerprint → the newest id with that fingerprint.
    buckets: HashMap<u64, u32, BuildHasherDefault<FingerprintHasher>>,
    /// Per id, the next older id sharing its fingerprint ([`NO_ID`] ends
    /// the chain; collisions are rare, so chains are almost always one
    /// long and interning a new key allocates nothing per key).
    same_fingerprint: Vec<u32>,
    /// Heap bytes owned by the stored keys (length-based estimate).
    key_heap_bytes: usize,
}

impl<K: RankKey> KeyInterner<K> {
    /// An empty interner.
    pub fn new() -> Self {
        KeyInterner {
            keys: Vec::new(),
            buckets: HashMap::default(),
            same_fingerprint: Vec::new(),
            key_heap_bytes: 0,
        }
    }

    /// Intern `key`, returning its id and the bytes newly retained
    /// (`0` when the key deduplicated against an existing entry).
    pub fn intern(&mut self, key: K) -> (u32, usize) {
        self.intern_fingerprinted(key.fingerprint(), key)
    }

    /// [`KeyInterner::intern`] with the key's fingerprint already known.
    fn intern_fingerprinted(&mut self, fp: u64, key: K) -> (u32, usize) {
        if let Some(id) = self.find(fp, &key) {
            return (id, 0);
        }
        let id = self.keys.len() as u32;
        let older = self.buckets.insert(fp, id).unwrap_or(NO_ID);
        self.same_fingerprint.push(older);
        let bytes = std::mem::size_of::<K>() + key.heap_bytes() + INTERN_BUCKET_BYTES;
        self.key_heap_bytes += key.heap_bytes();
        self.keys.push(key);
        (id, bytes)
    }

    /// The id of an already interned key equal to `key` (whose
    /// fingerprint is `fp`), if any.
    fn find(&self, fp: u64, key: &K) -> Option<u32> {
        let mut id = *self.buckets.get(&fp)?;
        while id != NO_ID {
            if self.keys[id as usize].cmp(key) == Ordering::Equal {
                return Some(id);
            }
            id = self.same_fingerprint[id as usize];
        }
        None
    }

    /// The key behind an id.
    pub fn get(&self, id: u32) -> &K {
        &self.keys[id as usize]
    }

    /// Compare two interned keys by value. Identical ids short-circuit —
    /// the common case for rank ties, and the reason entries never clone
    /// key expansions to compare.
    pub fn cmp(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.keys[a as usize].cmp(&self.keys[b as usize])
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bytes retained by the interner (length-based estimate).
    pub fn bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<K>() + INTERN_BUCKET_BYTES) + self.key_heap_bytes
    }
}

/// A cursor's rank keys of one node: the shared interner's keys (ids
/// `0..base.len()`) followed by keys only this cursor has produced. A new
/// key deduplicates against both layers, so the ids — and the retained
/// bytes — a cursor sees are the same as one interner holding both.
#[derive(Debug)]
pub struct KeyOverlay<K> {
    base_len: u32,
    own: KeyInterner<K>,
}

impl<K: RankKey> KeyOverlay<K> {
    /// A fresh view over `base`.
    pub fn new(base: &KeyInterner<K>) -> Self {
        KeyOverlay {
            base_len: base.len() as u32,
            own: KeyInterner::new(),
        }
    }

    /// Intern `key` (see [`KeyInterner::intern`]).
    pub fn intern(&mut self, base: &KeyInterner<K>, key: K) -> (u32, usize) {
        let fp = key.fingerprint();
        if let Some(id) = base.find(fp, &key) {
            return (id, 0);
        }
        let (id, bytes) = self.own.intern_fingerprinted(fp, key);
        (self.base_len + id, bytes)
    }

    /// The key behind an id.
    #[inline]
    pub fn get<'a>(&'a self, base: &'a KeyInterner<K>, id: u32) -> &'a K {
        if id < self.base_len {
            base.get(id)
        } else {
            self.own.get(id - self.base_len)
        }
    }

    /// Compare two keys by value (see [`KeyInterner::cmp`]).
    #[inline]
    pub fn cmp(&self, base: &KeyInterner<K>, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.get(base, a).cmp(self.get(base, b))
    }

    /// Distinct keys visible to the cursor (shared plus own).
    pub fn len(&self) -> usize {
        self.base_len as usize + self.own.len()
    }

    /// Whether no key is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One pending frontier entry: an interned key id plus the cell it ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierEntry {
    /// Interned rank-key id (resolved against the node's [`KeyInterner`]).
    pub key: u32,
    /// The cell id (resolved against the node's [`CellArena`]).
    pub cell: CellId,
}

/// A binary min-heap of [`FrontierEntry`]s with an external comparator.
///
/// The comparator must be a **total** order (the enumerators use
/// `(key, tie output, cell id)`), which makes the pop sequence independent
/// of sift implementation details — the property the byte-identical
/// equivalence suites rely on.
#[derive(Debug, Default)]
pub struct FrontierHeap {
    slots: Vec<FrontierEntry>,
}

impl FrontierHeap {
    /// An empty heap.
    pub fn new() -> Self {
        FrontierHeap { slots: Vec::new() }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The minimum entry without removing it.
    pub fn peek(&self) -> Option<FrontierEntry> {
        self.slots.first().copied()
    }

    /// Insert an entry; returns the bytes of freshly reserved capacity
    /// (0 when a previously popped slot was reused), for retained-memory
    /// accounting.
    pub fn push(
        &mut self,
        entry: FrontierEntry,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> usize {
        let cap_before = self.slots.capacity();
        self.slots.push(entry);
        let grown = (self.slots.capacity() - cap_before) * std::mem::size_of::<FrontierEntry>();
        let mut i = self.slots.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp(self.slots[i], self.slots[parent]) == Ordering::Less {
                self.slots.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        grown
    }

    /// Remove and return the minimum entry.
    pub fn pop(
        &mut self,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> Option<FrontierEntry> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        self.slots.swap(0, n - 1);
        let top = self.slots.pop();
        let n = self.slots.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let smallest =
                if right < n && cmp(self.slots[right], self.slots[left]) == Ordering::Less {
                    right
                } else {
                    left
                };
            if cmp(self.slots[smallest], self.slots[i]) == Ordering::Less {
                self.slots.swap(i, smallest);
                i = smallest;
            } else {
                break;
            }
        }
        top
    }

    /// Sort the entries ascending by `cmp` (a total order). A sorted array
    /// is a valid min-heap, so the heap stays usable — and its entries can
    /// be consumed in order without popping (see [`QueueOverlay`]).
    pub fn sort(&mut self, mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering) {
        self.slots.sort_unstable_by(|&a, &b| cmp(a, b));
    }

    /// A private copy with the same reserved capacity, so a cursor's
    /// retained-bytes accounting continues exactly where the original's
    /// left off.
    pub fn copy_reserved(&self) -> FrontierHeap {
        let mut slots = Vec::with_capacity(self.slots.capacity());
        slots.extend_from_slice(&self.slots);
        FrontierHeap { slots }
    }

    /// Bytes of reserved entry storage (capacity-based: pops do not return
    /// memory to the allocator).
    pub fn retained_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<FrontierEntry>()
    }

    /// Bytes of live entries.
    pub fn live_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<FrontierEntry>()
    }
}

/// A cursor's anchor queues of one node, over the shared queues
/// preprocessing built. Each queue is the shared queue's remainder merged
/// with a heap of the entries this cursor pushed; opening a cursor copies
/// and allocates nothing per queue.
///
/// * **Sorted** shared queues ([`FrontierHeap::sort`] — a sorted array is
///   also a valid heap) are consumed in place: the cursor keeps how many
///   entries it popped, and a pop takes the smaller of the next shared
///   entry and its own heap's top. A queue that never receives a push (a
///   leaf node's) costs the cursor one counter.
/// * **Unsorted** shared queues (the root's single queue, whose sort would
///   cost preprocessing `O(n log n)`) are copied into the cursor's own
///   heap on their first pop or push.
///
/// Both yield the pop sequence of one heap holding every entry: the
/// comparator is a total order.
#[derive(Debug)]
pub struct QueueOverlay {
    sorted: bool,
    /// Per anchor: shared entries consumed (popped, or copied into the
    /// cursor's heap).
    taken: Vec<u32>,
    /// Per anchor: `1 + ` the index of its own heap in `heaps`, `0` for
    /// none yet.
    slot: Vec<u32>,
    heaps: Vec<FrontierHeap>,
}

impl QueueOverlay {
    /// A fresh view over `anchors` shared queues, sorted or not.
    pub fn new(anchors: usize, sorted: bool) -> Self {
        QueueOverlay {
            sorted,
            taken: vec![0; anchors],
            slot: vec![0; anchors],
            heaps: Vec::new(),
        }
    }

    /// The cursor's own heap of queue `anchor`, if it has one.
    #[inline]
    fn own(&self, anchor: u32) -> Option<&FrontierHeap> {
        match self.slot[anchor as usize] {
            0 => None,
            s => Some(&self.heaps[s as usize - 1]),
        }
    }

    /// The cursor's own heap of queue `anchor`, created on first use — for
    /// an unsorted shared queue, as a copy of it (with the same reserved
    /// capacity, so the retained-bytes accounting continues seamlessly).
    fn own_mut(&mut self, base: &[FrontierHeap], anchor: u32) -> &mut FrontierHeap {
        let a = anchor as usize;
        if self.slot[a] == 0 {
            let heap = if self.sorted {
                FrontierHeap::new()
            } else {
                self.taken[a] = base[a].len() as u32;
                base[a].copy_reserved()
            };
            self.heaps.push(heap);
            self.slot[a] = self.heaps.len() as u32;
        }
        &mut self.heaps[self.slot[a] as usize - 1]
    }

    /// The next shared entry of queue `anchor` not yet consumed (for an
    /// unsorted queue only ever its heap top, before the copy).
    #[inline]
    fn shared_top(&self, base: &[FrontierHeap], anchor: u32) -> Option<FrontierEntry> {
        base[anchor as usize]
            .slots
            .get(self.taken[anchor as usize] as usize)
            .copied()
    }

    /// The minimum entry of queue `anchor`.
    #[inline]
    pub fn peek(
        &self,
        base: &[FrontierHeap],
        anchor: u32,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> Option<FrontierEntry> {
        let shared = self.shared_top(base, anchor);
        match (shared, self.own(anchor).and_then(FrontierHeap::peek)) {
            (Some(s), Some(o)) => Some(if cmp(o, s) == Ordering::Less { o } else { s }),
            (s, o) => s.or(o),
        }
    }

    /// Remove and return the minimum entry of queue `anchor`.
    #[inline]
    pub fn pop(
        &mut self,
        base: &[FrontierHeap],
        anchor: u32,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> Option<FrontierEntry> {
        if !self.sorted {
            return self.own_mut(base, anchor).pop(cmp);
        }
        let shared = self.shared_top(base, anchor);
        let own = self.own(anchor).and_then(FrontierHeap::peek);
        match (shared, own) {
            (Some(s), Some(o)) if cmp(o, s) != Ordering::Less => {
                self.taken[anchor as usize] += 1;
                Some(s)
            }
            (Some(s), None) => {
                self.taken[anchor as usize] += 1;
                Some(s)
            }
            (_, Some(_)) => self.own_mut(base, anchor).pop(cmp),
            (None, None) => None,
        }
    }

    /// Insert an entry into queue `anchor`; returns the bytes of freshly
    /// reserved capacity (see [`FrontierHeap::push`]).
    #[inline]
    pub fn push(
        &mut self,
        base: &[FrontierHeap],
        anchor: u32,
        entry: FrontierEntry,
        cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> usize {
        self.own_mut(base, anchor).push(entry, cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_ranking::{ExactSum, Weight};

    #[test]
    fn arena_stores_fixed_stride_cells() {
        let mut arena = CellArena::new(2, 3);
        let a = arena.push(7, 0, 4, 1, &[10, 20], &[0, 1, 2]);
        let b = arena.push(8, 2, 5, 0, &[30, 40], &[3, 4, 5]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.output(a), &[10, 20]);
        assert_eq!(arena.output(b), &[30, 40]);
        assert_eq!(arena.ptrs(b), &[3, 4, 5]);
        assert_eq!(arena.row(a), 7);
        assert_eq!(arena.anchor(b), 2);
        assert_eq!(arena.key_id(a), 4);
        assert_eq!(arena.advance_from(a), 1);
        assert_eq!(arena.bytes(), 2 * arena.bytes_per_cell());
        assert_eq!(
            arena.bytes_per_cell(),
            2 * 8 + 3 * 4 + std::mem::size_of::<CellMeta>() + 4
        );
    }

    #[test]
    fn overlay_appends_after_shared_cells_and_owns_the_chain() {
        let mut base = CellArena::new(1, 0);
        base.push(0, 0, 0, 0, &[10], &[]);
        base.push(1, 1, 1, 0, &[20], &[]);
        let mut a = CellOverlay::new(&base);
        let mut b = CellOverlay::new(&base);
        assert_eq!(a.len(), 2);
        assert_eq!(a.next(0), NEXT_NOT_COMPUTED);
        let own = a.push(7, 1, 2, 0, &[30], &[]);
        assert_eq!(own, 2, "own ids continue after the shared cells");
        assert_eq!(a.output(&base, 1), &[20]);
        assert_eq!(a.output(&base, own), &[30]);
        assert_eq!(a.row(&base, own), 7);
        assert_eq!(a.anchor(&base, own), 1);
        a.set_next(0, own);
        a.set_next(own, NEXT_EXHAUSTED);
        assert_eq!(a.next(0), own);
        assert_eq!(a.next(own), NEXT_EXHAUSTED);
        // The other cursor's view is untouched.
        assert_eq!(b.len(), 2);
        assert_eq!(b.next(0), NEXT_NOT_COMPUTED);
        assert_eq!(b.push(9, 0, 0, 0, &[40], &[]), 2);
        assert_eq!(b.output(&base, 2), &[40]);
    }

    #[test]
    fn key_overlay_dedups_against_both_layers() {
        let mut base: KeyInterner<u64> = KeyInterner::new();
        base.intern(5);
        base.intern(9);
        let mut own = KeyOverlay::new(&base);
        assert_eq!(own.intern(&base, 9), (1, 0), "shared keys keep their ids");
        let (id, bytes) = own.intern(&base, 7);
        assert_eq!(id, 2);
        assert!(bytes > 0);
        assert_eq!(own.intern(&base, 7), (2, 0));
        assert_eq!(*own.get(&base, id), 7);
        assert_eq!(own.cmp(&base, 0, id), Ordering::Less);
        assert_eq!(own.cmp(&base, 1, id), Ordering::Greater);
        assert_eq!(own.len(), 3);
        assert_eq!(base.len(), 2, "the shared interner never grows");
    }

    #[test]
    fn queue_overlay_merges_shared_and_own_entries_in_order() {
        let cmp = |a: FrontierEntry, b: FrontierEntry| a.key.cmp(&b.key);
        let entry = |key| FrontierEntry { key, cell: key };
        for sorted in [true, false] {
            let mut shared = FrontierHeap::new();
            for key in [3, 1, 5] {
                shared.push(entry(key), cmp);
            }
            if sorted {
                shared.sort(cmp);
            }
            let base = vec![shared];
            let mut q = QueueOverlay::new(1, sorted);
            assert_eq!(q.peek(&base, 0, cmp).map(|e| e.key), Some(1));
            assert_eq!(q.pop(&base, 0, cmp).map(|e| e.key), Some(1));
            q.push(&base, 0, entry(2), cmp);
            q.push(&base, 0, entry(4), cmp);
            let mut rest = Vec::new();
            while let Some(e) = q.pop(&base, 0, cmp) {
                rest.push(e.key);
            }
            assert_eq!(rest, vec![2, 3, 4, 5], "sorted: {sorted}");
            assert_eq!(base[0].len(), 3, "the shared queue is never mutated");
            // A second cursor sees the untouched shared queue.
            let fresh = QueueOverlay::new(1, sorted);
            assert_eq!(fresh.peek(&base, 0, cmp).map(|e| e.key), Some(1));
        }
    }

    #[test]
    fn zero_stride_arena_for_leafless_projectionless_nodes() {
        let mut arena = CellArena::new(0, 0);
        let a = arena.push(0, 0, 0, 0, &[], &[]);
        assert_eq!(arena.output(a), &[] as &[Value]);
        assert_eq!(arena.ptrs(a), &[] as &[CellId]);
    }

    #[test]
    fn interner_dedups_and_compares_by_value() {
        let mut i: KeyInterner<ExactSum> = KeyInterner::new();
        let (a, a_bytes) = i.intern(ExactSum::of([Weight::new(1.0)]));
        let (b, b_bytes) = i.intern(ExactSum::of([Weight::new(2.0)]));
        let (a2, a2_bytes) = i.intern(ExactSum::of([Weight::new(1.0)]));
        assert_eq!(a, a2, "identical keys share one id");
        assert_ne!(a, b);
        assert!(a_bytes > 0 && b_bytes > 0);
        assert_eq!(a2_bytes, 0, "deduplicated keys retain nothing");
        assert_eq!(i.len(), 2);
        assert_eq!(i.cmp(a, b), Ordering::Less);
        assert_eq!(i.cmp(b, a), Ordering::Greater);
        assert_eq!(i.cmp(a, a2), Ordering::Equal);
        assert!(i.bytes() > 0);
    }

    #[test]
    fn interner_survives_fingerprint_collisions() {
        // Integer fingerprints are the identity, so force a collision by
        // interning keys whose fingerprints collide modulo the bucket map:
        // same bucket, different values must still get distinct ids.
        let mut i: KeyInterner<u64> = KeyInterner::new();
        let (a, _) = i.intern(5);
        let (b, _) = i.intern(5);
        assert_eq!(a, b);
        let (c, _) = i.intern(6);
        assert_ne!(a, c);
        assert_eq!(*i.get(c), 6);
    }

    #[test]
    fn heap_pops_in_comparator_order() {
        // Key ids double as the keys themselves via an identity table.
        let cmp = |a: FrontierEntry, b: FrontierEntry| {
            a.key.cmp(&b.key).then_with(|| a.cell.cmp(&b.cell))
        };
        let mut h = FrontierHeap::new();
        for (key, cell) in [(5, 0), (1, 1), (3, 2), (1, 0), (4, 4)] {
            h.push(FrontierEntry { key, cell }, cmp);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.peek(), Some(FrontierEntry { key: 1, cell: 0 }));
        let mut popped = Vec::new();
        while let Some(e) = h.pop(cmp) {
            popped.push((e.key, e.cell));
        }
        assert_eq!(popped, vec![(1, 0), (1, 1), (3, 2), (4, 4), (5, 0)]);
        assert!(h.is_empty());
        assert!(h.retained_bytes() >= 5 * std::mem::size_of::<FrontierEntry>());
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn heap_matches_std_binary_heap_on_a_mixed_sequence() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let cmp = |a: FrontierEntry, b: FrontierEntry| {
            a.key.cmp(&b.key).then_with(|| a.cell.cmp(&b.cell))
        };
        let mut ours = FrontierHeap::new();
        let mut theirs: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        // Deterministic pseudo-random interleave of pushes and pops.
        let mut x: u64 = 0x243F6A8885A308D3;
        for step in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !x.is_multiple_of(3) || theirs.is_empty() {
                let key = (x >> 32) as u32 % 50;
                let e = FrontierEntry { key, cell: step };
                ours.push(e, cmp);
                theirs.push(Reverse((key, step)));
            } else {
                let a = ours.pop(cmp).map(|e| (e.key, e.cell));
                let b = theirs.pop().map(|Reverse(p)| p);
                assert_eq!(a, b);
            }
        }
        while let Some(Reverse(p)) = theirs.pop() {
            assert_eq!(ours.pop(cmp).map(|e| (e.key, e.cell)), Some(p));
        }
        assert!(ours.pop(cmp).is_none());
    }
}
