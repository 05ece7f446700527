//! Interning identity for rank keys.
//!
//! The frontier kernel in `rankedenum-core` stores every distinct rank key
//! **once** in a per-node interner and lets priority-queue entries carry a
//! `u32` key id instead of a cloned key — the representation trick that
//! keeps heap entries constant-size no matter how wide an [`ExactSum`]
//! expansion or a lexicographic key vector grows. Interning needs two
//! things beyond the [`Ord`] bound every key already has: a cheap hash of
//! the key's *representation* to bucket candidates, and a byte count for
//! memory accounting. [`RankKey`] provides both.
//!
//! The fingerprint contract is deliberately one-sided:
//!
//! * keys with identical representations MUST have identical fingerprints
//!   (so duplicates dedup), while
//! * keys that compare [`Ordering::Equal`](std::cmp::Ordering::Equal)
//!   through *different* representations MAY fingerprint differently.
//!
//! The second case merely stores the key twice under two ids; every
//! comparison still goes through `Ord`, so correctness never depends on
//! perfect deduplication. This sidesteps the classic float pitfall: none
//! of the key types here can implement [`std::hash::Hash`] consistently
//! with their value-based `Eq` (e.g. [`ExactSum`] equality is decided by
//! an exact difference, not by representation), but a representation
//! fingerprint is always available.

use crate::weight::{ExactSum, Weight};
use std::fmt::Debug;
use std::hash::Hasher;

/// A rank key that can be interned: totally ordered, cloneable, and able
/// to report a representation fingerprint plus its owned heap bytes.
///
/// This is the bound on [`Ranking::Key`](crate::Ranking::Key); every key
/// type shipped by this crate implements it, as do the integer types (for
/// tests and custom rankings).
pub trait RankKey: Ord + Clone + Debug + Send + Sync {
    /// Hash of the key's representation. Identical representations must
    /// agree; `Ord`-equal keys with different representations may not
    /// (see the module docs for why that is sound).
    fn fingerprint(&self) -> u64;

    /// Heap bytes owned by the key beyond `size_of::<Self>()`. Used for
    /// frontier memory accounting; an estimate based on `len` (not
    /// capacity) so it is deterministic across runs.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// `DefaultHasher` seeded deterministically (its `new()` uses fixed keys),
/// so fingerprints are stable within a process run.
fn hash_u64s(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for w in words {
        h.write_u64(w);
    }
    h.finish()
}

impl RankKey for Weight {
    /// [`Weight`] equality is `total_cmp`-based, and `total_cmp` equality
    /// is exactly bit equality — so the bit pattern is a *perfect*
    /// fingerprint here.
    fn fingerprint(&self) -> u64 {
        self.value().to_bits()
    }
}

impl RankKey for ExactSum {
    /// Canonical (compressed, nonadjacent) expansions of the same value
    /// agree component-wise in practice; the fingerprint hashes the
    /// component bits in order.
    fn fingerprint(&self) -> u64 {
        hash_u64s(self.components().iter().map(|c| c.to_bits()))
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.components())
    }
}

impl<K: RankKey> RankKey for Vec<K> {
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_usize(self.len());
        for k in self {
            h.write_u64(k.fingerprint());
        }
        h.finish()
    }

    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<K>() + self.iter().map(RankKey::heap_bytes).sum::<usize>()
    }
}

macro_rules! int_rank_key {
    ($($t:ty),*) => {
        $(impl RankKey for $t {
            fn fingerprint(&self) -> u64 {
                *self as u64
            }
        })*
    };
}

int_rank_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_representations_fingerprint_equal() {
        let a = ExactSum::of([Weight::new(0.1), Weight::new(0.2)]);
        let b = ExactSum::of([Weight::new(0.1), Weight::new(0.2)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            Weight::new(3.5).fingerprint(),
            Weight::new(3.5).fingerprint()
        );
        assert_eq!(vec![1u64, 2].fingerprint(), vec![1u64, 2].fingerprint());
    }

    #[test]
    fn different_values_fingerprint_differently_in_practice() {
        assert_ne!(
            Weight::new(1.0).fingerprint(),
            Weight::new(2.0).fingerprint()
        );
        assert_ne!(vec![1u64].fingerprint(), vec![1u64, 1].fingerprint());
    }

    #[test]
    fn order_independent_sums_share_a_fingerprint() {
        // ExactSum canonicalises, so permuted addends produce the same
        // representation — and therefore the same fingerprint.
        let a = ExactSum::of([Weight::new(0.1), Weight::new(1e16), Weight::new(0.2)]);
        let b = ExactSum::of([Weight::new(0.2), Weight::new(0.1), Weight::new(1e16)]);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn heap_bytes_track_component_count() {
        assert_eq!(ExactSum::zero().heap_bytes(), 0);
        let s = ExactSum::of([Weight::new(1e16), Weight::new(0.5)]);
        assert_eq!(s.heap_bytes(), s.components().len() * 8);
        assert!(s.heap_bytes() >= 16, "two-component expansion");
        let v: Vec<Weight> = vec![Weight::new(1.0); 3];
        assert_eq!(v.heap_bytes(), 3 * std::mem::size_of::<Weight>());
        assert_eq!(7u64.heap_bytes(), 0);
    }
}
