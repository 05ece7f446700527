//! The LRU plan cache, and the prepared-artifact cache riding on it.
//!
//! Planning a statement (parse, resolve, unify variables, pick an order
//! spec) is pure given the database schema, so plans are cached behind
//! `Arc` and shared across sessions and worker threads. The key is the
//! catalog name plus the **normalised** statement text
//! ([`re_sql::normalize`]), so spelling variants of the same statement hit
//! the same entry. Each entry records which enumeration strategy
//! ([`Algorithm`]) the cursor layer will select for the plan — the
//! structure-plus-order decision of `rankedenum_core::select_ranked`
//! (lexicographic `ORDER BY` on an acyclic query routes to the
//! index-backed Algorithm 3) — so clients and metrics can see the choice
//! without building an enumerator.
//!
//! An entry can also hold the statement's **prepared artifact**
//! ([`PreparedQuery`]): the immutable result of the preprocessing phase,
//! from which later OPENs of the same statement open cursors without
//! preprocessing again. There is no second cache — the artifact lives in
//! the plan's entry, under the same key, and leaves with it. The entry
//! count is bounded by the plan capacity; the artifacts' bytes by
//! [`PREPARED_CACHE_BYTES`]: when storing one pushes the total past it,
//! artifacts are dropped heaviest-idle first (idle: no cursor shares it),
//! then heaviest in use.

use rankedenum_core::{select_ranked, Algorithm};
use re_sql::{parse, plan, OrderSpec, PlannedQuery, PreparedQuery, SqlError, SqlPlan};
use re_storage::Attr;
use re_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The most bytes of prepared artifacts the plan cache retains (the sum of
/// [`PreparedQuery::bytes`] over cached entries; 256 MiB). An artifact
/// larger than this on its own is never cached.
pub const PREPARED_CACHE_BYTES: u64 = 256 << 20;

/// A cached, immutable plan with its recorded strategy selection.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The shared plan.
    pub plan: Arc<SqlPlan>,
    /// The enumeration strategy `RankedEnumerator::new` will pick for it.
    pub algorithm: Algorithm,
    /// The statement's prepared artifact, when one was cached with the
    /// plan at lookup time.
    pub prepared: Option<PreparedQuery>,
    /// The entry's cache key.
    key: Arc<str>,
}

struct Entry {
    cached: CachedPlan,
    /// Logical timestamp of the last hit (for LRU eviction).
    last_used: u64,
    /// Catalog name and registration generation the plan was made for.
    db: String,
    generation: u64,
}

/// LRU cache of planned statements (and their prepared artifacts), keyed
/// on `(database, registration generation, normalised SQL)`.
///
/// The generation (see [`crate::Catalog::get_versioned`]) is part of the
/// key because plans bind columns *positionally* against the schema they
/// were planned on: re-registering a database under the same name must
/// never let a stale plan execute against the replacement. Entries of a
/// replaced generation are purged ([`PlanCache::purge`]) so their
/// artifacts do not pin the replaced data.
pub struct PlanCache {
    capacity: usize,
    byte_cap: u64,
    inner: Mutex<HashMap<Arc<str>, Entry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    prepared_evicted: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1) and at most
    /// [`PREPARED_CACHE_BYTES`] of prepared artifacts.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_cap(capacity, PREPARED_CACHE_BYTES)
    }

    /// A cache with an explicit artifact byte cap (tests shrink it).
    fn with_byte_cap(capacity: usize, byte_cap: u64) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            byte_cap,
            inner: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            prepared_evicted: AtomicU64::new(0),
        }
    }

    /// Lock the map, recovering from poisoning (entries are immutable
    /// `Arc`s inserted/removed atomically, so inner state stays valid even
    /// if a holder panicked).
    fn lock(&self) -> MutexGuard<'_, HashMap<Arc<str>, Entry>> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn key(db_name: &str, generation: u64, normalized_sql: &str) -> Arc<str> {
        format!("{db_name}@{generation}\n{normalized_sql}").into()
    }

    /// Remove `key`'s entry, counting its artifact (if any) as evicted.
    /// The entry is returned so the caller drops it outside the lock.
    fn remove(&self, map: &mut HashMap<Arc<str>, Entry>, key: &str) -> Option<Entry> {
        let entry = map.remove(key)?;
        if entry.cached.prepared.is_some() {
            self.prepared_evicted.fetch_add(1, Ordering::Relaxed);
        }
        Some(entry)
    }

    /// The plan for `sql` against `db` (registered under `db_name` with
    /// the given registration `generation`), from the cache when possible.
    /// Returns the cached plan and whether this was a hit.
    pub fn get_or_plan(
        &self,
        db_name: &str,
        generation: u64,
        db: &Database,
        sql: &str,
    ) -> Result<(CachedPlan, bool), SqlError> {
        let normalized = re_sql::normalize(sql)?;
        let key = Self::key(db_name, generation, &normalized);
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut map = self.lock();
            if let Some(entry) = map.get_mut(&key) {
                entry.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((entry.cached.clone(), true));
            }
        }
        // Plan outside the lock: planning touches only the schema, and a
        // duplicate concurrent miss just computes the same immutable plan.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let statement = parse(sql)?;
        let planned = plan(&statement, db)?;
        let algorithm = match &planned.query {
            PlannedQuery::Single(q) => {
                let lex_order: Option<Vec<Attr>> = match &planned.order {
                    Some(OrderSpec::Lex(items)) => {
                        Some(items.iter().map(|(a, _)| a.clone()).collect())
                    }
                    _ => None,
                };
                select_ranked(q, lex_order.as_deref())
            }
            PlannedQuery::Union(_) => Algorithm::UnionMerge,
        };
        let cached = CachedPlan {
            plan: Arc::new(planned),
            algorithm,
            prepared: None,
            key: Arc::clone(&key),
        };
        let mut dropped = Vec::new();
        let mut map = self.lock();
        // Re-stamp: hits recorded while this thread was planning must not
        // make the brand-new entry look like the least recently used one.
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        // An OPEN that read the catalog just before a re-registration can
        // arrive after the purge: drop what it would have left stale.
        let stale: Vec<Arc<str>> = map
            .iter()
            .filter(|(_, e)| e.db == db_name && e.generation < generation)
            .map(|(k, _)| Arc::clone(k))
            .collect();
        dropped.extend(stale.iter().filter_map(|k| self.remove(&mut map, k)));
        if map.len() >= self.capacity && !map.contains_key(&key) {
            // Evict the least-recently-used entry (linear scan; the cache
            // is small and eviction is off the hit path).
            if let Some(lru) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| Arc::clone(k))
            {
                dropped.extend(self.remove(&mut map, &lru));
            }
        }
        map.insert(
            key,
            Entry {
                cached: cached.clone(),
                last_used: now,
                db: db_name.to_string(),
                generation,
            },
        );
        // Artifacts of dropped entries are released after the lock.
        drop(map);
        drop(dropped);
        Ok((cached, false))
    }

    /// Cache `prepared` as the artifact of `plan`'s entry — unless the
    /// entry is gone (evicted or purged meanwhile), already holds one (a
    /// concurrent OPEN stored it first), or the artifact alone exceeds the
    /// byte cap. Then enforce the cap: while the cached artifacts' bytes
    /// exceed it, drop the heaviest idle artifact first, then the heaviest
    /// in use (its cursors keep it alive; the cache just lets go). Plans
    /// stay cached either way. Dropped artifacts are released after the
    /// lock.
    pub fn store_prepared(&self, plan: &CachedPlan, prepared: PreparedQuery) {
        if prepared.bytes() > self.byte_cap {
            return;
        }
        let mut victims: Vec<PreparedQuery> = Vec::new();
        let mut map = self.lock();
        match map.get_mut(&plan.key) {
            Some(entry) if entry.cached.prepared.is_none() => {
                entry.cached.prepared = Some(prepared);
            }
            _ => return,
        }
        let mut total: u64 = map
            .values()
            .filter_map(|e| e.cached.prepared.as_ref())
            .map(PreparedQuery::bytes)
            .sum();
        while total > self.byte_cap {
            let victim = map
                .iter()
                .filter_map(|(k, e)| {
                    let p = e.cached.prepared.as_ref()?;
                    Some((Arc::clone(k), (p.is_idle(), p.bytes())))
                })
                .max_by_key(|(_, rank)| *rank)
                .map(|(k, _)| k);
            let Some(victim) = victim else { break };
            let entry = map.get_mut(&victim).expect("victim is cached");
            let artifact = entry.cached.prepared.take().expect("victim holds one");
            total -= artifact.bytes();
            self.prepared_evicted.fetch_add(1, Ordering::Relaxed);
            victims.push(artifact);
        }
        drop(map);
        drop(victims);
    }

    /// Drop the entries (plans and artifacts) planned against `db_name`
    /// before its registration `generation` — every entry of the name when
    /// `generation` is `None` (the name was removed). Returns how many
    /// entries were dropped.
    pub fn purge(&self, db_name: &str, generation: Option<u64>) -> usize {
        let mut map = self.lock();
        let stale: Vec<Arc<str>> = map
            .iter()
            .filter(|(_, e)| e.db == db_name && generation.is_none_or(|g| e.generation < g))
            .map(|(k, _)| Arc::clone(k))
            .collect();
        let dropped: Vec<Entry> = stale
            .iter()
            .filter_map(|k| self.remove(&mut map, k))
            .collect();
        drop(map);
        dropped.len()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the prepared artifacts currently cached.
    pub fn prepared_bytes(&self) -> u64 {
        self.lock()
            .values()
            .filter_map(|e| e.cached.prepared.as_ref())
            .map(PreparedQuery::bytes)
            .sum()
    }

    /// Prepared artifacts dropped from the cache so far (byte cap, LRU
    /// eviction of their plan, or a purge).
    pub fn prepared_evicted(&self) -> u64 {
        self.prepared_evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("T", attrs(["a", "b"]), vec![vec![1, 2], vec![2, 3]]).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn spelling_variants_hit_the_same_entry() {
        let cache = PlanCache::new(8);
        let db = db();
        let (_, hit1) = cache
            .get_or_plan("d", 1, &db, "SELECT DISTINCT T.a FROM T ORDER BY T.a")
            .unwrap();
        let (_, hit2) = cache
            .get_or_plan("d", 1, &db, "select distinct  T.a from T order by T.a ;")
            .unwrap();
        assert!(!hit1);
        assert!(hit2, "normalised spelling variants must hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_new_registration_generation_busts_the_cache() {
        let cache = PlanCache::new(8);
        let sql = "SELECT DISTINCT T.b FROM T WHERE T.a = 1";
        let (first, hit) = cache.get_or_plan("d", 1, &db(), sql).unwrap();
        assert!(!hit);
        // Same name, new generation: the database was re-registered with
        // T's columns swapped; the old plan's positional filter would
        // silently test the wrong column.
        let mut swapped = Database::new();
        swapped
            .add_relation(Relation::with_tuples("T", attrs(["b", "a"]), vec![vec![2, 1]]).unwrap())
            .unwrap();
        let (second, hit) = cache.get_or_plan("d", 2, &swapped, sql).unwrap();
        assert!(!hit, "a new generation must re-plan");
        assert_ne!(
            format!("{:?}", first.plan.derived),
            format!("{:?}", second.plan.derived),
            "the filter must move to the column's new position"
        );
        // Planning against the newer generation dropped the older one's
        // entry: it can never be served again, and with an artifact it
        // would pin the replaced data.
        assert_eq!(cache.len(), 1);
        let (_, hit) = cache.get_or_plan("d", 2, &swapped, sql).unwrap();
        assert!(hit, "the current generation's entry stays");
    }

    #[test]
    fn entries_are_keyed_per_database() {
        let cache = PlanCache::new(8);
        let db = db();
        let sql = "SELECT DISTINCT T.a FROM T";
        cache.get_or_plan("one", 1, &db, sql).unwrap();
        let (_, hit) = cache.get_or_plan("two", 1, &db, sql).unwrap();
        assert!(!hit, "same SQL against another database is another plan");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn recorded_algorithm_matches_query_structure() {
        let cache = PlanCache::new(8);
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("E", attrs(["s", "t"]), vec![vec![1, 2], vec![2, 3]]).unwrap(),
        )
        .unwrap();
        let (acyclic, _) = cache
            .get_or_plan(
                "d",
                1,
                &db,
                "SELECT DISTINCT E1.s, E2.t FROM E AS E1, E AS E2 WHERE E1.t = E2.s",
            )
            .unwrap();
        assert_eq!(acyclic.algorithm, Algorithm::Acyclic);
        let (cyclic, _) = cache
            .get_or_plan(
                "d",
                1,
                &db,
                "SELECT DISTINCT E1.s, E2.s FROM E AS E1, E AS E2, E AS E3 \
                 WHERE E1.t = E2.s AND E2.t = E3.s AND E3.t = E1.s",
            )
            .unwrap();
        assert_eq!(cyclic.algorithm, Algorithm::CyclicGhd);
        let (union, _) = cache
            .get_or_plan(
                "d",
                1,
                &db,
                "SELECT DISTINCT E1.s FROM E AS E1 UNION SELECT DISTINCT E2.t FROM E AS E2",
            )
            .unwrap();
        assert_eq!(union.algorithm, Algorithm::UnionMerge);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_plans() {
        let cache = PlanCache::new(2);
        let db = db();
        let q1 = "SELECT DISTINCT T.a FROM T";
        let q2 = "SELECT DISTINCT T.b FROM T";
        let q3 = "SELECT DISTINCT T.a, T.b FROM T";
        cache.get_or_plan("d", 1, &db, q1).unwrap();
        cache.get_or_plan("d", 1, &db, q2).unwrap();
        cache.get_or_plan("d", 1, &db, q1).unwrap(); // refresh q1
        cache.get_or_plan("d", 1, &db, q3).unwrap(); // evicts q2
        assert_eq!(cache.len(), 2);
        let (_, hit_q1) = cache.get_or_plan("d", 1, &db, q1).unwrap();
        assert!(hit_q1, "recently used plan survives eviction");
        let (_, hit_q2) = cache.get_or_plan("d", 1, &db, q2).unwrap();
        assert!(!hit_q2, "least recently used plan was evicted");
    }

    /// A membership table big enough for artifacts of clearly different
    /// sizes.
    fn membership_db() -> Database {
        let rows = (0..400u64)
            .map(|i| vec![i % 97, i % 31])
            .collect::<Vec<_>>();
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("M", attrs(["a", "p"]), rows).unwrap())
            .unwrap();
        db
    }

    /// Plan `sql` in `cache` and prepare its artifact.
    fn prepared(cache: &PlanCache, db: &Database, sql: &str) -> (CachedPlan, PreparedQuery) {
        let (cached, _) = cache.get_or_plan("d", 1, db, sql).unwrap();
        let executor = re_sql::OwnedSqlExecutor::new(Arc::new(db.clone()));
        let (_, artifact) = executor.prepare_and_open_plan(&cached.plan).unwrap();
        (cached, artifact)
    }

    const SMALL: &str = "SELECT DISTINCT M.a FROM M";
    const MEDIUM: &str = "SELECT DISTINCT M.a, M.p FROM M ORDER BY M.a + M.p";
    const LARGE: &str = "SELECT DISTINCT M1.a, M2.a FROM M AS M1, M AS M2 \
                         WHERE M1.p = M2.p ORDER BY M1.a + M2.a";

    #[test]
    fn the_byte_cap_drops_the_heaviest_idle_artifact_first() {
        let db = membership_db();
        let sizer = PlanCache::new(8);
        let bytes = |sql| prepared(&sizer, &db, sql).1.bytes();
        let (small, medium, large) = (bytes(SMALL), bytes(MEDIUM), bytes(LARGE));
        assert!(small < medium && medium < large, "{small} {medium} {large}");

        // Room for the large artifact plus the small one, not the medium.
        let cache = PlanCache::with_byte_cap(8, large + small);
        let (plan_s, art_s) = prepared(&cache, &db, SMALL);
        let (plan_m, art_m) = prepared(&cache, &db, MEDIUM);
        cache.store_prepared(&plan_s, art_s);
        cache.store_prepared(&plan_m, art_m);
        assert_eq!(cache.prepared_bytes(), small + medium);
        // The large artifact stays in use (a cursor would hold it): the
        // heaviest *idle* artifact goes, even though it is lighter.
        let (plan_l, art_l) = prepared(&cache, &db, LARGE);
        cache.store_prepared(&plan_l, art_l.clone());
        assert_eq!(cache.prepared_bytes(), large + small);
        assert_eq!(cache.prepared_evicted(), 1);
        let artifact_of = |sql| cache.get_or_plan("d", 1, &db, sql).unwrap().0.prepared;
        assert!(artifact_of(MEDIUM).is_none());
        assert!(artifact_of(SMALL).is_some());
        assert!(artifact_of(LARGE).is_some());
        // Plans outlive their artifacts.
        assert_eq!(cache.len(), 3);

        // With every artifact in use, the heaviest goes.
        let (plan_m, art_m) = prepared(&cache, &db, MEDIUM);
        let held = (artifact_of(SMALL), art_m.clone());
        cache.store_prepared(&plan_m, art_m);
        assert!(artifact_of(LARGE).is_none());
        assert_eq!(cache.prepared_bytes(), small + medium);
        drop((held, art_l));
    }

    #[test]
    fn artifacts_are_stored_once_and_never_beyond_the_cap() {
        let db = membership_db();
        let cache = PlanCache::with_byte_cap(8, 1);
        let (plan, artifact) = prepared(&cache, &db, SMALL);
        cache.store_prepared(&plan, artifact);
        assert_eq!(
            cache.prepared_bytes(),
            0,
            "an artifact above the cap is not cached"
        );

        let cache = PlanCache::new(8);
        let (plan, first) = prepared(&cache, &db, SMALL);
        let (_, second) = prepared(&cache, &db, SMALL);
        cache.store_prepared(&plan, first.clone());
        cache.store_prepared(&plan, second);
        let (cached, _) = cache.get_or_plan("d", 1, &db, SMALL).unwrap();
        // The first stored artifact stays (the second OPEN just used its own).
        assert_eq!(
            format!("{:?}", cached.prepared),
            format!("{:?}", Some(first))
        );
        assert_eq!(cache.prepared_bytes(), cached.prepared.unwrap().bytes());
    }

    #[test]
    fn purge_drops_older_generations_and_their_artifacts() {
        let db = membership_db();
        let cache = PlanCache::new(8);
        let (plan, artifact) = prepared(&cache, &db, SMALL);
        cache.store_prepared(&plan, artifact);
        cache.get_or_plan("other", 1, &db, SMALL).unwrap();
        assert_eq!(cache.purge("d", Some(1)), 0, "same generation stays");
        assert_eq!(cache.purge("d", Some(2)), 1);
        assert_eq!(cache.prepared_bytes(), 0);
        assert_eq!(cache.prepared_evicted(), 1);
        assert_eq!(cache.len(), 1, "other databases' entries stay");
        assert_eq!(cache.purge("other", None), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn planning_errors_surface_and_are_not_cached() {
        let cache = PlanCache::new(2);
        let db = db();
        assert!(cache
            .get_or_plan("d", 1, &db, "SELECT DISTINCT nope FROM T")
            .is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
    }
}
