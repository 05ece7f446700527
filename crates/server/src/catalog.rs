//! The shared database catalog.
//!
//! Databases are immutable once registered and shared behind
//! [`Arc<Database>`]: a session's enumerator copies what it needs during
//! preprocessing, so catalog reads are brief (clone an `Arc`) and never
//! block enumeration. Re-registering a name swaps the `Arc` — sessions
//! opened against the old snapshot keep streaming from it unaffected.

use re_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Entries = HashMap<String, (Arc<Database>, u64)>;

/// Told about every replacement or removal of a registered name: the new
/// generation, or `None` when the name was removed.
type Listener = Box<dyn Fn(&str, Option<u64>) + Send + Sync>;

/// A named registry of shared, immutable databases.
///
/// Every registration — including a replacement under an existing name —
/// is stamped with a fresh, catalog-wide **generation** number. Consumers
/// that cache anything derived from a database's *schema* (the server's
/// plan cache caches whole plans) must key on the generation too:
/// re-registering a name may change the schema, and a plan built against
/// the old schema silently binds columns positionally against the new one.
#[derive(Default)]
pub struct Catalog {
    inner: RwLock<Entries>,
    generation: AtomicU64,
    listener: Option<Listener>,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("names", &self.names())
            .field("generation", &self.generation)
            .finish()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// An empty catalog that calls `listener` after every registration
    /// (with the new generation) and every removal (with `None`), outside
    /// the catalog lock — how the server purges cache entries derived from
    /// a replaced database.
    pub fn with_listener(listener: impl Fn(&str, Option<u64>) + Send + Sync + 'static) -> Self {
        Catalog {
            listener: Some(Box::new(listener)),
            ..Catalog::default()
        }
    }

    /// Lock for reading, recovering from poisoning (entries are immutable
    /// `Arc`s swapped atomically, so the map is always consistent).
    fn read(&self) -> RwLockReadGuard<'_, Entries> {
        self.inner
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Lock for writing, recovering from poisoning (same argument).
    fn write(&self) -> RwLockWriteGuard<'_, Entries> {
        self.inner
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Register (or replace) a database under `name`.
    pub fn register(&self, name: impl Into<String>, db: Database) {
        self.register_shared(name, Arc::new(db));
    }

    /// Register (or replace) an already-shared database under `name`.
    pub fn register_shared(&self, name: impl Into<String>, db: Arc<Database>) {
        let name = name.into();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let replaced = self.write().insert(name.clone(), (db, generation));
        drop(replaced);
        if let Some(listener) = &self.listener {
            listener(&name, Some(generation));
        }
    }

    /// The database registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<Database>> {
        self.get_versioned(name).map(|(db, _)| db)
    }

    /// The database registered under `name` together with its registration
    /// generation (distinct per registration, so a replaced database is
    /// distinguishable from the one it replaced).
    pub fn get_versioned(&self, name: &str) -> Option<(Arc<Database>, u64)> {
        self.read().get(name).cloned()
    }

    /// Remove a database; sessions opened against it keep their snapshot.
    pub fn remove(&self, name: &str) -> bool {
        let removed = self.write().remove(name).is_some();
        if let (true, Some(listener)) = (removed, &self.listener) {
            listener(name, None);
        }
        removed
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered databases.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn small_db(value: u64) -> Database {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("T", attrs(["a"]), vec![vec![value]]).unwrap())
            .unwrap();
        db
    }

    #[test]
    fn register_get_replace_remove() {
        let catalog = Catalog::new();
        assert!(catalog.is_empty());
        catalog.register("one", small_db(1));
        catalog.register("two", small_db(2));
        assert_eq!(catalog.names(), vec!["one", "two"]);

        let (old, old_generation) = catalog.get_versioned("one").unwrap();
        catalog.register("one", small_db(99));
        // the old snapshot is unaffected by the replacement
        assert_eq!(old.relation("T").unwrap().tuple(0), &[1]);
        assert_eq!(
            catalog.get("one").unwrap().relation("T").unwrap().tuple(0),
            &[99]
        );
        let (_, new_generation) = catalog.get_versioned("one").unwrap();
        assert_ne!(
            old_generation, new_generation,
            "re-registration must be observable through the generation"
        );

        assert!(catalog.remove("two"));
        assert!(!catalog.remove("two"));
        assert!(catalog.get("two").is_none());
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn catalog_is_shared_across_threads() {
        let catalog = Arc::new(Catalog::new());
        catalog.register("db", small_db(5));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || catalog.get("db").unwrap().relation("T").unwrap().len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
    }
}
