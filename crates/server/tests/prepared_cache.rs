//! Integration tests for the prepared-artifact cache: repeated OPENs of a
//! statement open cursors on the prepared part cached in its plan entry
//! instead of preprocessing again — with answers and parked-bytes
//! accounting identical to a cold OPEN — while failed prepares, armed
//! failpoints and replaced databases never leave a reusable artifact
//! behind. The TCP cases follow `RE_TRANSPORT`; `ci.sh` runs the suite
//! under `json` and `binary`.

use re_server::{
    serve, LocalClient, RankedQueryServer, ServerConfig, StatsReport, TcpClient, Transport,
};
use re_storage::{attr::attrs, Database, Relation, Tuple};
use std::sync::{Arc, Mutex, MutexGuard};

/// Failpoints are process-global: every test here holds this lock, so
/// arming one in a test cannot turn another test's OPENs cold.
static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A membership relation with enough co-membership structure for 4-cycles.
fn membership_db(shift: u64) -> Database {
    let mut rows = Vec::new();
    for paper in 0..30u64 {
        for slot in 0..4u64 {
            rows.push(vec![(paper * 5 + slot * 11 + shift) % 37, 1000 + paper]);
        }
    }
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]), rows).unwrap())
        .unwrap();
    db
}

/// One statement per enumeration strategy.
const STATEMENTS: [&str; 4] = [
    "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
     WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid",
    "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
     WHERE AP1.pid = AP2.pid ORDER BY AP1.aid, AP2.aid",
    "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2, AP AS AP3, AP AS AP4 \
     WHERE AP1.pid = AP2.pid AND AP2.aid = AP3.aid AND AP3.pid = AP4.pid \
     AND AP4.aid = AP1.aid ORDER BY AP1.aid + AP2.aid",
    "SELECT DISTINCT AP1.aid, AP1.pid FROM AP AS AP1 UNION \
     SELECT DISTINCT AP2.aid, AP3.pid FROM AP AS AP2, AP AS AP3 \
     WHERE AP2.pid = AP3.pid ORDER BY AP2.aid + AP3.pid",
];

fn server() -> Arc<RankedQueryServer> {
    let server = RankedQueryServer::new(ServerConfig::default());
    server.catalog().register("m", membership_db(0));
    server
}

/// Open `sql`, note the parked bytes right after, drain in pages of 7.
fn open_and_drain(client: &mut impl Transport, sql: &str) -> (Vec<Tuple>, u64, StatsReport) {
    let opened = client.open("m", sql).unwrap();
    let parked = client.stats().unwrap().session_bytes_parked;
    let mut rows = Vec::new();
    loop {
        let page = client.fetch(opened.session, 7).unwrap();
        rows.extend(page.rows);
        if page.exhausted {
            break;
        }
    }
    (rows, parked, client.stats().unwrap())
}

#[test]
fn repeated_opens_reuse_the_prepared_artifact_with_identical_answers_and_accounting() {
    let _guard = locked();
    let server = server();
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
    let mut client = TcpClient::connect(handle.addr()).unwrap();
    for (i, sql) in STATEMENTS.iter().enumerate() {
        let before = client.stats().unwrap();
        // OPEN 1 plans (a statement seen once is not cached), OPEN 2
        // prepares and caches, OPENs 3 and 4 reuse.
        let (cold, cold_parked, after_first) = open_and_drain(&mut client, sql);
        assert!(!cold.is_empty(), "statement {i} has answers");
        assert_eq!(after_first.prepared_bytes, before.prepared_bytes);
        let (second, second_parked, after_second) = open_and_drain(&mut client, sql);
        assert!(after_second.prepared_bytes > before.prepared_bytes);
        let (third, third_parked, _) = open_and_drain(&mut client, sql);
        let (fourth, fourth_parked, after) = open_and_drain(&mut client, sql);
        assert_eq!(second, cold, "statement {i}: second OPEN diverged");
        assert_eq!(third, cold, "statement {i}: reused OPEN diverged");
        assert_eq!(fourth, cold, "statement {i}: reused OPEN diverged");
        assert_eq!(
            [second_parked, third_parked, fourth_parked],
            [cold_parked; 3],
            "statement {i}: parked bytes depend on whether the artifact was reused"
        );
        assert_eq!(after.prepared_built - before.prepared_built, 2);
        assert_eq!(after.prepared_reused - before.prepared_reused, 2);
        // Every OPEN still counts one enumerator (a cursor).
        assert_eq!(after.enumerators_built - before.enumerators_built, 4);
    }
    let metrics = client.metrics().unwrap();
    for name in [
        "re_prepared_built",
        "re_prepared_reused",
        "re_prepared_bytes",
        "re_prepared_evicted",
    ] {
        assert!(metrics.contains(name), "metrics exposition lacks {name}");
    }
    handle.shutdown();
}

#[test]
fn a_prepare_that_trips_its_deadline_is_not_cached() {
    let _guard = locked();
    let server = server();
    let mut client = LocalClient::new(Arc::clone(&server));
    let sql = STATEMENTS[2];
    let first = client.open("m", sql).unwrap();
    client.close(first.session).unwrap();
    // A plan-cache hit — the OPEN that would cache the artifact — whose
    // deadline has passed before preprocessing starts.
    let err = client.open_with_deadline("m", sql, Some(0)).unwrap_err();
    match err {
        re_server::ClientError::Server { code, .. } => assert_eq!(code, "deadline_exceeded"),
        other => panic!("expected a typed deadline error, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.prepared_bytes, 0, "a failed prepare was cached");
    assert_eq!(stats.prepared_built, 1);
    // The next OPEN prepares again (and caches), the one after reuses.
    let (rows, _, stats) = open_and_drain(&mut client, sql);
    assert_eq!(stats.prepared_built, 2);
    assert!(stats.prepared_bytes > 0);
    let (again, _, stats) = open_and_drain(&mut client, sql);
    assert_eq!(stats.prepared_reused, 1);
    assert_eq!(again, rows);
}

#[test]
fn armed_failpoints_bypass_the_artifact_cache() {
    let _guard = locked();
    let server = server();
    let mut client = LocalClient::new(Arc::clone(&server));
    let sql = STATEMENTS[0];
    let (expected, _, _) = open_and_drain(&mut client, sql);
    // A harmless armed site still forces every OPEN down the cold path:
    // no lookup, no insert.
    re_fault::configure("nowhere.in.particular=error").unwrap();
    for _ in 0..3 {
        let (rows, _, _) = open_and_drain(&mut client, sql);
        assert_eq!(rows, expected);
    }
    let stats = client.stats().unwrap();
    re_fault::clear();
    assert_eq!(stats.prepared_built, 4);
    assert_eq!(stats.prepared_reused, 0);
    assert_eq!(stats.prepared_bytes, 0);
    // Disarmed: the next OPEN caches, the one after reuses.
    open_and_drain(&mut client, sql);
    let (rows, _, stats) = open_and_drain(&mut client, sql);
    assert_eq!(rows, expected);
    assert_eq!(stats.prepared_reused, 1);
}

#[test]
fn re_registering_a_database_releases_the_old_generations_artifacts() {
    let _guard = locked();
    let server = server();
    let mut client = LocalClient::new(Arc::clone(&server));
    for sql in STATEMENTS {
        open_and_drain(&mut client, sql);
        open_and_drain(&mut client, sql);
    }
    // A session on the old generation, opened on a cached artifact.
    let live = client.open("m", STATEMENTS[0]).unwrap();
    let before = client.stats().unwrap();
    assert!(before.prepared_bytes > 0);
    assert_eq!(before.plan_cache_size, STATEMENTS.len() as u64);

    server.catalog().register("m", membership_db(3));
    let after = client.stats().unwrap();
    assert_eq!(after.prepared_bytes, 0, "the old generation's bytes linger");
    assert_eq!(after.plan_cache_size, 0);
    assert_eq!(
        after.prepared_evicted - before.prepared_evicted,
        STATEMENTS.len() as u64
    );
    // The live session keeps streaming from its own (old) snapshot.
    assert!(!client.fetch(live.session, 5).unwrap().rows.is_empty());
    // The replacement plans and prepares afresh.
    let reopened = client.open("m", STATEMENTS[0]).unwrap();
    assert!(!reopened.plan_cached);

    server.catalog().remove("m");
    assert_eq!(client.stats().unwrap().plan_cache_size, 0);
}
