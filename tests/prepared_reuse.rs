//! Differential suite for prepared-part reuse.
//!
//! Contract of the prepare/open split: a cursor opened on a shared,
//! already built prepared part emits exactly the answers a cold cursor
//! (its own preprocessing pass) emits — byte for byte, with the same
//! accounted frontier — for every `re_workloads` shape, however many
//! cursors the prepared part has served before, with other cursors on it
//! interleaved, and after one of them was cancelled. `ci.sh` runs the
//! suite under `RE_EXEC_THREADS=1` and `=4`.

use rankedenum::core::{CancelKind, CancelToken};
use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::{DblpWorkload, LdbcWorkload};
use std::sync::Arc;

/// Answers compared per cursor (deep enough to grow every cursor's own
/// frontier and trigger the lexicographic engine's lazy index builds).
const LIMIT: usize = 400;

/// The environment-sized context, forced onto the parallel paths.
fn ctx() -> ExecContext {
    ExecContext::from_env()
        .with_min_par_rows(1)
        .with_morsel_rows(7)
}

/// Builds a statement's prepared part under a context.
type Prepare = Box<dyn Fn(&ExecContext) -> Arc<dyn PreparedStream>>;

/// One statement: how to build its prepared part, and the answers of the
/// existing cold constructor for it.
struct Case {
    name: String,
    prepare: Prepare,
    cold: Vec<Tuple>,
}

fn cases() -> Vec<Case> {
    let dblp = DblpWorkload::generate(500, 31, WeightScheme::Random);
    let ldbc = LdbcWorkload::generate(1, 32);
    let ctx = ctx();
    let mut cases = Vec::new();
    for spec in [dblp.two_hop(), dblp.three_hop(), dblp.three_star()] {
        let (q, db, r) = (spec.query.clone(), dblp.db().clone(), spec.sum_ranking());
        cases.push(Case {
            name: format!("{} SUM", spec.name),
            cold: AcyclicEnumerator::new_ctx(&q, &db, r.clone(), &ctx)
                .unwrap()
                .take(LIMIT)
                .collect(),
            prepare: Box::new(move |ctx| {
                Arc::new(PreparedAcyclic::prepare(&q, &db, r.clone(), ctx).unwrap())
            }),
        });
    }
    let spec = dblp.two_hop();
    let (q, db, lex) = (spec.query.clone(), dblp.db().clone(), spec.lex_ranking());
    cases.push(Case {
        name: format!("{} LEX", spec.name),
        cold: LexiEnumerator::new_ctx(&q, &db, &lex, &ctx)
            .unwrap()
            .take(LIMIT)
            .collect(),
        prepare: Box::new(move |ctx| Arc::new(PreparedLexi::prepare(&q, &db, &lex, ctx).unwrap())),
    });
    for k in [2, 3] {
        let (spec, plan) = dblp.workload().cycle(k);
        let (q, db, r) = (spec.query.clone(), dblp.db().clone(), spec.sum_ranking());
        cases.push(Case {
            name: spec.name.clone(),
            cold: CyclicEnumerator::new_ctx(&q, &db, r.clone(), &plan, &ctx)
                .unwrap()
                .take(LIMIT)
                .collect(),
            prepare: Box::new(move |ctx| {
                Arc::new(
                    PreparedCyclic::prepare_with_plan(
                        &q,
                        &db,
                        r.clone(),
                        &plan,
                        ctx,
                        BagKernel::default(),
                    )
                    .unwrap(),
                )
            }),
        });
    }
    let spec = ldbc.q3();
    let (u, db, r) = (spec.query.clone(), ldbc.db().clone(), spec.sum_ranking());
    cases.push(Case {
        name: spec.name.clone(),
        cold: UnionEnumerator::new_ctx(&u, &db, r.clone(), &ctx)
            .unwrap()
            .take(LIMIT)
            .collect(),
        prepare: Box::new(move |ctx| {
            Arc::new(PreparedUnion::prepare(&u, &db, r.clone(), ctx).unwrap())
        }),
    });
    cases
}

fn take(stream: &mut dyn Iterator<Item = Tuple>, n: usize) -> Vec<Tuple> {
    stream.take(n).collect()
}

#[test]
fn cursors_on_a_shared_prepared_part_equal_the_cold_sequence() {
    let ctx = ctx();
    for case in cases() {
        assert!(!case.cold.is_empty(), "{}: empty workload", case.name);
        let shared = (case.prepare)(&ctx);
        // The first, second and a later cursor on one prepared part.
        for round in 0..3 {
            let mut cursor = Arc::clone(&shared).open_stream(&ctx);
            assert_eq!(
                take(&mut cursor, LIMIT),
                case.cold,
                "{}: cursor {round} on the shared part diverged",
                case.name
            );
        }
    }
}

#[test]
fn interleaved_cursors_over_one_prepared_part_each_equal_the_cold_sequence() {
    let ctx = ctx();
    for case in cases() {
        let shared = (case.prepare)(&ctx);
        let mut a = Arc::clone(&shared).open_stream(&ctx);
        let mut b = Arc::clone(&shared).open_stream(&ctx);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        // Uneven strides so the two cursors' frontiers drift apart.
        while got_a.len() < LIMIT || got_b.len() < LIMIT {
            let before = (got_a.len(), got_b.len());
            got_a.extend(take(&mut a, 3.min(LIMIT - got_a.len())));
            got_b.extend(take(&mut b, 1.min(LIMIT - got_b.len())));
            if (got_a.len(), got_b.len()) == before {
                break;
            }
        }
        assert_eq!(got_a, case.cold, "{}: cursor A diverged", case.name);
        assert_eq!(got_b, case.cold, "{}: cursor B diverged", case.name);
    }
}

#[test]
fn accounting_does_not_depend_on_who_built_the_prepared_part() {
    let ctx = ctx();
    for case in cases() {
        let shared = (case.prepare)(&ctx);
        let mut fresh = (case.prepare)(&ctx).open_stream(&ctx);
        // A reused part: another cursor has already scrolled through it.
        let mut warmup = Arc::clone(&shared).open_stream(&ctx);
        take(&mut warmup, LIMIT);
        let mut reused = Arc::clone(&shared).open_stream(&ctx);
        assert_eq!(
            fresh.stats_snapshot(),
            reused.stats_snapshot(),
            "{}: accounting at open differs",
            case.name
        );
        take(&mut fresh, LIMIT / 2);
        take(&mut reused, LIMIT / 2);
        assert_eq!(
            fresh.stats_snapshot(),
            reused.stats_snapshot(),
            "{}: accounting after a scroll differs",
            case.name
        );
        assert!(fresh.stats_snapshot().frontier_bytes > 0, "{}", case.name);
        assert!(shared.bytes() > 0, "{}", case.name);
    }
}

#[test]
fn star_cursors_on_a_shared_prepared_part_equal_the_cold_sequence() {
    let dblp = DblpWorkload::generate(500, 33, WeightScheme::Random);
    let spec = dblp.three_star();
    let ctx = ctx();
    for threshold in [2, 8, 64] {
        let cold: Vec<Tuple> =
            StarEnumerator::new_ctx(&spec.query, dblp.db(), spec.sum_ranking(), threshold, &ctx)
                .unwrap()
                .take(LIMIT)
                .collect();
        let shared = Arc::new(
            PreparedStar::prepare(&spec.query, dblp.db(), spec.sum_ranking(), threshold, &ctx)
                .unwrap(),
        );
        for _ in 0..2 {
            let got: Vec<Tuple> = StarEnumerator::open(Arc::clone(&shared))
                .take(LIMIT)
                .collect();
            assert_eq!(got, cold, "threshold {threshold}");
        }
    }
}

/// Every SQL shape the server serves, over one DBLP-like membership
/// relation and the LDBC `Knows` graph.
fn sql_statements(relation: &str) -> Vec<(String, bool)> {
    let m = relation;
    vec![
        (
            format!(
                "SELECT DISTINCT AP1.aid, AP2.aid FROM {m} AS AP1, {m} AS AP2 \
                 WHERE AP1.pid = AP2.pid ORDER BY AP1.aid, AP2.aid"
            ),
            false,
        ),
        (
            format!(
                "SELECT DISTINCT AP1.aid, AP2.aid FROM {m} AS AP1, {m} AS AP2, {m} AS AP3, \
                 {m} AS AP4 WHERE AP1.pid = AP2.pid AND AP2.aid = AP3.aid \
                 AND AP3.pid = AP4.pid AND AP4.aid = AP1.aid ORDER BY AP1.aid + AP2.aid"
            ),
            false,
        ),
        (
            "SELECT DISTINCT K.p1, K.p2 FROM Knows AS K UNION SELECT DISTINCT K1.p1, K2.p2 \
             FROM Knows AS K1, Knows AS K2 WHERE K1.p2 = K2.p1 ORDER BY K1.p1 + K2.p2"
                .to_string(),
            true,
        ),
    ]
}

#[test]
fn cancelling_one_cursor_leaves_the_other_on_the_same_part_untouched() {
    let dblp = DblpWorkload::generate(400, 34, WeightScheme::Random);
    let ldbc = LdbcWorkload::generate(1, 35);
    let relation = dblp.workload().relation().to_string();
    let weights = WeightAssignment::value_as_weight();
    let ctx = ctx();
    for (sql, on_ldbc) in sql_statements(&relation) {
        let db = if on_ldbc { ldbc.db() } else { dblp.db() };
        let plan = rankedenum::sql::plan(&rankedenum::sql::parse(&sql).unwrap(), db).unwrap();
        let cold = QueryCursor::open_ctx(db, &weights, &plan, &ctx)
            .unwrap()
            .fetch(LIMIT);
        assert!(cold.len() > 10, "{sql}: too few answers");
        let prepared = PreparedQuery::prepare(db, &weights, &plan, &ctx).unwrap();
        let token = CancelToken::unbounded();
        let mut doomed =
            QueryCursor::open_prepared(&prepared, &ctx.clone().with_cancel_token(token.clone()));
        let mut survivor = QueryCursor::open_prepared(&prepared, &ctx);
        assert_eq!(doomed.fetch(5), cold[..5]);
        let mut got = survivor.fetch(5);
        token.cancel();
        assert!(
            doomed.fetch(5).is_empty(),
            "{sql}: a cancelled cursor stops"
        );
        assert_eq!(doomed.cancel_status(), Some(CancelKind::Explicit));
        got.extend(survivor.fetch(LIMIT - 5));
        assert_eq!(got, cold, "{sql}: the surviving cursor diverged");
        assert_eq!(survivor.cancel_status(), None);
        // A cursor opened after the cancellation is unaffected too.
        assert_eq!(
            QueryCursor::open_prepared(&prepared, &ctx).fetch(LIMIT),
            cold,
            "{sql}: a later cursor diverged"
        );
    }
}
