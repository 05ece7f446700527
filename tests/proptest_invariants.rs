//! Property-based tests: on randomly generated instances, every enumeration
//! strategy must produce exactly the distinct projected answers, without
//! duplicates, in non-decreasing rank order, and the theoretically
//! equivalent strategies must agree with each other.

mod common;

use common::{assert_valid_ranked_output, reference_answers};
use proptest::prelude::*;
use rankedenum::prelude::*;

/// Build a database with a single binary membership relation from generated
/// edges over small domains (small domains force heavy duplication, which is
/// where deduplication bugs would hide).
fn membership_db(edges: &[(u64, u64)]) -> Database {
    let mut rel = Relation::new("M", attrs(["e", "c"]));
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in edges {
        if seen.insert((a, b)) {
            rel.push_unchecked(&[a + 1, b + 1]);
        }
    }
    let mut db = Database::new();
    db.set_relation(rel);
    db
}

/// Build a database with two binary relations (for path-shaped queries).
fn two_relation_db(r: &[(u64, u64)], s: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    let mut rel_r = Relation::new("R", attrs(["a", "b"]));
    let mut seen = std::collections::HashSet::new();
    for &(x, y) in r {
        if seen.insert((x, y)) {
            rel_r.push_unchecked(&[x + 1, y + 1]);
        }
    }
    let mut rel_s = Relation::new("S", attrs(["b", "c"]));
    let mut seen = std::collections::HashSet::new();
    for &(x, y) in s {
        if seen.insert((x, y)) {
            rel_s.push_unchecked(&[x + 1, y + 1]);
        }
    }
    db.set_relation(rel_r);
    db.set_relation(rel_s);
    db
}

fn edges(max_node: u64, max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_len)
}

fn two_hop_query() -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("M1", "M", ["x", "c"])
        .atom("M2", "M", ["y", "c"])
        .project(["x", "y"])
        .build()
        .unwrap()
}

fn three_star_query() -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("M1", "M", ["x", "c"])
        .atom("M2", "M", ["y", "c"])
        .atom("M3", "M", ["z", "c"])
        .project(["x", "y", "z"])
        .build()
        .unwrap()
}

fn path_query() -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("R", "R", ["a", "b"])
        .atom("S", "S", ["b", "c"])
        .project(["a", "c"])
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn two_hop_enumeration_is_correct(e in edges(8, 60)) {
        let db = membership_db(&e);
        let query = two_hop_query();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
        prop_assert_eq!(answers, reference); // exact: ties broken on the tuple
    }

    #[test]
    fn three_star_strategies_agree(e in edges(6, 40)) {
        let db = membership_db(&e);
        let query = three_star_query();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        let acyclic: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&acyclic, &reference, &query, &ranking);
        for threshold in [1usize, 3, 1000] {
            let star: Vec<Tuple> = StarEnumerator::new(&query, &db, ranking.clone(), threshold)
                .unwrap()
                .collect();
            assert_valid_ranked_output(&star, &reference, &query, &ranking);
        }
    }

    #[test]
    fn path_query_lexicographic_agrees_with_general(r in edges(7, 40), s in edges(7, 40)) {
        let db = two_relation_db(&r, &s);
        let query = path_query();
        let lex = LexRanking::new(["a", "c"], WeightAssignment::value_as_weight());
        let via_lexi: Vec<Tuple> = LexiEnumerator::new(&query, &db, &lex).unwrap().collect();
        let via_general: Vec<Tuple> =
            AcyclicEnumerator::new(&query, &db, lex.clone()).unwrap().collect();
        prop_assert_eq!(&via_lexi, &via_general);
        let reference = reference_answers(&query, &db, &lex);
        assert_valid_ranked_output(&via_lexi, &reference, &query, &lex);
    }

    #[test]
    fn full_anyk_baseline_is_equivalent(e in edges(6, 40)) {
        let db = membership_db(&e);
        let query = two_hop_query();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        let answers: Vec<Tuple> = FullAnyKEngine::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
    }

    #[test]
    fn min_and_max_rankings_enumerate_in_order(e in edges(8, 50)) {
        let db = membership_db(&e);
        let query = two_hop_query();
        let w = WeightAssignment::value_as_weight();
        // MIN ranking
        let ranking = MinRanking::new(w.clone());
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        let reference = reference_answers(&query, &db, &ranking);
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
        // MAX ranking
        let ranking = MaxRanking::new(w);
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        let reference = reference_answers(&query, &db, &ranking);
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
    }

    #[test]
    fn triangle_query_via_ghd_is_correct(e in edges(8, 40)) {
        let db = {
            let mut rel = Relation::new("E", attrs(["s", "t"]));
            let mut seen = std::collections::HashSet::new();
            for &(a, b) in &e {
                if seen.insert((a, b)) {
                    rel.push_unchecked(&[a + 1, b + 1]);
                }
            }
            let mut db = Database::new();
            db.set_relation(rel);
            db
        };
        let query = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .atom("E3", "E", ["z", "x"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        // A cyclic query: the dispatcher routes it through a cost-based GHD.
        let answers: Vec<Tuple> = RankedEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
    }

    #[test]
    fn weight_total_order_is_consistent(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(a.is_finite() && b.is_finite());
        let wa = Weight::new(a);
        let wb = Weight::new(b);
        // antisymmetry + totality
        prop_assert_eq!(wa.cmp(&wb), wb.cmp(&wa).reverse());
        if a < b {
            prop_assert!(wa < wb);
        }
        if a == b {
            prop_assert_eq!(wa, wb);
        }
    }

    #[test]
    fn sum_ranking_is_monotone_in_each_position(
        x in 0u64..1000, y in 0u64..1000, bump in 0u64..1000
    ) {
        let ranking = SumRanking::value_sum();
        let a = attrs(["p", "q"]);
        let base = ranking.key_of(&a, &[x, y]);
        let bumped = ranking.key_of(&a, &[x, y + bump]);
        prop_assert!(bumped >= base);
    }

    #[test]
    fn lex_ranking_is_monotone_on_suffix_replacement(
        x in 0u64..50, y in 0u64..50, y2 in 0u64..50, z in 0u64..50, z2 in 0u64..50
    ) {
        let ranking = LexRanking::new(["p", "q", "r"], WeightAssignment::value_as_weight());
        let a = attrs(["p", "q", "r"]);
        let base = ranking.key_of(&a, &[x, y, z]);
        let other = ranking.key_of(&a, &[x, y2, z2]);
        // monotone: if the (q, r) sub-tuple key grows, the full key grows
        let sub = LexRanking::new(["q", "r"], WeightAssignment::value_as_weight());
        let sub_a = attrs(["q", "r"]);
        if sub.key_of(&sub_a, &[y2, z2]) >= sub.key_of(&sub_a, &[y, z]) {
            prop_assert!(other >= base);
        }
    }
}
