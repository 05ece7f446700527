//! The three workloads: seeded databases, the statement mix, and the
//! per-client session scripts.
//!
//! Everything here is a pure function of the workload and the seed, so two
//! runs with one seed send byte-identical requests in the same order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use re_datagen::{BipartiteConfig, BipartiteDataset, ZipfSampler};
use re_storage::{Database, Value};
use re_workloads::LdbcWorkload;
use std::collections::HashSet;
use std::sync::Arc;

/// Catalog name of the acyclic membership database.
pub const DBLP: &str = "dblp";
/// Catalog name of the small membership database the 4-cycle runs on.
pub const CYCLE: &str = "cyc";
/// Catalog name of the LDBC-like social graph.
pub const LDBC: &str = "ldbc";
/// Membership relation of [`DBLP`] and [`CYCLE`].
pub const MEMBERSHIP: &str = "AuthorPapers";

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paginated top-k on six hot statements (plan cache hit, OPEN-bound).
    TopkHot,
    /// The same shapes, each OPEN anchored on a fresh constant.
    TopkUnique,
    /// Long scrolls through acyclic statements and the UNION.
    DeepScroll,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TopkHot,
        Workload::TopkUnique,
        Workload::DeepScroll,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkHot => "topk_hot",
            Workload::TopkUnique => "topk_unique",
            Workload::DeepScroll => "deep_scroll",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The statement shapes one round of a client's script visits.
    pub fn shapes(self) -> &'static [Shape] {
        match self {
            Workload::TopkHot | Workload::TopkUnique => &Shape::ALL,
            Workload::DeepScroll => &Shape::DEEP,
        }
    }

    /// Rows per FETCH.
    pub fn page_k(self) -> u64 {
        match self {
            Workload::TopkHot | Workload::TopkUnique => 10,
            Workload::DeepScroll => 256,
        }
    }

    /// A session stops fetching once it has this many answers (or the
    /// cursor is exhausted). The top-k workloads fetch exactly one page.
    pub fn answer_cap(self) -> usize {
        match self {
            Workload::TopkHot | Workload::TopkUnique => 10,
            Workload::DeepScroll => 50_000,
        }
    }

    /// Database sizes at full scale.
    pub fn sizes(self) -> Sizes {
        match self {
            Workload::TopkHot => Sizes {
                memberships: 5_000,
                cycle_memberships: 800,
                ldbc_scale: 1,
            },
            // The 4-cycle and UNION databases are larger than `topk_hot`'s
            // so that each shape has a fresh anchor for every OPEN of the
            // window (about 1260 per shape at these sizes).
            Workload::TopkUnique => Sizes {
                memberships: 5_000,
                cycle_memberships: 5_000,
                ldbc_scale: 5,
            },
            Workload::DeepScroll => Sizes {
                memberships: 20_000,
                cycle_memberships: 0,
                ldbc_scale: 5,
            },
        }
    }
}

/// Generated database sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Rows of `dblp.AuthorPapers` (`BipartiteConfig::dblp_like`).
    pub memberships: usize,
    /// Rows of `cyc.AuthorPapers` (`0`: the database is not built).
    pub cycle_memberships: usize,
    /// `LdbcWorkload` scale factor (`Knows` holds about 4000 rows per unit).
    pub ldbc_scale: usize,
}

impl Sizes {
    /// These sizes divided by `divisor` (the self-test's tiny scale).
    pub fn shrunk(self, divisor: usize) -> Sizes {
        let shrink = |n: usize| if n == 0 { 0 } else { (n / divisor).max(60) };
        Sizes {
            memberships: shrink(self.memberships),
            cycle_memberships: shrink(self.cycle_memberships),
            ldbc_scale: if divisor > 1 { 1 } else { self.ldbc_scale },
        }
    }
}

/// The statement shapes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    /// Co-author pairs, ranked by the sum of the two ids.
    TwoHopSum,
    /// Authors three hops apart, SUM-ranked.
    ThreeHopSum,
    /// Co-author pairs in lexicographic order (the Algorithm-3 path).
    TwoHopLex,
    /// Author triples sharing a paper, SUM-ranked.
    ThreeStarSum,
    /// The 4-cycle `a1-p1-a2-p2-a1` (GHD + WCOJ bags), on its own database.
    FourCycleSum,
    /// `Knows` 1-hop UNION 2-hop, SUM-ranked.
    KnowsUnion,
}

impl Shape {
    /// The top-k mix.
    pub const ALL: [Shape; 6] = [
        Shape::TwoHopSum,
        Shape::ThreeHopSum,
        Shape::TwoHopLex,
        Shape::ThreeStarSum,
        Shape::FourCycleSum,
        Shape::KnowsUnion,
    ];

    /// The deep-scroll mix: the acyclic statements and the UNION. The
    /// 3-hop is left out: its 50k-answer scroll at 20k memberships takes
    /// about ten times as long as the others together, so one statement
    /// would own the window.
    pub const DEEP: [Shape; 4] = [
        Shape::TwoHopSum,
        Shape::TwoHopLex,
        Shape::ThreeStarSum,
        Shape::KnowsUnion,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Shape::TwoHopSum => "2hop_sum",
            Shape::ThreeHopSum => "3hop_sum",
            Shape::TwoHopLex => "2hop_lex",
            Shape::ThreeStarSum => "3star_sum",
            Shape::FourCycleSum => "4cycle_sum",
            Shape::KnowsUnion => "knows_union",
        }
    }

    /// Catalog database the shape runs against.
    pub fn db(self) -> &'static str {
        match self {
            Shape::FourCycleSum => CYCLE,
            Shape::KnowsUnion => LDBC,
            _ => DBLP,
        }
    }

    /// Whether rows are ranked lexicographically (else by the value sum).
    pub fn is_lex(self) -> bool {
        self == Shape::TwoHopLex
    }

    /// The SQL text, optionally anchored on the first atom's entity column.
    pub fn sql(self, anchor: Option<Value>) -> String {
        let pin = |alias: &str, col: &str| match anchor {
            Some(c) => format!(" AND {alias}.{col} = {c}"),
            None => String::new(),
        };
        let m = MEMBERSHIP;
        match self {
            Shape::TwoHopSum | Shape::TwoHopLex => {
                let order = if self.is_lex() {
                    "AP1.aid, AP2.aid"
                } else {
                    "AP1.aid + AP2.aid"
                };
                format!(
                    "SELECT DISTINCT AP1.aid, AP2.aid FROM {m} AS AP1, {m} AS AP2 \
                     WHERE AP1.pid = AP2.pid{} ORDER BY {order}",
                    pin("AP1", "aid")
                )
            }
            Shape::ThreeHopSum => format!(
                "SELECT DISTINCT AP1.aid, AP4.aid \
                 FROM {m} AS AP1, {m} AS AP2, {m} AS AP3, {m} AS AP4 \
                 WHERE AP1.pid = AP2.pid AND AP2.aid = AP3.aid AND AP3.pid = AP4.pid{} \
                 ORDER BY AP1.aid + AP4.aid",
                pin("AP1", "aid")
            ),
            Shape::ThreeStarSum => format!(
                "SELECT DISTINCT AP1.aid, AP2.aid, AP3.aid FROM {m} AS AP1, {m} AS AP2, {m} AS AP3 \
                 WHERE AP1.pid = AP2.pid AND AP2.pid = AP3.pid{} \
                 ORDER BY AP1.aid + AP2.aid + AP3.aid",
                pin("AP1", "aid")
            ),
            Shape::FourCycleSum => format!(
                "SELECT DISTINCT AP1.aid, AP2.aid \
                 FROM {m} AS AP1, {m} AS AP2, {m} AS AP3, {m} AS AP4 \
                 WHERE AP1.pid = AP2.pid AND AP2.aid = AP3.aid AND AP3.pid = AP4.pid \
                 AND AP4.aid = AP1.aid{} ORDER BY AP1.aid + AP2.aid",
                pin("AP1", "aid")
            ),
            Shape::KnowsUnion => format!(
                "SELECT DISTINCT K.p1, K.p2 FROM Knows AS K{} \
                 UNION \
                 SELECT DISTINCT K1.p1, K2.p2 FROM Knows AS K1, Knows AS K2 \
                 WHERE K1.p2 = K2.p1{} ORDER BY K1.p1 + K2.p2",
                match anchor {
                    Some(c) => format!(" WHERE K.p1 = {c}"),
                    None => String::new(),
                },
                pin("K1", "p1")
            ),
        }
    }
}

/// One distinct statement of a run: its shape and optional anchor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Statement {
    /// The query shape.
    pub shape: Shape,
    /// The constant the first atom is pinned to, if any.
    pub anchor: Option<Value>,
}

impl Statement {
    /// The SQL text the client sends.
    pub fn sql(&self) -> String {
        self.shape.sql(self.anchor)
    }
}

/// The generated catalog of one workload.
pub struct Data {
    /// `(catalog name, database)` pairs, shared with the server's catalog.
    pub dbs: Vec<(&'static str, Arc<Database>)>,
    /// The sizes they were generated at.
    pub sizes: Sizes,
}

impl Data {
    /// Generate the workload's databases from the seed.
    pub fn generate(sizes: Sizes, seed: u64) -> Data {
        let mut dbs = Vec::new();
        dbs.push((DBLP, Arc::new(membership_db(sizes.memberships, seed))));
        if sizes.cycle_memberships > 0 {
            let cycle = membership_db(sizes.cycle_memberships, seed ^ 0xC1C1);
            dbs.push((CYCLE, Arc::new(cycle)));
        }
        let ldbc = LdbcWorkload::generate(sizes.ldbc_scale, seed ^ 0x1DBC);
        dbs.push((LDBC, Arc::new(ldbc.db().clone())));
        Data { dbs, sizes }
    }

    /// The database registered under `name`.
    pub fn db(&self, name: &str) -> &Database {
        &self
            .dbs
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("workload has no database `{name}`"))
            .1
    }

    /// Total rows over every database.
    pub fn total_rows(&self) -> usize {
        self.dbs.iter().map(|(_, db)| db.size()).sum()
    }
}

/// A DBLP-like `AuthorPapers(aid, pid)` database with `rows` memberships.
pub fn membership_db(rows: usize, seed: u64) -> Database {
    let ds = BipartiteDataset::generate(BipartiteConfig::dblp_like(rows, seed));
    let mut db = Database::new();
    db.set_relation(ds.relation);
    db
}

/// The column an anchored statement pins, per shape: `(database,
/// relation, column position)`.
fn anchor_column(shape: Shape) -> (&'static str, &'static str, usize) {
    match shape {
        Shape::KnowsUnion => (LDBC, "Knows", 0),
        other => (other.db(), MEMBERSHIP, 0),
    }
}

/// Per-shape sequences of distinct anchors for `topk_unique`: constants
/// present in the anchored column, drawn by a Zipf law over the values in
/// descending-frequency order, without replacement (a used value is
/// redrawn), so no SQL text repeats. Entry 0 of each list is reserved for
/// the set-up warm-up OPEN.
pub struct Anchors {
    lists: Vec<(Shape, Vec<Value>)>,
}

impl Anchors {
    /// Draw the anchor sequences for every top-k shape.
    pub fn draw(data: &Data, seed: u64) -> Anchors {
        let lists = Shape::ALL
            .iter()
            .enumerate()
            .map(|(i, &shape)| {
                let (db, rel, col) = anchor_column(shape);
                let relation = data.db(db).relation(rel).expect("anchored relation exists");
                let mut freq: std::collections::BTreeMap<Value, usize> = Default::default();
                for t in relation.iter() {
                    *freq.entry(t[col]).or_default() += 1;
                }
                let mut by_freq: Vec<(usize, Value)> =
                    freq.into_iter().map(|(v, n)| (n, v)).collect();
                by_freq.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let values: Vec<Value> = by_freq.into_iter().map(|(_, v)| v).collect();
                let zipf = ZipfSampler::new(values.len(), 1.0);
                let mut rng = StdRng::seed_from_u64(seed ^ (0xA4C0 + i as u64));
                let mut used = HashSet::new();
                let mut out = Vec::with_capacity(values.len());
                while out.len() < values.len() {
                    let mut pick = zipf.sample(&mut rng);
                    // Bounded redraws, then the most popular unused value.
                    for _ in 0..32 {
                        if !used.contains(&pick) {
                            break;
                        }
                        pick = zipf.sample(&mut rng);
                    }
                    if used.contains(&pick) {
                        pick = (0..values.len())
                            .find(|p| !used.contains(p))
                            .expect("an unused value remains");
                    }
                    used.insert(pick);
                    out.push(values[pick]);
                }
                (shape, out)
            })
            .collect();
        Anchors { lists }
    }

    /// The `i`-th anchor of `shape`.
    pub fn get(&self, shape: Shape, i: usize) -> Value {
        let list = &self
            .lists
            .iter()
            .find(|(s, _)| *s == shape)
            .expect("every top-k shape has anchors")
            .1;
        list[i]
    }

    /// Rounds each of `clients` clients can run before some shape runs
    /// out of fresh anchors: the end of the `topk_unique` script.
    pub fn rounds(&self, clients: usize) -> usize {
        let shortest = self.lists.iter().map(|(_, l)| l.len()).min().unwrap_or(0);
        shortest.saturating_sub(1) / clients
    }
}

/// The statement of `client`'s session `slot` in `round`, where each round
/// visits every shape of the workload once in a seeded order.
pub fn script_statement(
    workload: Workload,
    anchors: Option<&Anchors>,
    seed: u64,
    clients: usize,
    client: usize,
    round: usize,
    slot: usize,
) -> Statement {
    let order = round_order(workload, seed, client, round);
    let shape = order[slot];
    let anchor = match workload {
        Workload::TopkUnique => {
            let anchors = anchors.expect("topk_unique draws anchors");
            Some(anchors.get(shape, 1 + round * clients + client))
        }
        _ => None,
    };
    Statement { shape, anchor }
}

/// The seeded shape order of one client's round (a Fisher-Yates shuffle).
fn round_order(workload: Workload, seed: u64, client: usize, round: usize) -> Vec<Shape> {
    let mut order = workload.shapes().to_vec();
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((client as u64) << 32) ^ round as u64,
    );
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

/// The statements the set-up warms with one OPEN each.
pub fn warmup_statements(workload: Workload, anchors: Option<&Anchors>) -> Vec<Statement> {
    workload
        .shapes()
        .iter()
        .map(|&shape| Statement {
            shape,
            anchor: anchors.map(|a| a.get(shape, 0)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_seeded_and_visit_every_shape_per_round() {
        let a = script_statement(Workload::TopkHot, None, 7, 2, 0, 3, 0);
        let b = script_statement(Workload::TopkHot, None, 7, 2, 0, 3, 0);
        assert_eq!(a, b);
        let mut shapes: Vec<Shape> = (0..6)
            .map(|s| script_statement(Workload::TopkHot, None, 7, 2, 1, 0, s).shape)
            .collect();
        shapes.sort();
        assert_eq!(shapes, Shape::ALL.to_vec());
    }

    #[test]
    fn unique_anchors_do_not_repeat() {
        let data = Data::generate(Workload::TopkUnique.sizes().shrunk(20), 3);
        let anchors = Anchors::draw(&data, 3);
        let mut seen = HashSet::new();
        let rounds = anchors.rounds(2);
        assert!(rounds >= 5, "tiny data still gives {rounds} rounds");
        for round in 0..rounds {
            for client in 0..2 {
                for slot in 0..6 {
                    let s = script_statement(
                        Workload::TopkUnique,
                        Some(&anchors),
                        3,
                        2,
                        client,
                        round,
                        slot,
                    );
                    assert!(seen.insert(s.sql()), "repeated statement {}", s.sql());
                }
            }
        }
    }
}
