//! The three workloads and the request sequences they send.
//!
//! Every workload is an endless, deterministic sequence of operations made from `--seed`
//! alone; the wire run and the traced replay both walk the same sequence by index, so the
//! replay sees exactly the requests the server saw. Each query text is sent twice in a row,
//! once plain and once with `SELECT PROVENANCE`, so the two arms of `prov_overhead_x` go
//! through the same engine, optimizer and statistics and differ only in the keyword.

use std::collections::HashSet;

use perm_algebra::value::{days_from_civil, format_date};
use perm_tpch::dbgen::{SHIP_INSTRUCTS, SHIP_MODES};
use perm_tpch::queries::{add_provenance_keyword, tpch_query, variant_rng};
use perm_tpch::workloads::spj_query;
use perm_tpch::TpchScale;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The TPC-H queries of the paper's Figure 10 Criterion set.
pub const TPCH_TEMPLATES: [u32; 11] = [3, 5, 6, 7, 8, 10, 11, 12, 14, 15, 19];

/// Of those, the queries that read `lineitem` (every one but Q11): the reads of `tpch-write`.
pub const LINEITEM_TEMPLATES: [u32; 10] = [3, 5, 6, 7, 8, 10, 12, 14, 15, 19];

/// The `qgen` parameter variants 0, 1 and 2 of each TPC-H template (variant 0 is the one the
/// Criterion Figure 10 benchmark runs): 66 texts in `tpch-prov`, inside the 128-slot plan
/// cache. The set is the same for every seed because result sizes differ widely between
/// variants (Q11's provenance has 0 to 25,120 rows over the first 100), and the largest
/// result sets the tail and the peak memory.
pub const VARIANTS_PER_TEMPLATE: u64 = 3;

/// Distinct plain/provenance pairs in the `spj-cold` pool. The 396 texts are more than three
/// times the plan cache's 128 slots, and the pool is walked in order, so an LRU cache never
/// hits even when a fast server cycles through it. A multiple of 6, so a wrap keeps the
/// subquery counts in step with the 12-operation cycles.
pub const SPJ_POOL_PAIRS: usize = 198;

/// `tpch-write` sends one `INSERT` batch after this many plain/provenance pairs.
pub const PAIRS_PER_WRITE: usize = 2;

/// The largest `INSERT` batch `tpch-write` sends, in rows.
pub const MAX_INSERT_ROWS: usize = 4;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 10/11 TPC-H queries over a few seeded variants, replayed in rotation: the plan
    /// cache stays warm, so execution, encoding and the wire do the work.
    TpchProv,
    /// Random SPJ queries over `part` with 1 to 6 subqueries (Figures 9 and 13), every text
    /// new: the plan cache never hits, so parse, bind, rewrite, verify and optimize dominate.
    SpjCold,
    /// The `lineitem`-reading TPC-H queries with a seeded `INSERT INTO lineitem` batch every few
    /// reads: every write invalidates the cached plans and the `lineitem` statistics.
    TpchWrite,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::TpchProv, Workload::SpjCold, Workload::TpchWrite];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchProv => "tpch-prov",
            Workload::SpjCold => "spj-cold",
            Workload::TpchWrite => "tpch-write",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Whether a query is sent plain or with the `PROVENANCE` keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arm {
    /// The query as written.
    Plain,
    /// `SELECT PROVENANCE ...`.
    Prov,
}

/// One operation of a workload sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A query: `template` is the TPC-H query number, or the subquery count for SPJ.
    Query { sql: String, template: u32, arm: Arm },
    /// An `INSERT INTO lineitem VALUES ...` of `rows` rows.
    Insert { sql: String, rows: usize },
}

impl Op {
    /// The SQL text sent to the server.
    pub fn sql(&self) -> &str {
        match self {
            Op::Query { sql, .. } | Op::Insert { sql, .. } => sql,
        }
    }
}

/// An endless operation sequence: a rotation of query pairs, optionally interleaved with
/// inserts. `get(i)` is the i-th operation.
#[derive(Debug, Clone)]
pub struct Sequence {
    workload: Workload,
    seed: u64,
    /// The query rotation: plain and provenance text of each pair, adjacent.
    rotation: Vec<Op>,
    /// `tpch-write` only: the bounds `INSERT` rows draw their keys from.
    insert_keys: Option<InsertKeys>,
}

#[derive(Debug, Clone, Copy)]
struct InsertKeys {
    orders: usize,
    parts: usize,
    suppliers: usize,
}

impl Sequence {
    /// The sequence of `workload` for `seed` over a catalog generated at `scale`.
    pub fn new(workload: Workload, seed: u64, scale: TpchScale) -> Sequence {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5749_5245_4245_4E43);
        let (rotation, insert_keys) = match workload {
            Workload::TpchProv => {
                let mut pairs = tpch_pairs(&TPCH_TEMPLATES);
                shuffle(&mut pairs, &mut rng);
                (flatten_pairs(pairs), None)
            }
            Workload::SpjCold => (spj_pool(&mut rng, scale.parts()), None),
            // The reads keep a fixed order, so the same reads follow each write under every
            // seed; the seed draws the inserted rows.
            Workload::TpchWrite => (
                flatten_pairs(tpch_pairs(&LINEITEM_TEMPLATES)),
                Some(InsertKeys {
                    orders: scale.orders(),
                    parts: scale.parts(),
                    suppliers: scale.suppliers(),
                }),
            ),
        };
        Sequence { workload, seed, rotation, insert_keys }
    }

    /// The workload this sequence belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The distinct query texts of the rotation (each plain and provenance text once).
    pub fn rotation(&self) -> &[Op] {
        &self.rotation
    }

    /// Operations in one cycle of the sequence: the query rotation (with its inserts in
    /// `tpch-write`), or for `spj-cold` one pair per subquery count. The warm-up is one cycle
    /// (for the TPC-H workloads it fills the plan cache, as a server that has been up for a
    /// while would have it) and the timed window a whole number of cycles, so every run sends
    /// each kind of request equally often.
    pub fn cycle_len(&self) -> usize {
        match self.workload {
            Workload::TpchProv => self.rotation.len(),
            Workload::SpjCold => 12,
            Workload::TpchWrite => {
                let pairs = self.rotation.len() / 2;
                self.rotation.len() + pairs.div_ceil(PAIRS_PER_WRITE)
            }
        }
    }

    /// The i-th operation.
    pub fn get(&self, i: usize) -> Op {
        let Some(keys) = self.insert_keys else {
            return self.rotation[i % self.rotation.len()].clone();
        };
        let block = 2 * PAIRS_PER_WRITE + 1;
        let (b, offset) = (i / block, i % block);
        if offset < 2 * PAIRS_PER_WRITE {
            self.rotation[(b * 2 * PAIRS_PER_WRITE + offset) % self.rotation.len()].clone()
        } else {
            insert_batch(self.seed, b as u64, keys)
        }
    }
}

/// The `VARIANTS_PER_TEMPLATE` variants of each template, template by template.
fn tpch_pairs(templates: &[u32]) -> Vec<(String, u32)> {
    templates
        .iter()
        .flat_map(|&id| {
            (0..VARIANTS_PER_TEMPLATE)
                .map(move |variant| (tpch_query(id).generate(&mut variant_rng(id, variant)), id))
        })
        .collect()
}

/// `SPJ_POOL_PAIRS` distinct SPJ queries cycling through 1 to 6 subqueries.
fn spj_pool(rng: &mut SmallRng, parts: usize) -> Vec<Op> {
    let mut seen = HashSet::new();
    let mut pairs = Vec::with_capacity(SPJ_POOL_PAIRS);
    while pairs.len() < SPJ_POOL_PAIRS {
        let subqueries = pairs.len() % 6 + 1;
        let sql = spj_query(rng, subqueries, parts);
        if seen.insert(sql.clone()) {
            pairs.push((sql, subqueries as u32));
        }
    }
    flatten_pairs(pairs)
}

fn flatten_pairs(pairs: Vec<(String, u32)>) -> Vec<Op> {
    pairs
        .into_iter()
        .flat_map(|(sql, template)| {
            let prov = add_provenance_keyword(&sql);
            [
                Op::Query { sql, template, arm: Arm::Plain },
                Op::Query { sql: prov, template, arm: Arm::Prov },
            ]
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The `batch`-th insert of a `tpch-write` run: 1 to `MAX_INSERT_ROWS` new line items of
/// existing orders, drawn like the generator draws them (line numbers above its 7 per order).
fn insert_batch(seed: u64, batch: u64, keys: InsertKeys) -> Op {
    let mut rng = SmallRng::seed_from_u64(seed.rotate_left(17) ^ batch.wrapping_mul(0x9E37_79B9));
    let rows = rng.gen_range(1..=MAX_INSERT_ROWS);
    let start = days_from_civil(1992, 1, 1);
    let end = days_from_civil(1998, 8, 2) - 151;
    let today = days_from_civil(1995, 6, 17);
    let mut values = Vec::with_capacity(rows);
    for line in 0..rows {
        let orderkey = rng.gen_range(1..=keys.orders.max(1));
        let partkey = rng.gen_range(1..=keys.parts.max(1));
        let suppkey = (partkey + line) % keys.suppliers.max(1) + 1;
        let quantity = rng.gen_range(1..=50) as f64;
        let price = (quantity * (900.0 + (partkey % 1000) as f64 / 10.0) * 100.0).round() / 100.0;
        let discount = rng.gen_range(0..=10) as f64 / 100.0;
        let tax = rng.gen_range(0..=8) as f64 / 100.0;
        let orderdate = rng.gen_range(start..=end);
        let shipdate = orderdate + rng.gen_range(1..=121);
        let commitdate = orderdate + rng.gen_range(30..=90);
        let receiptdate = shipdate + rng.gen_range(1..=30);
        let (flag, status) = if receiptdate <= today {
            (if rng.gen_bool(0.5) { "R" } else { "A" }, "F")
        } else {
            ("N", "O")
        };
        let instruct = SHIP_INSTRUCTS[rng.gen_range(0..SHIP_INSTRUCTS.len())];
        let mode = SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())];
        values.push(format!(
            "({orderkey}, {partkey}, {suppkey}, {}, {quantity:.1}, {price:.2}, {discount:.2}, \
             {tax:.2}, '{flag}', '{status}', DATE '{}', DATE '{}', DATE '{}', '{instruct}', \
             '{mode}', 'wirebench batch {batch}')",
            8 + line,
            format_date(shipdate),
            format_date(commitdate),
            format_date(receiptdate),
        ));
    }
    Op::Insert { sql: format!("INSERT INTO lineitem VALUES {}", values.join(", ")), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_and_seed_dependent() {
        for workload in Workload::ALL {
            let a = Sequence::new(workload, 7, TpchScale::small());
            let b = Sequence::new(workload, 7, TpchScale::small());
            let c = Sequence::new(workload, 8, TpchScale::small());
            let ops = |s: &Sequence| (0..40).map(|i| s.get(i)).collect::<Vec<_>>();
            assert_eq!(ops(&a), ops(&b));
            assert_ne!(ops(&a), ops(&c));
        }
    }

    #[test]
    fn write_sequence_interleaves_inserts_between_pairs() {
        let s = Sequence::new(Workload::TpchWrite, 3, TpchScale::small());
        let block = 2 * PAIRS_PER_WRITE + 1;
        for i in 0..3 * block {
            match s.get(i) {
                Op::Insert { rows, .. } => {
                    assert_eq!(i % block, block - 1);
                    assert!((1..=MAX_INSERT_ROWS).contains(&rows));
                }
                Op::Query { arm, .. } => {
                    assert_eq!(arm == Arm::Plain, (i % block).is_multiple_of(2));
                }
            }
        }
        assert_eq!(
            s.rotation().len(),
            2 * LINEITEM_TEMPLATES.len() * VARIANTS_PER_TEMPLATE as usize
        );
    }
}
