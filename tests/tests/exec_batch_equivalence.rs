//! Property tests for the vectorized execution path: over randomly
//! varied templates and randomly drawn bindings — NULL-heavy rows,
//! empty/inverted BETWEEN intervals, duplicate rows — the batch executor
//! [`PreparedExec::execute_batch`] must return exactly, bit for bit, the
//! `(cardinality, work_micros)` pairs that per-row instantiate-and-
//! `Database::execute` produces, and the oracle's `cost` for
//! execution-based cost types must match per-probe `query_cost` in
//! results and count one physical evaluation per distinct (memoized) or
//! every (unmemoized) probe, even under capacity-2 eviction pressure.
//!
//! The skeletons pin the tier boundary: two-table equi-joins and global
//! aggregates must classify `columnar` (including the four shapes the
//! actual-cardinality amplification workload produces), and everything
//! outside the kernels' reach — three tables, grouping, `DISTINCT`,
//! residual join predicates, string join keys, `LEFT JOIN` — must stay
//! `hoisted` and still match.

use minidb::storage::{DataType, Table};
use minidb::{BindingBatch, Database, DbError, ExecScratch, PreparedExec};
use proptest::prelude::*;
use sqlbarber::cost::query_cost;
use sqlbarber::oracle::{ColumnarScratch, CostOracle};
use sqlbarber::CostType;
use sqlkit::{parse_template, Value};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

fn tpch() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny())
    })
}

/// Two hand-built tables whose join keys hold NULLs and mix `Int` with
/// `Float` (including `-0.0` and fractional keys that match nothing).
/// Both key columns are indexed, so either side can win an index scan.
fn keys() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut ints = Table::new(
            "ints",
            vec![
                ("i_id".into(), DataType::Int),
                ("i_key".into(), DataType::Int),
                ("i_val".into(), DataType::Float),
            ],
        );
        for i in 0..300i64 {
            let key = if i % 5 == 0 { Value::Null } else { Value::Int(i % 41 - 3) };
            let val = ((i * 7919) % 61_000 - 1_000) as f64;
            ints.push_row(vec![Value::Int(i), key, Value::Float(val)]);
        }
        let mut floats = Table::new(
            "floats",
            vec![("f_key".into(), DataType::Float), ("f_num".into(), DataType::Int)],
        );
        for i in 0..120i64 {
            let key = match i % 6 {
                0 => Value::Null,
                1 => Value::Float(-0.0),
                2 => Value::Float((i % 37) as f64 + 0.5),
                _ => Value::Float((i % 37) as f64),
            };
            floats.push_row(vec![key, Value::Int((i * 503) % 61_000 - 1_000)]);
        }
        let mut db = Database::new("keys");
        db.add_table(ints, Some("i_id"), &["i_key"]);
        db.add_table(floats, None, &["f_key"]);
        db
    })
}

/// A template skeleton with its placeholders as `(id, is_int)`, the
/// database it runs on, and the execution tier `PreparedExec::prepare`
/// must classify it into.
struct Skeleton {
    sql: &'static str,
    kinds: &'static [(u32, bool)],
    db: fn() -> &'static Database,
    tier: &'static str,
}

const SKELETONS: &[Skeleton] = &[
    // Single numeric comparison: columnar selection-vector kernels,
    // seq-vs-index decided per row.
    Skeleton {
        sql: "SELECT l.l_orderkey FROM lineitem AS l \
              WHERE l.l_extendedprice > {p_1}",
        kinds: &[(1, false)],
        db: tpch,
        tier: "columnar",
    },
    // BETWEEN (empty when p_1 > p_2) + extra conjunct + ORDER BY/LIMIT.
    Skeleton {
        sql: "SELECT l.l_orderkey, l.l_quantity FROM lineitem AS l \
              WHERE l.l_quantity BETWEEN {p_1} AND {p_2} \
              AND l.l_discount < {p_3} \
              ORDER BY l.l_orderkey LIMIT 40",
        kinds: &[(1, false), (2, false), (3, false)],
        db: tpch,
        tier: "columnar",
    },
    // Equality on an indexed integer key: point-lookup probes.
    Skeleton {
        sql: "SELECT o.o_orderkey FROM orders AS o \
              WHERE o.o_orderkey = {p_1}",
        kinds: &[(1, true)],
        db: tpch,
        tier: "columnar",
    },
    // Join + aggregation: per-row scalar execution with the join
    // pipeline planned once (hoisted tier).
    Skeleton {
        sql: "SELECT o.o_orderkey, SUM(l.l_extendedprice) \
              FROM orders AS o, lineitem AS l \
              WHERE o.o_orderkey = l.l_orderkey AND l.l_extendedprice > {p_1} \
              GROUP BY o.o_orderkey ORDER BY o.o_orderkey LIMIT 25",
        kinds: &[(1, false)],
        db: tpch,
        tier: "hoisted",
    },
    // Placeholder inside the IN-subquery: dynamic per-row subquery,
    // scalar tier.
    Skeleton {
        sql: "SELECT c.c_custkey FROM customer AS c \
              WHERE c.c_acctbal > {p_1} AND c.c_custkey IN \
              (SELECT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_2})",
        kinds: &[(1, false), (2, false)],
        db: tpch,
        tier: "scalar",
    },
    // ---- two-table equi-joins and global aggregates: columnar --------
    // Join with both sides filtered by placeholders: the smaller
    // selection is counted, the other probes it.
    Skeleton {
        sql: "SELECT o.o_orderkey, l.l_quantity FROM orders AS o \
              JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
              WHERE o.o_totalprice > {p_1} AND l.l_extendedprice < {p_2} \
              ORDER BY l.l_quantity",
        kinds: &[(1, false), (2, false)],
        db: tpch,
        tier: "columnar",
    },
    // Join with one static side (literal filter only): its per-key
    // counts are computed once at prepare time.
    Skeleton {
        sql: "SELECT * FROM customer AS c JOIN orders AS o ON c.c_custkey = o.o_custkey \
              WHERE c.c_acctbal > 500 AND o.o_totalprice BETWEEN {p_1} AND {p_2}",
        kinds: &[(1, false), (2, false)],
        db: tpch,
        tier: "columnar",
    },
    // Index-scan winner on the left side (primary-key point lookup).
    Skeleton {
        sql: "SELECT o.o_orderkey FROM orders AS o \
              JOIN lineitem AS l ON o.o_orderkey = l.l_orderkey \
              WHERE o.o_orderkey = {p_1} AND l.l_quantity > {p_2}",
        kinds: &[(1, true), (2, false)],
        db: tpch,
        tier: "columnar",
    },
    // Index-scan winner on the right side (narrow or empty key range).
    Skeleton {
        sql: "SELECT o.o_totalprice FROM orders AS o \
              JOIN lineitem AS l ON l.l_orderkey = o.o_orderkey \
              WHERE o.o_totalprice > {p_1} AND l.l_orderkey <= {p_2} \
              ORDER BY o.o_totalprice DESC",
        kinds: &[(1, false), (2, true)],
        db: tpch,
        tier: "columnar",
    },
    // NULL join keys on both sides, Int keys against Float keys.
    Skeleton {
        sql: "SELECT * FROM ints AS i JOIN floats AS f ON i.i_key = f.f_key \
              WHERE i.i_val > {p_1} AND f.f_num < {p_2}",
        kinds: &[(1, false), (2, true)],
        db: keys,
        tier: "columnar",
    },
    // Index winners on either key column, NULL keys, aggregate output.
    Skeleton {
        sql: "SELECT COUNT(*), MAX(f.f_key) FROM floats AS f \
              JOIN ints AS i ON f.f_key = i.i_key \
              WHERE f.f_key >= {p_1} AND i.i_key BETWEEN {p_2} AND {p_3}",
        kinds: &[(1, false), (2, true), (3, true)],
        db: keys,
        tier: "columnar",
    },
    // Float join key against an Int join key on TPC-H, static side.
    Skeleton {
        sql: "SELECT COUNT(*) FROM lineitem AS l JOIN part AS p ON l.l_quantity = p.p_size \
              WHERE l.l_extendedprice > {p_1}",
        kinds: &[(1, false)],
        db: tpch,
        tier: "columnar",
    },
    // LIMIT 1 on a join, LIMIT 0 on a global aggregate.
    Skeleton {
        sql: "SELECT * FROM part AS p JOIN partsupp AS ps ON p.p_partkey = ps.ps_partkey \
              WHERE ps.ps_availqty < {p_1} LIMIT 1",
        kinds: &[(1, true)],
        db: tpch,
        tier: "columnar",
    },
    Skeleton {
        sql: "SELECT COUNT(*) FROM partsupp AS ps WHERE ps.ps_availqty < {p_1} LIMIT 0",
        kinds: &[(1, true)],
        db: tpch,
        tier: "columnar",
    },
    // Aggregates over a (usually) empty selection still yield one row.
    Skeleton {
        sql: "SELECT COUNT(*), MIN(l.l_quantity), SUM(l.l_extendedprice) \
              FROM lineitem AS l WHERE l.l_quantity > {p_1}",
        kinds: &[(1, false)],
        db: tpch,
        tier: "columnar",
    },
    Skeleton {
        sql: "SELECT COUNT(DISTINCT o.o_custkey), MAX(o.o_orderstatus), AVG(o.o_totalprice), \
              SUM(o.o_custkey) FROM orders AS o \
              WHERE o.o_totalprice BETWEEN {p_1} AND {p_2} ORDER BY COUNT(*)",
        kinds: &[(1, false), (2, false)],
        db: tpch,
        tier: "columnar",
    },
    // The four shapes of the actual-cardinality amplification workload.
    Skeleton {
        sql: "SELECT t1.ps_supplycost FROM partsupp AS t1 \
              JOIN part AS t2 ON t1.ps_partkey = t2.p_partkey \
              WHERE t1.ps_availqty < {p_1} AND t1.ps_availqty BETWEEN {p_2} AND {p_3} \
              ORDER BY t1.ps_supplycost DESC",
        kinds: &[(1, true), (2, true), (3, true)],
        db: tpch,
        tier: "columnar",
    },
    Skeleton {
        sql: "SELECT COUNT(*) AS agg_1, COUNT(*) AS extra_agg FROM partsupp AS t1 \
              JOIN part AS t2 ON t1.ps_partkey = t2.p_partkey \
              WHERE t1.ps_partkey >= {p_1} AND t1.ps_availqty > {p_2}",
        kinds: &[(1, true), (2, true)],
        db: tpch,
        tier: "columnar",
    },
    Skeleton {
        sql: "SELECT COUNT(*) AS agg_1, COUNT(*) AS extra_agg FROM partsupp AS t1 \
              WHERE t1.ps_partkey >= {p_1} AND t1.ps_availqty > {p_2}",
        kinds: &[(1, true), (2, true)],
        db: tpch,
        tier: "columnar",
    },
    Skeleton {
        sql: "SELECT t1.ps_supplycost FROM partsupp AS t1 \
              JOIN part AS t2 ON t1.ps_partkey = t2.p_partkey \
              WHERE t1.ps_availqty BETWEEN {p_1} AND {p_2} \
              ORDER BY t1.ps_supplycost DESC",
        kinds: &[(1, true), (2, true)],
        db: tpch,
        tier: "columnar",
    },
    // ---- outside the kernels' reach: hoisted -------------------------
    Skeleton {
        sql: "SELECT c.c_name FROM customer AS c \
              JOIN orders AS o ON c.c_custkey = o.o_custkey \
              JOIN nation AS n ON c.c_nationkey = n.n_nationkey \
              WHERE o.o_totalprice > {p_1} AND c.c_acctbal < {p_2}",
        kinds: &[(1, false), (2, false)],
        db: tpch,
        tier: "hoisted",
    },
    Skeleton {
        sql: "SELECT DISTINCT o.o_custkey FROM orders AS o WHERE o.o_totalprice > {p_1}",
        kinds: &[(1, false)],
        db: tpch,
        tier: "hoisted",
    },
    // Non-equi residual join predicate.
    Skeleton {
        sql: "SELECT * FROM part AS p JOIN partsupp AS ps ON p.p_partkey = ps.ps_partkey \
              WHERE ps.ps_supplycost < p.p_retailprice AND ps.ps_availqty > {p_1}",
        kinds: &[(1, true)],
        db: tpch,
        tier: "hoisted",
    },
    // String join key.
    Skeleton {
        sql: "SELECT * FROM supplier AS s JOIN customer AS c ON s.s_name = c.c_name \
              WHERE c.c_acctbal > {p_1}",
        kinds: &[(1, false)],
        db: tpch,
        tier: "hoisted",
    },
    // SUM over a string column: a per-row planning error, reproduced.
    Skeleton {
        sql: "SELECT SUM(c.c_name) FROM customer AS c WHERE c.c_acctbal > {p_1}",
        kinds: &[(1, false)],
        db: tpch,
        tier: "hoisted",
    },
    Skeleton {
        sql: "SELECT * FROM part AS p LEFT JOIN partsupp AS ps ON p.p_partkey = ps.ps_partkey \
              WHERE p.p_size > {p_1}",
        kinds: &[(1, true)],
        db: tpch,
        tier: "hoisted",
    },
];


/// Build one binding row from raw draws. `null_mask` bit `i` nulls the
/// `i`-th placeholder — NULL-heavy rows are a first-class input, not an
/// afterthought: a NULL operand fails every predicate in the executor
/// and must round-trip through the batch kernels identically.
fn binding_row(
    kinds: &[(u32, bool)],
    raw: &[f64],
    null_mask: u32,
) -> HashMap<u32, Value> {
    kinds
        .iter()
        .zip(raw)
        .enumerate()
        .map(|(i, (&(id, is_int), &x))| {
            let value = if null_mask >> i & 1 == 1 {
                Value::Null
            } else if is_int {
                Value::Int(x as i64)
            } else {
                Value::Float(x)
            };
            (id, value)
        })
        .collect()
}

fn rows_strategy(
    max_rows: usize,
) -> impl Strategy<Value = Vec<(Vec<f64>, u32)>> {
    prop::collection::vec(
        (prop::collection::vec(-1_000.0f64..60_000.0, 3..4), 0u32..8),
        1..max_rows,
    )
}

/// Raw draws for the deterministic sweep: small keys, mid-range
/// values, and out-of-range extremes, so every skeleton sees empty,
/// selective, and wide filters whatever the random cases draw.
const SWEEP: [f64; 8] = [-5.0, 0.0, 3.0, 25.0, 150.0, 1_500.0, 9_000.0, 45_000.0];

/// `Database::execute` on one instantiated binding row.
fn scalar_execute(
    db: &Database,
    template: &sqlkit::Template,
    row: &HashMap<u32, Value>,
) -> Result<(f64, f64), DbError> {
    match template.instantiate(row) {
        Ok(select) => db
            .execute(&select)
            .map(|r| (r.cardinality() as f64, r.work_micros())),
        Err(e) => Err(DbError::Unsupported(e.to_string())),
    }
}

/// Every skeleton, on a fixed sweep of bindings: the tier it must take,
/// and bit-identical results against per-row execution.
#[test]
fn every_skeleton_classifies_and_matches_on_a_fixed_sweep() {
    for skeleton in SKELETONS {
        let db = (skeleton.db)();
        let template = parse_template(skeleton.sql).expect("skeleton SQL parses");
        let exec = PreparedExec::prepare(db, &template);
        assert_eq!(exec.tier(), skeleton.tier, "tier for {}", skeleton.sql);
        let rows: Vec<HashMap<u32, Value>> = (0..24)
            .map(|i| {
                let raw = [SWEEP[i % 8], SWEEP[(i * 5 + 3) % 8], SWEEP[(i * 3 + 1) % 8]];
                let null_mask = if i % 7 == 6 { 1 << (i % 3) } else { 0 };
                binding_row(skeleton.kinds, &raw, null_mask)
            })
            .collect();
        let ids: Vec<u32> = skeleton.kinds.iter().map(|&(id, _)| id).collect();
        let batch = BindingBatch::from_rows(&ids, &rows).expect("all ids bound");
        let mut scratch = ExecScratch::new();
        let batched = exec.execute_batch(db, &batch, &mut scratch).expect("batch executes");
        for (i, (row, got)) in rows.iter().zip(batched).enumerate() {
            let sql = skeleton.sql;
            match (scalar_execute(db, &template, row), got) {
                (Ok((card_s, work_s)), Ok((card_b, work_b))) => {
                    assert_eq!(card_b.to_bits(), card_s.to_bits(), "{sql}: sweep row {i}");
                    assert_eq!(work_b.to_bits(), work_s.to_bits(), "{sql}: sweep row {i}");
                }
                (want, got) => assert_eq!(got, &want, "{sql}: sweep row {i}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `execute_batch` == per-row `Database::execute`, bit for bit, for
    /// every tier — cardinality and the deterministic work proxy alike.
    #[test]
    fn execute_batch_matches_scalar_execute(
        skeleton_idx in 0usize..SKELETONS.len(),
        rows_raw in rows_strategy(7),
        duplicate_first in any::<bool>(),
    ) {
        let skeleton = &SKELETONS[skeleton_idx];
        let db = (skeleton.db)();
        let template = parse_template(skeleton.sql).expect("skeleton SQL parses");
        let exec = PreparedExec::prepare(db, &template);
        prop_assert_eq!(exec.tier(), skeleton.tier, "tier for {}", skeleton.sql);

        let mut rows: Vec<HashMap<u32, Value>> = rows_raw
            .iter()
            .map(|(raw, null_mask)| binding_row(skeleton.kinds, raw, *null_mask))
            .collect();
        if duplicate_first {
            rows.push(rows[0].clone());
        }

        let ids: Vec<u32> = skeleton.kinds.iter().map(|&(id, _)| id).collect();
        let batch = BindingBatch::from_rows(&ids, &rows).expect("all ids bound");
        let mut scratch = ExecScratch::new();
        let batched = exec
            .execute_batch(db, &batch, &mut scratch)
            .expect("batch executes")
            .to_vec();

        prop_assert_eq!(batched.len(), rows.len());
        for (row, batch_result) in rows.iter().zip(batched.iter()) {
            let expected = scalar_execute(db, &template, row);
            match (&expected, batch_result) {
                (Ok((card_s, work_s)), Ok((card_b, work_b))) => {
                    prop_assert_eq!(
                        card_b.to_bits(),
                        card_s.to_bits(),
                        "cardinality diverged: {} vs {}", card_b, card_s
                    );
                    prop_assert_eq!(
                        work_b.to_bits(),
                        work_s.to_bits(),
                        "work proxy diverged: {} vs {}", work_b, work_s
                    );
                }
                (Err(e_s), Err(e_b)) => {
                    prop_assert_eq!(format!("{e_b:?}"), format!("{e_s:?}"));
                }
                (expected, got) => prop_assert!(
                    false,
                    "ok/err mismatch: scalar {:?} vs batch {:?}", expected, got
                ),
            }
        }
        if duplicate_first {
            // Duplicate rows must yield byte-identical outputs.
            prop_assert_eq!(
                format!("{:?}", batched[0]),
                format!("{:?}", batched[batched.len() - 1])
            );
        }
    }

    /// Oracle-level contract for execution-based cost types: `cost`
    /// (dispatching to `execute_batch`) returns, per row, the same bits
    /// as the from-scratch `query_cost` of the instantiated statement,
    /// with exact hit/eval accounting, across thread counts and under
    /// capacity-2 memo eviction pressure.
    #[test]
    fn oracle_columnar_execution_matches_per_probe(
        skeleton_idx in 0usize..SKELETONS.len(),
        rows_raw in rows_strategy(9),
        cost_type in prop::sample::select(vec![
            CostType::ActualCardinality,
            CostType::ExecutionTimeMicros,
        ]),
        threads in prop::sample::select(vec![1usize, 2, 8]),
        squeeze_cache in any::<bool>(),
    ) {
        let skeleton = &SKELETONS[skeleton_idx];
        let db = (skeleton.db)();
        let template = parse_template(skeleton.sql).expect("skeleton SQL parses");

        let mut batch: Vec<HashMap<u32, Value>> = rows_raw
            .iter()
            .map(|(raw, null_mask)| binding_row(skeleton.kinds, raw, *null_mask))
            .collect();
        batch.push(batch[0].clone()); // in-batch duplicate: memo-hit dedup

        let capacity = if squeeze_cache { 2 } else { 1024 };
        let oracle = CostOracle::new(db, threads).with_cache_capacity(capacity);
        let handle = match oracle.prepare(&template) {
            Ok(handle) => handle,
            Err(refused) => {
                // A statically invalid template is refused up front with
                // the error every binding's own execution reports.
                for bindings in &batch {
                    let query = template.instantiate(bindings).expect("rows bind every placeholder");
                    prop_assert_eq!(query_cost(db, &query, cost_type), Err(refused.clone()));
                }
                return Ok(());
            }
        };
        let mut scratch = ColumnarScratch::new();
        let results = oracle.cost(threads, &handle, &batch, cost_type, &mut scratch);

        prop_assert_eq!(results.len(), batch.len());
        for (bindings, got) in batch.iter().zip(results) {
            let query = template.instantiate(bindings).expect("rows bind every placeholder");
            match (query_cost(db, &query, cost_type), got) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y),
                (Err(x), Err(y)) => prop_assert_eq!(&x, y),
                (want, got) => prop_assert!(false, "ok/err mismatch: {:?} vs {:?}", want, got),
            }
        }
        let n = batch.len() as u64;
        let evals = if cost_type == CostType::ExecutionTimeMicros {
            n
        } else {
            batch
                .iter()
                .map(|row| {
                    let mut key: Vec<(u32, String)> =
                        row.iter().map(|(id, v)| (*id, format!("{v:?}"))).collect();
                    key.sort();
                    key
                })
                .collect::<HashSet<_>>()
                .len() as u64
        };
        let stats = oracle.stats();
        prop_assert_eq!(stats.logical_probes, n);
        prop_assert_eq!(stats.physical_evals, evals);
        prop_assert_eq!(stats.prepared_hits, n - evals);
    }

    /// Thread-count invariance: `cost` on execution-based cost types returns
    /// identical bits and identical stats at 1, 2, and 8 threads.
    #[test]
    fn oracle_columnar_execution_is_thread_invariant(
        skeleton_idx in 0usize..SKELETONS.len(),
        rows_raw in rows_strategy(9),
        cost_type in prop::sample::select(vec![
            CostType::ActualCardinality,
            CostType::ExecutionTimeMicros,
        ]),
    ) {
        let skeleton = &SKELETONS[skeleton_idx];
        let db = (skeleton.db)();
        let template = parse_template(skeleton.sql).expect("skeleton SQL parses");
        let batch: Vec<HashMap<u32, Value>> = rows_raw
            .iter()
            .map(|(raw, null_mask)| binding_row(skeleton.kinds, raw, *null_mask))
            .collect();

        if let Err(refused) = CostOracle::new(db, 1).prepare(&template) {
            // Refused at prepare (statically invalid), whatever the width.
            for threads in [2usize, 8] {
                prop_assert_eq!(
                    CostOracle::new(db, threads).prepare(&template).err(),
                    Some(refused.clone())
                );
            }
            return Ok(());
        }
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let oracle = CostOracle::new(db, threads).with_cache_capacity(2);
                let handle = oracle.prepare(&template).expect("prepare");
                let mut scratch = ColumnarScratch::new();
                let results =
                    oracle.cost(threads, &handle, &batch, cost_type, &mut scratch).to_vec();
                (results, oracle.stats())
            })
            .collect();

        for run in &runs[1..] {
            prop_assert_eq!(run.0.len(), runs[0].0.len());
            for (a, b) in runs[0].0.iter().zip(run.0.iter()) {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            prop_assert_eq!(&run.1, &runs[0].1, "stats diverged across threads");
        }
    }
}
