//! Vectorized-executor micro-benchmark: executing many *distinct*
//! bindings of a single template, two ways —
//!
//! * `execute_per_query`: instantiate + `Database::execute` per binding
//!   (row-at-a-time scan, filter, and materialization — what every
//!   execution-based probe cost before the batch executor);
//! * `execute_batch`: `PreparedExec::execute_batch` — plan once,
//!   evaluate binding-dependent predicates as selection vectors over
//!   the columnar storage, replay the output phase analytically, no row
//!   materialization, caller-owned scratch (zero steady-state
//!   allocation).
//!
//! Distinct bindings are the case the oracle's binding-key memo cannot
//! help with, so per-query vs batch is the honest measure of the
//! vectorized path. Two templates, one table each: a single-table scan
//! and a two-table equi-join (the join counts matches through dense key
//! ids instead of building joined rows). The printed tables are the
//! source of the numbers in EXPERIMENTS.md.

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use minidb::{BindingBatch, Database, ExecScratch, PreparedExec};
use sqlkit::{parse_template, Template, Value};
use std::collections::HashMap;
use std::time::Instant;

const N_BINDINGS: usize = 256;

/// `(label, template SQL, minimum release-build batch speedup)`.
const TEMPLATES: [(&str, &str, f64); 2] = [
    (
        "single-table",
        "SELECT l.l_orderkey FROM lineitem AS l \
         WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        3.0,
    ),
    (
        "two-table equi-join",
        "SELECT t1.ps_supplycost FROM partsupp AS t1 \
         JOIN part AS t2 ON t1.ps_partkey = t2.p_partkey \
         WHERE t1.ps_availqty > {p_1} AND t1.ps_supplycost <= {p_2} \
         ORDER BY t1.ps_supplycost DESC",
        10.0,
    ),
];

fn bindings() -> Vec<HashMap<u32, Value>> {
    (0..N_BINDINGS)
        .map(|i| {
            HashMap::from([
                (1, Value::Int((i % 50) as i64)),
                (2, Value::Float(900.0 + i as f64 * 37.0)),
            ])
        })
        .collect()
}

fn execute_per_query(db: &Database, template: &Template, binding: &HashMap<u32, Value>) {
    let query = template.instantiate(binding).expect("binding complete");
    std::hint::black_box(db.execute(&query).expect("executes"));
}

fn speedup_table(
    db: &Database,
    label: &str,
    template: &Template,
    points: &[HashMap<u32, Value>],
    min_speedup: f64,
) {
    let exec = PreparedExec::prepare(db, template);
    assert_eq!(exec.tier(), "columnar", "bench template must take the kernel tier");

    let start = Instant::now();
    for binding in points {
        execute_per_query(db, template, binding);
    }
    let per_query = start.elapsed();

    // Batch: one warm-up to size the arenas, then measure.
    let ids: Vec<u32> = vec![1, 2];
    let batch = BindingBatch::from_rows(&ids, points).expect("bindings complete");
    let mut scratch = ExecScratch::new();
    std::hint::black_box(exec.execute_batch(db, &batch, &mut scratch).expect("executes"));
    let start = Instant::now();
    std::hint::black_box(exec.execute_batch(db, &batch, &mut scratch).expect("executes"));
    let batch_time = start.elapsed();

    let per_probe = |d: std::time::Duration| d.as_nanos() as f64 / points.len() as f64;
    let batch_speedup = per_query.as_secs_f64() / batch_time.as_secs_f64();
    println!(
        "\nexec_batch: {} distinct bindings of one {label} template, tiny TPC-H",
        points.len()
    );
    println!("{:<22} {:>14} {:>12}", "path", "ns/probe", "speedup");
    println!("{:<22} {:>14.0} {:>11.2}x", "execute_per_query", per_probe(per_query), 1.0);
    println!(
        "{:<22} {:>14.0} {:>11.2}x",
        "execute_batch_256",
        per_probe(batch_time),
        batch_speedup
    );
    // Regression gate for the vectorized executor: a 256-binding batch
    // must beat 256 per-query executes by the template's floor — 3x for
    // the single-table scan, 10x for the join (typically well beyond;
    // see EXPERIMENTS.md). Debug builds run the scalar cross-check
    // inside execute_batch, so only release numbers count.
    #[cfg(not(debug_assertions))]
    assert!(
        batch_speedup >= min_speedup,
        "vectorized execute_batch only {batch_speedup:.2}x over per-query execute \
         on the {label} template (floor {min_speedup}x)"
    );
    #[cfg(debug_assertions)]
    let _ = (batch_speedup, min_speedup);
}

fn bench(c: &mut Criterion) {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let points = bindings();
    for (label, sql, min_speedup) in TEMPLATES {
        let template = parse_template(sql).expect("template parses");
        speedup_table(&db, label, &template, &points, min_speedup);

        let prefix = if label == "single-table" { "exec" } else { "exec/join" };
        c.bench_function(&format!("{prefix}/execute_per_query"), |bencher| {
            bencher.iter(|| {
                for binding in &points {
                    execute_per_query(&db, &template, binding);
                }
            })
        });
        c.bench_function(&format!("{prefix}/execute_batch_256"), |bencher| {
            let exec = PreparedExec::prepare(&db, &template);
            let ids: Vec<u32> = vec![1, 2];
            let batch = BindingBatch::from_rows(&ids, &points).expect("bindings complete");
            let mut scratch = ExecScratch::new();
            bencher.iter(|| {
                std::hint::black_box(
                    exec.execute_batch(&db, &batch, &mut scratch).expect("executes"),
                );
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
