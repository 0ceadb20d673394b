//! Cost-oracle micro-benchmark: probes/second for batched
//! [`CostOracle::cost`] calls at 1 vs N worker threads, with a cold and a
//! warm memo cache.
//!
//! The cold rows measure parallel recost throughput (every probe reaches
//! the prepared plan); the warm rows measure pure cache-hit service time.
//! The printed table is the source of the numbers quoted in EXPERIMENTS.md.

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use sqlbarber::oracle::{ColumnarScratch, CostOracle};
use sqlbarber::CostType;
use sqlkit::{Template, Value};
use std::collections::HashMap;
use std::time::Instant;

const N_PROBES: usize = 512;

fn template() -> Template {
    sqlkit::parse_template(
        "SELECT l.l_orderkey FROM lineitem AS l \
         WHERE l.l_extendedprice > {p_1} AND l.l_quantity <= {p_2}",
    )
    .expect("template parses")
}

fn probes() -> Vec<HashMap<u32, Value>> {
    // Distinct bindings → no two probes share a memo entry, so a cold
    // batch does N_PROBES physical recosts.
    (0..N_PROBES)
        .map(|i| {
            HashMap::from([
                (1, Value::Int(100 + i as i64 * 17)),
                (2, Value::Int(1 + (i % 50) as i64)),
            ])
        })
        .collect()
}

/// Cost `batch` on `oracle`'s full thread budget.
fn cost_all(oracle: &CostOracle, template: &Template, batch: &[HashMap<u32, Value>]) -> usize {
    let handle = oracle.prepare(template).expect("template prepares");
    let mut scratch = ColumnarScratch::new();
    let costs = oracle.cost(oracle.threads(), &handle, batch, CostType::PlanCost, &mut scratch);
    costs.iter().filter(|c| c.is_ok()).count()
}

fn throughput_table(db: &minidb::Database, template: &Template, batch: &[HashMap<u32, Value>]) {
    let n_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\noracle_throughput: {N_PROBES} distinct probes, PlanCost, tiny TPC-H");
    println!("{:<10} {:>8} {:>16} {:>16}", "cache", "threads", "probes/s", "speedup");
    let mut serial_cold = None;
    for &threads in &[1usize, n_cores] {
        // Cold: fresh oracle, every probe is recosted.
        let oracle = CostOracle::new(db, threads);
        let start = Instant::now();
        let ok = cost_all(&oracle, template, batch);
        let cold = N_PROBES as f64 / start.elapsed().as_secs_f64();
        assert_eq!(ok, N_PROBES);
        let baseline = *serial_cold.get_or_insert(cold);
        println!(
            "{:<10} {:>8} {:>16.0} {:>15.2}x",
            "cold", threads, cold, cold / baseline
        );
        // Warm: same oracle again — pure cache hits.
        let start = Instant::now();
        let ok = cost_all(&oracle, template, batch);
        let warm = N_PROBES as f64 / start.elapsed().as_secs_f64();
        assert_eq!(ok, N_PROBES);
        println!(
            "{:<10} {:>8} {:>16.0} {:>15.2}x",
            "warm", threads, warm, warm / baseline
        );
        let stats = oracle.stats();
        assert_eq!(stats.physical_evals as usize, N_PROBES);
        assert_eq!(stats.cache_hits as usize, N_PROBES);
    }
}

fn bench(c: &mut Criterion) {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let template = template();
    let batch = probes();
    throughput_table(&db, &template, &batch);

    let n_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for threads in [1usize, n_cores] {
        c.bench_function(&format!("oracle/cold_batch_{threads}t"), |bencher| {
            bencher.iter(|| {
                let oracle = CostOracle::new(&db, threads);
                std::hint::black_box(cost_all(&oracle, &template, &batch))
            })
        });
    }
    c.bench_function("oracle/warm_batch", |bencher| {
        let oracle = CostOracle::new(&db, 1);
        cost_all(&oracle, &template, &batch);
        bencher.iter(|| std::hint::black_box(cost_all(&oracle, &template, &batch)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
