//! Throwaway measurement: heap allocations per warm prepared-memo lookup.
//! (Used to record the before/after numbers for EXPERIMENTS.md.)
//!
//! Default mode probes one binding at a time (1-row `CostOracle::cost`
//! calls); `--batch 256` (any size) additionally measures a multi-row
//! call, reporting amortized allocations per probe — both with a reused
//! [`ColumnarScratch`];
//! `--amplify` measures the warm amplification emission loop (draw →
//! decode → columnar recost → render → stream) over one million emitted
//! queries, asserting 0.000 allocs/query — which simultaneously
//! demonstrates bounded memory at N = 1M (nothing proportional to the
//! workload is retained); `--exec-batch 256` measures the vectorized
//! executor (`PreparedExec::execute_batch`) warm path with a reused
//! [`ExecScratch`], asserting 0.000 allocs/probe in release builds
//! (debug builds run the per-row scalar cross-check, which allocates
//! by design); `--surrogate` measures the random-forest surrogate,
//! asserting 0 allocations per warm `RandomForest::predict` and that
//! `RandomForest::fit` allocates per tree and per feature, never per
//! node.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlbarber::amplify::{Lane, PairContext, DEFAULT_BATCH};
use sqlbarber::oracle::{ColumnarScratch, CostOracle};
use sqlbarber::profiler::profile_template;
use sqlbarber::CostType;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: `Counting` is a stateless pass-through to the System allocator
// — it only bumps an atomic counter — so every GlobalAlloc invariant
// (layout fidelity, no unwinding, pointer provenance) is exactly
// System's.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System.alloc`; callers pass a valid
    // nonzero-size layout, which is forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` comes from our caller, who upholds the
        // GlobalAlloc contract we share with System.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: same contract as `System.dealloc`; `ptr` must have come
    // from this allocator (which always delegates to System).
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `System.alloc` via `alloc` above
        // and is returned with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn main() {
    let db = minidb::datagen::tpch::generate(minidb::datagen::tpch::TpchConfig::tiny());
    let oracle = CostOracle::new(&db, 1);
    let template = sqlkit::parse_template(
        "SELECT c.c_custkey FROM customer AS c WHERE c.c_mktsegment = {p_1} AND c.c_acctbal > {p_2}",
    )
    .unwrap();
    let space = sqlbarber::sampler::PlaceholderSpace::build(&db, &template);
    let handle = oracle.prepare(&template).unwrap();
    // Distinct bindings, costed once to warm the memo.
    let bindings: Vec<_> = (0..256)
        .map(|i| space.decode(&[(i % 5) as f64 / 5.0, (i as f64) / 256.0]))
        .collect();
    let mut scratch = ColumnarScratch::new();
    let mut cost_one = |b| {
        let results =
            oracle.cost(1, &handle, std::slice::from_ref(b), CostType::Cardinality, &mut scratch);
        assert!(results[0].is_ok());
    };
    for b in &bindings {
        cost_one(b);
    }
    // Measure: warm lookups only (every probe is a binding-key cache hit).
    const ROUNDS: u64 = 100;
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        for b in &bindings {
            cost_one(b);
        }
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    let per = (after - before) as f64 / (ROUNDS * bindings.len() as u64) as f64;
    println!("allocs per warm prepared lookup: {per:.2}");
    let stats = oracle.stats();
    println!("hits {} misses {}", stats.prepared_hits, stats.prepared_misses);

    // `--batch N`: amortized allocations per probe through the columnar
    // batch path, scratch reused across rounds (first warm batch sizes
    // the arenas; steady state should be ~0).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let batch_size = args
        .iter()
        .position(|a| a == "--batch")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    if let Some(batch_size) = batch_size {
        let batch: Vec<_> = bindings.iter().take(batch_size).cloned().collect();
        let mut scratch = ColumnarScratch::new();
        // Warm call: grows the scratch arenas to this batch's size.
        oracle.cost(1, &handle, &batch, CostType::Cardinality, &mut scratch);
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..ROUNDS {
            let results = oracle.cost(1, &handle, &batch, CostType::Cardinality, &mut scratch);
            assert_eq!(results.len(), batch.len());
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        let per = (after - before) as f64 / (ROUNDS * batch.len() as u64) as f64;
        println!("allocs per warm columnar batch probe (batch {}): {per:.3}", batch.len());
    }

    // `--exec-batch N`: amortized allocations per probe through the
    // vectorized executor, batch and scratch reused across rounds. The
    // zero-alloc assertion is release-only: debug builds cross-check
    // every batch row against scalar `Database::execute`, which
    // instantiates and materializes per row by design.
    let exec_batch_size = args
        .iter()
        .position(|a| a == "--exec-batch")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    if let Some(batch_size) = exec_batch_size {
        let template = sqlkit::parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        )
        .unwrap();
        let exec = minidb::PreparedExec::prepare(&db, &template);
        assert_eq!(exec.tier(), "columnar", "probe template must take the kernel tier");
        let rows: Vec<std::collections::HashMap<u32, sqlkit::Value>> = (0..batch_size)
            .map(|i| {
                [
                    (1u32, sqlkit::Value::Int((i % 50) as i64)),
                    (2u32, sqlkit::Value::Float(900.0 + i as f64 * 37.0)),
                ]
                .into_iter()
                .collect()
            })
            .collect();
        let batch = minidb::BindingBatch::from_rows(&[1, 2], &rows).unwrap();
        let mut scratch = minidb::ExecScratch::new();
        // Warm call: grows the selection vectors and result arena.
        exec.execute_batch(&db, &batch, &mut scratch).unwrap();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..ROUNDS {
            let results = exec.execute_batch(&db, &batch, &mut scratch).unwrap();
            assert_eq!(results.len(), batch.len());
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        let per = (after - before) as f64 / (ROUNDS * batch.len() as u64) as f64;
        println!("allocs per warm exec-batch probe (batch {}): {per:.3}", batch.len());
        if cfg!(not(debug_assertions)) {
            assert!(per < 0.0005, "warm exec-batch loop allocated {per:.5}/probe");
        }
    }

    if args.iter().any(|a| a == "--surrogate") {
        surrogate_probe();
    }

    // `--amplify`: allocations per emitted query in the warm amplification
    // loop — one million queries drawn, recosted, rendered, and streamed
    // to a sink through per-batch scratch only. Numeric placeholders keep
    // decode alloc-free (string dimensions clone their MCV by design).
    if args.iter().any(|a| a == "--amplify") {
        let template = sqlkit::parse_template(
            "SELECT l.l_orderkey FROM lineitem AS l \
             WHERE l.l_quantity > {p_1} AND l.l_extendedprice <= {p_2}",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let profiled = profile_template(&oracle, template, CostType::Cardinality, 64, &mut rng);
        let max = profiled.costs.iter().fold(0.0f64, |a, &b| a.max(b));
        let intervals = workload::CostIntervals::new(0.0, (max * 1.05).max(1.0), 5);
        // Fit against the densest interval so the accept rate is high.
        let mut conforming = [0usize; 5];
        for eval in &profiled.evaluations {
            if let Some(j) = intervals.interval_of(eval.value) {
                conforming[j] += 1;
            }
        }
        let interval = conforming
            .iter()
            .enumerate()
            .max_by_key(|(_, &n)| n)
            .map(|(j, _)| j)
            .unwrap();
        let handle = oracle.prepare(&profiled.template).unwrap();
        let ctx =
            PairContext::new(&profiled, handle, CostType::Cardinality, intervals, interval)
                .expect("densest interval has conforming probes");
        let mut lane = Lane::new();
        let mut writer = workload::StreamingSqlWriter::new(std::io::sink());
        let run_batch = |lane: &mut Lane,
                             writer: &mut workload::StreamingSqlWriter<std::io::Sink>,
                             b: u64| {
            lane.run(&db, &ctx, bayesopt::parallel::split_seed(9, b), DEFAULT_BATCH)
                .expect("recosts");
            let accepted = lane.accepts().len();
            writer
                .write_records(lane.accepted_chunk(accepted), accepted as u64)
                .expect("sink never fails");
            accepted as u64
        };
        // Warm-up: grow the lane arenas and the record string.
        let mut batch_index = 0u64;
        for _ in 0..4 {
            run_batch(&mut lane, &mut writer, batch_index);
            batch_index += 1;
        }
        const TARGET: u64 = 1_000_000;
        let mut emitted = 0u64;
        let before = ALLOCS.load(Ordering::Relaxed);
        while emitted < TARGET {
            emitted += run_batch(&mut lane, &mut writer, batch_index);
            batch_index += 1;
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        let per = (after - before) as f64 / emitted as f64;
        println!("allocs per warm amplified query ({emitted} emitted): {per:.3}");
        assert!(per < 0.0005, "warm amplification loop allocated {per:.5}/query");
    }
}

/// `--surrogate`: the BO surrogate's allocation profile. A warm
/// `predict` (the EI scoring inner loop) must not allocate at all, and a
/// single-threaded `fit` must allocate a fixed number of buffers per
/// tree and per feature: the count may not move when more rows make the
/// trees grow more nodes.
fn surrogate_probe() {
    use bayesopt::forest::{ForestConfig, RandomForest};
    use rand::Rng;
    let training_set = |n: usize, d: usize| {
        let mut rng = StdRng::seed_from_u64(5);
        let x: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.gen::<f64>()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|p| (p.iter().sum::<f64>() * 7.0).sin()).collect();
        (x, y)
    };
    let fit_allocs = |n: usize, d: usize, n_trees: usize| {
        let (x, y) = training_set(n, d);
        let config = ForestConfig { n_trees, threads: 1, ..ForestConfig::default() };
        let before = ALLOCS.load(Ordering::Relaxed);
        let forest = RandomForest::fit(&x, &y, config);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        std::hint::black_box(forest);
        allocs
    };
    let base = fit_allocs(50, 2, 25);
    let more_rows = fit_allocs(400, 2, 25);
    let more_trees = fit_allocs(50, 2, 50);
    let more_features = fit_allocs(50, 4, 25);
    println!(
        "allocs per fit: 50 rows x 2 dims x 25 trees {base}, 400 rows {more_rows}, \
         50 trees {more_trees}, 4 dims {more_features}"
    );
    assert_eq!(base, more_rows, "fit allocations grew with the node count");
    assert!(more_trees > base, "fit allocations did not scale with trees");
    // At most one buffer per added feature per tree, plus one per fit.
    assert!(
        more_features <= base + 2 * (25 + 1),
        "fit allocations grew faster than per tree and feature"
    );

    let (x, y) = training_set(138, 2);
    let forest = RandomForest::fit(&x, &y, ForestConfig::default());
    let points: Vec<[f64; 2]> =
        (0..1000).map(|i| [(i % 37) as f64 / 37.0, (i % 101) as f64 / 101.0]).collect();
    std::hint::black_box(forest.predict(&points[0]));
    let before = ALLOCS.load(Ordering::Relaxed);
    for point in &points {
        std::hint::black_box(forest.predict(point));
    }
    let per = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / points.len() as f64;
    println!("allocs per warm surrogate predict ({} points): {per:.3}", points.len());
    assert!(per == 0.0, "warm RandomForest::predict allocated {per:.3}/call");
}
