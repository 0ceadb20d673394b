//! Random-forest surrogate micro-benchmark on the training-set shapes the
//! BO predicate search (Algorithm 3) actually fits.
//!
//! A run of Table-1 `Redset_Cost_Medium` fits the surrogate ~365 times
//! per input on histories of 14/50/138 rows (p10/p50/p90) with a tail to
//! ~500, over 1–2 placeholder dimensions. The objective is Eq. (5)'s
//! distance to the target interval, so most `y` values are exactly zero.
//! The printed table replays those shapes (plus 315 rows for the tail)
//! and reports µs per `RandomForest::fit` (default config: 25 trees, one
//! thread) and µs per 200-candidate expected-improvement pass — the two
//! halves of an `Optimizer::ask` refit. EXPERIMENTS.md records the
//! numbers.

// Wall-clock timing is this harness's entire purpose; detlint
// exempts crates/bench/ from R2 for the same reason.
#![allow(clippy::disallowed_methods)]

use bayesopt::forest::{ForestConfig, RandomForest};
use bayesopt::optimizer::expected_improvement;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const ROWS: [usize; 4] = [14, 50, 138, 315];
const CANDIDATES: usize = 200;

/// A training set of `n` unit-cube points in `d` dimensions whose
/// objective is the distance of a smooth cost surface to an interval
/// covering about two thirds of its range (so ~2/3 of `y` is 0.0).
fn training_set(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let y = x
        .iter()
        .map(|p| {
            let cost = 5000.0 * p.iter().map(|v| v * v).sum::<f64>() / d as f64;
            (800.0 - cost).max(cost - 4000.0).max(0.0)
        })
        .collect();
    (x, y)
}

fn candidates(d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CANDIDATES)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect()
}

fn ei_pass(forest: &RandomForest, points: &[Vec<f64>], best: f64) -> f64 {
    points
        .iter()
        .map(|p| expected_improvement(forest, p, best))
        .fold(0.0, f64::max)
}

fn table() {
    const FITS: u64 = 40;
    println!("\nsurrogate_fit: default ForestConfig (25 trees, 1 thread), interval-objective y");
    println!(
        "{:>5} {:>4} {:>12} {:>16}",
        "rows", "dims", "µs/fit", "µs/200-EI pass"
    );
    for d in 1..=2 {
        for n in ROWS {
            let sets: Vec<_> = (0..FITS).map(|s| training_set(n, d, s)).collect();
            let start = Instant::now();
            let forests: Vec<RandomForest> = sets
                .iter()
                .enumerate()
                .map(|(s, (x, y))| {
                    RandomForest::fit(
                        x,
                        y,
                        ForestConfig {
                            seed: s as u64,
                            ..Default::default()
                        },
                    )
                })
                .collect();
            let fit_us = start.elapsed().as_secs_f64() * 1e6 / FITS as f64;
            let points = candidates(d, 99);
            let start = Instant::now();
            for forest in &forests {
                std::hint::black_box(ei_pass(forest, &points, 0.0));
            }
            let ei_us = start.elapsed().as_secs_f64() * 1e6 / FITS as f64;
            println!("{n:>5} {d:>4} {fit_us:>12.1} {ei_us:>16.1}");
        }
    }
}

fn bench(c: &mut Criterion) {
    table();
    for (n, d) in [(50, 1), (138, 2)] {
        let (x, y) = training_set(n, d, 7);
        c.bench_function(&format!("bayesopt/surrogate_fit_{n}x{d}"), |b| {
            b.iter(|| std::hint::black_box(RandomForest::fit(&x, &y, ForestConfig::default())))
        });
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let points = candidates(d, 8);
        c.bench_function(&format!("bayesopt/ei_pass_200_{n}x{d}"), |b| {
            b.iter(|| std::hint::black_box(ei_pass(&forest, &points, 0.0)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
