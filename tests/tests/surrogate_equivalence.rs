//! Bit-exactness gate for the random-forest surrogate.
//!
//! `bayesopt::forest` fits its trees with presorted features, partitioned
//! sample lists, one-sweep threshold scoring and a preorder node arena.
//! Every BO proposal — and so every generated query — depends on what
//! that forest predicts, so it must agree bit for bit with the plain
//! recursive CART formulation kept below as the reference: same bootstrap
//! draws, same feature subsets, same float sums in the same order, same
//! splits, same leaf means.

use bayesopt::forest::{ForestConfig, RandomForest};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The recursive random forest the arena forest replaced, kept verbatim
/// (boxed trees, a sort per node and feature, two index scans per
/// candidate threshold) as the reference implementation.
#[rustfmt::skip]
mod reference {
    use bayesopt::forest::ForestConfig;
    use bayesopt::parallel::{parallel_map, split_seed};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub struct RandomForest {
        trees: Vec<Tree>,
    }

    enum Tree {
        Leaf(f64),
        Node { feature: usize, threshold: f64, left: Box<Tree>, right: Box<Tree> },
    }

    impl RandomForest {
        pub fn fit(x: &[Vec<f64>], y: &[f64], config: ForestConfig) -> RandomForest {
            assert_eq!(x.len(), y.len(), "x/y length mismatch");
            assert!(!x.is_empty(), "empty training set");
            let n = x.len();
            let tree_ids: Vec<u64> = (0..config.n_trees as u64).collect();
            let trees = parallel_map(config.threads.max(1), &tree_ids, |_, &tree| {
                let mut rng = StdRng::seed_from_u64(split_seed(config.seed, tree));
                // Bootstrap sample.
                let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                build_tree(x, y, &indices, 0, &config, &mut rng)
            });
            RandomForest { trees }
        }

        pub fn predict(&self, point: &[f64]) -> (f64, f64) {
            let predictions: Vec<f64> =
                self.trees.iter().map(|t| predict_tree(t, point)).collect();
            let n = predictions.len() as f64;
            let mean = predictions.iter().sum::<f64>() / n;
            let variance =
                predictions.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
            (mean, variance.sqrt())
        }
    }

    fn build_tree(
        x: &[Vec<f64>],
        y: &[f64],
        indices: &[usize],
        depth: usize,
        config: &ForestConfig,
        rng: &mut StdRng,
    ) -> Tree {
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
        if depth >= config.max_depth || indices.len() < 2 * config.min_leaf {
            return Tree::Leaf(mean);
        }
        let variance =
            indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum::<f64>();
        if variance < 1e-12 {
            return Tree::Leaf(mean);
        }

        let d = x[0].len();
        if d == 0 {
            return Tree::Leaf(mean);
        }
        let n_features = ((d as f64 * config.feature_fraction).ceil() as usize).clamp(1, d);
        // Random feature subset without replacement (d is small).
        let mut features: Vec<usize> = (0..d).collect();
        for i in 0..n_features {
            let j = rng.gen_range(i..d);
            features.swap(i, j);
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in &features[..n_features] {
            let mut values: Vec<f64> = indices.iter().map(|&i| x[i][feature]).collect();
            values.sort_by(|a, b| a.total_cmp(b));
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            // Try up to 12 candidate thresholds (midpoints).
            let step = (values.len() - 1).max(1) as f64 / 12.0;
            let mut tried = std::collections::BTreeSet::new();
            for k in 0..12 {
                let idx = ((k as f64 * step) as usize).min(values.len() - 2);
                if !tried.insert(idx) {
                    continue;
                }
                let threshold = (values[idx] + values[idx + 1]) / 2.0;
                let (mut ln, mut ls, mut rn, mut rs) = (0usize, 0.0f64, 0usize, 0.0f64);
                for &i in indices {
                    if x[i][feature] <= threshold {
                        ln += 1;
                        ls += y[i];
                    } else {
                        rn += 1;
                        rs += y[i];
                    }
                }
                if ln < config.min_leaf || rn < config.min_leaf {
                    continue;
                }
                let (lm, rm) = (ls / ln as f64, rs / rn as f64);
                let mut sse = 0.0;
                for &i in indices {
                    let m = if x[i][feature] <= threshold { lm } else { rm };
                    sse += (y[i] - m) * (y[i] - m);
                }
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((feature, threshold, sse));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return Tree::Leaf(mean);
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x[i][feature] <= threshold);
        Tree::Node {
            feature,
            threshold,
            left: Box::new(build_tree(x, y, &left_idx, depth + 1, config, rng)),
            right: Box::new(build_tree(x, y, &right_idx, depth + 1, config, rng)),
        }
    }

    fn predict_tree(tree: &Tree, point: &[f64]) -> f64 {
        match tree {
            Tree::Leaf(v) => *v,
            Tree::Node { feature, threshold, left, right } => {
                if point[*feature] <= *threshold {
                    predict_tree(left, point)
                } else {
                    predict_tree(right, point)
                }
            }
        }
    }
}

/// One generated fitting problem.
#[derive(Debug, Clone)]
struct Case {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    config: ForestConfig,
    /// Points to predict at besides the training rows.
    probes: Vec<Vec<f64>>,
}

/// How a generated column draws its values.
#[derive(Debug, Clone, Copy)]
enum ColumnKind {
    /// Uniform in [0, 1).
    Uniform,
    /// Signed values over six decades, so midpoints round (uniform [0, 1)
    /// draws are multiples of 2^-53 and their sums are mostly exact).
    Wide,
    /// A handful of levels, so most values tie.
    Tied,
    /// One value for every row.
    Constant,
    /// ±0.0 and a few small values around them.
    SignedZeros,
    /// Pairs of adjacent floats `(a, next_up(a))`, including pairs whose
    /// midpoint rounds to the upper value, so the threshold equals a
    /// data value and both sides of it compare `<=`.
    AdjacentFloats,
}

fn column_value(kind: ColumnKind, rng: &mut TestRng, constant: f64, pairs: &[f64]) -> f64 {
    match kind {
        ColumnKind::Uniform => rng.unit_f64(),
        ColumnKind::Wide => (rng.unit_f64() - 0.3) * [1e-3, 0.1, 7.0, 1e3][rng.below(4) as usize],
        ColumnKind::Tied => [0.0, 0.25, 0.5, 1.0][rng.below(4) as usize],
        ColumnKind::Constant => constant,
        ColumnKind::SignedZeros => [0.0, -0.0, -0.0, 0.0, 1e-300, 0.5][rng.below(6) as usize],
        ColumnKind::AdjacentFloats => {
            let a = pairs[rng.below(pairs.len() as u64) as usize];
            if rng.coin(0.5) {
                a
            } else {
                a.next_up()
            }
        }
    }
}

/// Bases `a` whose midpoint with `next_up(a)` rounds to the upper value
/// (the sum `2a + ulp` ties to even upward), mixed with ones that round
/// down.
fn adjacent_bases(rng: &mut TestRng) -> Vec<f64> {
    let mut rounds_up = Vec::new();
    let mut rounds_down = Vec::new();
    while rounds_up.len() < 2 || rounds_down.len() < 2 {
        let a = rng.unit_f64() * 0.9 + 0.05;
        let b = a.next_up();
        let mid = (a + b) / 2.0;
        if mid == b && rounds_up.len() < 2 {
            rounds_up.push(a);
        } else if mid == a && rounds_down.len() < 2 {
            rounds_down.push(a);
        }
    }
    rounds_up.extend(rounds_down);
    rounds_up
}

/// Rows skew small (most BO histories hold 14–140 points) with a tail to
/// 600; `y` is often an interval objective: mostly exact zeros.
fn case_strategy(tree_range: (usize, usize)) -> BoxedStrategy<Case> {
    BoxedStrategy::from_fn(move |rng: &mut TestRng| {
        let n = match rng.below(10) {
            0..=5 => rng.usize_in(1, 60),
            6..=8 => rng.usize_in(61, 200),
            _ => rng.usize_in(201, 600),
        };
        let d = rng.usize_in(0, 4);
        let pairs = adjacent_bases(rng);
        let kinds: Vec<(ColumnKind, f64)> = (0..d)
            .map(|_| {
                let kind = match rng.below(7) {
                    0 => ColumnKind::Uniform,
                    1 => ColumnKind::Wide,
                    2 => ColumnKind::Tied,
                    3 => ColumnKind::Constant,
                    4 => ColumnKind::SignedZeros,
                    5 => ColumnKind::AdjacentFloats,
                    _ => ColumnKind::Uniform,
                };
                (kind, rng.unit_f64())
            })
            .collect();
        // Heavy duplicates: sometimes draw rows from a small pool, so the
        // bootstrap sample repeats identical points many times over.
        let pool = if rng.coin(0.3) { rng.usize_in(1, 5) } else { n };
        let pool_rows: Vec<Vec<f64>> = (0..pool)
            .map(|_| {
                kinds
                    .iter()
                    .map(|&(kind, c)| column_value(kind, rng, c, &pairs))
                    .collect()
            })
            .collect();
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| pool_rows[rng.below(pool as u64) as usize].clone())
            .collect();
        let zero_share = [0.0, 0.6, 0.9, 1.0][rng.below(4) as usize];
        let y: Vec<f64> = (0..n)
            .map(|_| {
                if rng.coin(zero_share) {
                    if rng.coin(0.2) {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    match rng.below(8) {
                        0 => 1.0,
                        1 => -0.0,
                        _ => (rng.unit_f64() - 0.3) * 1000.0,
                    }
                }
            })
            .collect();
        let config = ForestConfig {
            n_trees: rng.usize_in(tree_range.0, tree_range.1),
            max_depth: rng.usize_in(0, 14),
            min_leaf: rng.usize_in(0, 5),
            feature_fraction: [0.3, 0.5, 0.7, 1.0][rng.below(4) as usize],
            seed: rng.next_u64(),
            threads: [1, 2, 4][rng.below(3) as usize],
        };
        // Each column's distinct values, ascending: probing at the midpoint
        // of two neighbours lands exactly on a candidate threshold.
        let levels: Vec<Vec<f64>> = (0..d)
            .map(|f| {
                let mut values: Vec<f64> = x.iter().map(|row| row[f]).collect();
                values.sort_by(f64::total_cmp);
                values.dedup();
                values
            })
            .collect();
        let probes: Vec<Vec<f64>> = (0..48)
            .map(|_| {
                (0..d)
                    .map(|f| {
                        let base = x[rng.below(n as u64) as usize][f];
                        let level = &levels[f];
                        match rng.below(5) {
                            0 => base.next_up(),
                            1 => base.next_down(),
                            2 => rng.unit_f64(),
                            3 if level.len() > 1 => {
                                let k = rng.below(level.len() as u64 - 1) as usize;
                                (level[k] + level[k + 1]) / 2.0
                            }
                            _ => base,
                        }
                    })
                    .collect()
            })
            .collect();
        Case {
            x,
            y,
            config,
            probes,
        }
    })
}

/// Fit both forests and compare `(mean, sigma)` bits at every training
/// row and probe.
fn check(case: &Case) -> Result<(), TestCaseError> {
    let expected = reference::RandomForest::fit(&case.x, &case.y, case.config);
    let actual = RandomForest::fit(&case.x, &case.y, case.config);
    prop_assert_eq!(actual.n_trees(), case.config.n_trees);
    for point in case.x.iter().chain(&case.probes) {
        let (em, es) = expected.predict(point);
        let (am, asd) = actual.predict(point);
        prop_assert_eq!(
            (am.to_bits(), asd.to_bits()),
            (em.to_bits(), es.to_bits()),
            "at {:?}: arena forest ({}, {}) vs reference ({}, {}); config {:?}, {} rows",
            point,
            am,
            asd,
            em,
            es,
            case.config,
            case.x.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// 1–600 rows, 0–4 dims, 1–40 trees, 1/2/4 threads.
    #[test]
    fn arena_forest_matches_the_recursive_reference(case in case_strategy((1, 40))) {
        check(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// More trees than `predict` buffers on the stack.
    #[test]
    fn large_forests_match_the_recursive_reference(case in case_strategy((65, 80))) {
        check(&case)?;
    }
}

#[test]
fn default_config_matches_on_bo_shaped_histories() {
    // The shapes the predicate search fits: 1–2 unit-cube dimensions,
    // 14–315 rows, an interval objective that is zero inside the target
    // interval, default hyperparameters.
    let mut rng = TestRng::seeded(7);
    for &n in &[14usize, 50, 138, 315] {
        for d in 1..=2 {
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.unit_f64()).collect())
                .collect();
            let y: Vec<f64> = x
                .iter()
                .map(|p| {
                    let cost = p.iter().sum::<f64>() * 4000.0 / d as f64;
                    (1000.0 - cost).max(cost - 2000.0).max(0.0)
                })
                .collect();
            let probes = (0..200)
                .map(|_| (0..d).map(|_| rng.unit_f64()).collect())
                .collect();
            let config = ForestConfig {
                seed: rng.next_u64(),
                ..ForestConfig::default()
            };
            check(&Case {
                x,
                y,
                config,
                probes,
            })
            .unwrap();
        }
    }
}
