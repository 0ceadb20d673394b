//! Random-forest regression surrogate.
//!
//! SMAC-style: bootstrap-sampled CART regression trees with random feature
//! subsets; the predictive mean is the average of per-tree leaf means and
//! the predictive uncertainty is the standard deviation across trees. Small
//! and dependency-free — training sets in the predicate search are a few
//! dozen to a few hundred points.
//!
//! Layout (DESIGN.md, "Random-forest surrogate"): every tree lives in one
//! preorder node arena; each feature is sorted once per fit, and a node
//! reads its distinct values off per-feature sample lists that are stably
//! partitioned down the tree, so no node sorts. A feature's ≤ 12 candidate
//! thresholds are scored in one sweep over the node's sample with one
//! accumulator lane per threshold. Every lane adds in the sample's
//! bootstrap order, so each float sum — and therefore every split, leaf
//! mean and prediction — is bit-identical to the textbook recursive
//! formulation.

use crate::parallel::{parallel_map, split_seed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_leaf: usize,
    /// Fraction of features tried per split (≥ 1 feature always tried).
    pub feature_fraction: f64,
    pub seed: u64,
    /// Worker threads for tree fitting (trees are independent); results
    /// are identical at any thread count because each tree's RNG seed is
    /// split from `(seed, tree index)`, never shared.
    pub threads: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 25,
            max_depth: 12,
            min_leaf: 3,
            feature_fraction: 0.7,
            seed: 0,
            threads: 1,
        }
    }
}

/// Candidate thresholds tried per feature at a split (midpoints between
/// distinct values, evenly spaced over the node's sorted values).
const MAX_THRESHOLDS: usize = 12;

/// Forests up to this size buffer their per-tree predictions on the
/// stack in [`RandomForest::predict`]; larger ones traverse twice.
const STACK_TREES: usize = 64;

/// `Node::right` of a leaf.
const LEAF: u32 = u32::MAX;

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Every tree's nodes in preorder, one tree after another.
    nodes: Vec<Node>,
    /// Index of each tree's root in `nodes`.
    roots: Vec<u32>,
}

/// One arena node. An internal node's left child is the next node and
/// `right` indexes its right child; a leaf has `right == LEAF`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split threshold (`point[feature] <= value` goes left), or the
    /// leaf's mean.
    value: f64,
    feature: u32,
    right: u32,
}

impl RandomForest {
    /// Fit a forest on `(x, y)`; `x` rows are unit-hypercube points.
    ///
    /// # Panics
    /// Panics when `x` and `y` lengths differ, the training set is empty,
    /// `config.n_trees` is zero, or the rows differ in length.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: ForestConfig) -> RandomForest {
        RandomForest::fit_rows(x.len(), |i| &x[i], y, config)
    }

    /// [`RandomForest::fit`] over `n` rows read through `row`, so callers
    /// that hold points inside other records need not copy them out.
    pub(crate) fn fit_rows<'a>(
        n: usize,
        row: impl Fn(usize) -> &'a [f64],
        y: &[f64],
        config: ForestConfig,
    ) -> RandomForest {
        assert_eq!(n, y.len(), "x/y length mismatch");
        assert!(n > 0, "empty training set");
        assert!(config.n_trees > 0, "a forest needs at least one tree");
        let data = TrainingSet::new(n, row, y);
        let tree_ids: Vec<u64> = (0..config.n_trees as u64).collect();
        let trees = parallel_map(config.threads.max(1), &tree_ids, |_, &tree| {
            TreeBuilder::new(&data, &config, tree).build_tree()
        });
        let mut nodes = Vec::with_capacity(trees.iter().map(Vec::len).sum());
        let mut roots = Vec::with_capacity(trees.len());
        for tree in trees {
            let base = u32::try_from(nodes.len()).expect("forest arena exceeds u32 indices");
            roots.push(base);
            nodes.extend(tree.into_iter().map(|node| Node {
                right: if node.right == LEAF {
                    LEAF
                } else {
                    node.right + base
                },
                ..node
            }));
        }
        RandomForest { nodes, roots }
    }

    /// Predictive mean and standard deviation at a point.
    // detlint::hot
    pub fn predict(&self, point: &[f64]) -> (f64, f64) {
        let n = self.roots.len();
        if n <= STACK_TREES {
            let mut buffer = [0.0f64; STACK_TREES];
            let predictions = &mut buffer[..n];
            for (slot, &root) in predictions.iter_mut().zip(&self.roots) {
                *slot = self.predict_tree(root, point);
            }
            mean_and_sigma(|| predictions.iter().copied(), n)
        } else {
            mean_and_sigma(
                || {
                    self.roots
                        .iter()
                        .map(|&root| self.predict_tree(root, point))
                },
                n,
            )
        }
    }

    /// Number of trees (for diagnostics).
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    fn predict_tree(&self, root: u32, point: &[f64]) -> f64 {
        let mut at = root as usize;
        loop {
            let node = self.nodes[at];
            if node.right == LEAF {
                return node.value;
            }
            // A conditional move, not a branch: the direction taken at a
            // node is a coin flip across candidates, so a branch would
            // mispredict about half the time.
            at = std::hint::select_unpredictable(
                point[node.feature as usize] <= node.value,
                at + 1,
                node.right as usize,
            );
        }
    }
}

/// Mean and population standard deviation of the values `values()`
/// yields, summed in iteration order (`values` is called twice and must
/// yield the same sequence both times).
fn mean_and_sigma<I: Iterator<Item = f64>>(values: impl Fn() -> I, n: usize) -> (f64, f64) {
    let n = n as f64;
    let mean = values().sum::<f64>() / n;
    let variance = values().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
    (mean, variance.sqrt())
}

/// The training set shared by every tree of one fit: features stored
/// column-major, each column's row order presorted once.
struct TrainingSet<'a> {
    n: usize,
    d: usize,
    /// `d` columns of `n` values.
    columns: Vec<f64>,
    /// `d` blocks of `n` row indices, each block ascending in its column
    /// under `f64::total_cmp` (stable, so ties keep row order).
    presorted: Vec<u32>,
    y: &'a [f64],
}

impl<'a> TrainingSet<'a> {
    fn new<'r>(n: usize, row: impl Fn(usize) -> &'r [f64], y: &'a [f64]) -> TrainingSet<'a> {
        assert!(
            u32::try_from(n).is_ok(),
            "training set exceeds u32 row indices"
        );
        let d = row(0).len();
        let mut columns = vec![0.0; d * n];
        for i in 0..n {
            let values = row(i);
            assert!(
                values.len() == d,
                "ragged training rows: row {i} has {} coordinates, row 0 has {d}",
                values.len()
            );
            for (f, &v) in values.iter().enumerate() {
                columns[f * n + i] = v;
            }
        }
        let mut presorted = Vec::with_capacity(d * n);
        for column in columns.chunks_exact(n) {
            let start = presorted.len();
            presorted.extend(0..n as u32);
            presorted[start..].sort_by(|&a, &b| column[a as usize].total_cmp(&column[b as usize]));
        }
        TrainingSet {
            n,
            d,
            columns,
            presorted,
            y,
        }
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.columns[feature * self.n..(feature + 1) * self.n]
    }
}

/// Per-tree fitting state. A node owns the same range `lo..hi` of
/// `sample` and of every `by_feature` block; splitting a node stably
/// partitions each of those ranges, so the children own the two halves
/// with their orders intact.
struct TreeBuilder<'a> {
    data: &'a TrainingSet<'a>,
    config: &'a ForestConfig,
    rng: StdRng,
    /// The bootstrap sample (row indices, with repeats) in draw order.
    sample: Vec<u32>,
    /// `d` blocks of `n`: the bootstrap sample sorted by each feature.
    by_feature: Vec<u32>,
    /// Right-hand side of a partition in progress.
    spill: Vec<u32>,
    /// A node's distinct values of one feature, ascending.
    distinct: Vec<f64>,
    features: Vec<usize>,
    nodes: Vec<Node>,
}

impl<'a> TreeBuilder<'a> {
    fn new(data: &'a TrainingSet<'a>, config: &'a ForestConfig, tree: u64) -> TreeBuilder<'a> {
        let n = data.n;
        let mut rng = StdRng::seed_from_u64(split_seed(config.seed, tree));
        let sample: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
        let mut copies = vec![0u32; n];
        for &i in &sample {
            copies[i as usize] += 1;
        }
        // Expanding each presorted column by the rows' bootstrap copies
        // sorts the sample by that feature without another sort.
        let mut by_feature = Vec::with_capacity(data.d * n);
        for order in data.presorted.chunks_exact(n) {
            for &i in order {
                by_feature.extend(std::iter::repeat_n(i, copies[i as usize] as usize));
            }
        }
        // Every split leaves ≥ min_leaf rows per child, and depth caps
        // the leaves too: reserve the whole tree up front.
        let leaves = (n / config.min_leaf.max(1))
            .clamp(1, 1usize << config.max_depth.min(usize::BITS as usize - 2));
        TreeBuilder {
            data,
            config,
            rng,
            sample,
            by_feature,
            spill: Vec::with_capacity(n),
            distinct: Vec::with_capacity(n),
            features: Vec::with_capacity(data.d),
            nodes: Vec::with_capacity(2 * leaves - 1),
        }
    }

    fn build_tree(mut self) -> Vec<Node> {
        self.build(0, self.data.n, 0);
        self.nodes
    }

    /// Grow the subtree over `sample[lo..hi]`, appending it in preorder.
    /// RNG draws happen in the same depth-first order as a recursive
    /// CART build: this node's feature subset, then the left subtree's
    /// draws, then the right's.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) {
        let y = self.data.y;
        let node = &self.sample[lo..hi];
        let mean = node.iter().map(|&i| y[i as usize]).sum::<f64>() / node.len() as f64;
        let leaf = Node {
            value: mean,
            feature: 0,
            right: LEAF,
        };
        if depth >= self.config.max_depth || node.len() < 2 * self.config.min_leaf {
            self.nodes.push(leaf);
            return;
        }
        let variance = node
            .iter()
            .map(|&i| (y[i as usize] - mean) * (y[i as usize] - mean))
            .sum::<f64>();
        if variance < 1e-12 || self.data.d == 0 {
            self.nodes.push(leaf);
            return;
        }

        let d = self.data.d;
        let n_features = ((d as f64 * self.config.feature_fraction).ceil() as usize).clamp(1, d);
        // Random feature subset without replacement (d is small).
        self.features.clear();
        self.features.extend(0..d);
        for i in 0..n_features {
            let j = self.rng.gen_range(i..d);
            self.features.swap(i, j);
        }
        let mut best: Option<Split> = None;
        for k in 0..n_features {
            self.best_split(self.features[k], lo, hi, &mut best);
        }
        let Some(split) = best else {
            self.nodes.push(leaf);
            return;
        };

        let column = self.data.column(split.feature);
        let goes_left = |i: u32| column[i as usize] <= split.threshold;
        let n = self.data.n;
        let n_left = stable_partition(&mut self.sample[lo..hi], &mut self.spill, goes_left);
        for block in self.by_feature.chunks_exact_mut(n) {
            stable_partition(&mut block[lo..hi], &mut self.spill, goes_left);
        }
        let at = self.nodes.len();
        self.nodes.push(Node {
            value: split.threshold,
            feature: split.feature as u32,
            right: 0,
        });
        self.build(lo, lo + n_left, depth + 1);
        self.nodes[at].right = self.nodes.len() as u32;
        self.build(lo + n_left, hi, depth + 1);
    }

    /// Score `feature`'s candidate thresholds over `sample[lo..hi]` and
    /// keep the first strictly lowest SSE in `best`.
    fn best_split(&mut self, feature: usize, lo: usize, hi: usize, best: &mut Option<Split>) {
        let data = self.data;
        let column = data.column(feature);
        let start = feature * data.n;
        self.distinct.clear();
        for &i in &self.by_feature[start + lo..start + hi] {
            let v = column[i as usize];
            if self.distinct.last() != Some(&v) {
                self.distinct.push(v);
            }
        }
        let values = &self.distinct;
        if values.len() < 2 {
            return;
        }
        // Up to 12 thresholds at evenly spaced ranks. The rank is monotone
        // in k, so a repeat is always the previous rank.
        let step = (values.len() - 1).max(1) as f64 / MAX_THRESHOLDS as f64;
        let mut thresholds = [0.0f64; MAX_THRESHOLDS];
        let mut lanes = 0;
        let mut last = usize::MAX;
        for k in 0..MAX_THRESHOLDS {
            let idx = ((k as f64 * step) as usize).min(values.len() - 2);
            if idx == last {
                continue;
            }
            last = idx;
            thresholds[lanes] = (values[idx] + values[idx + 1]) / 2.0;
            lanes += 1;
        }

        // One sweep, one lane per threshold. Each lane's sums add the
        // node's rows in sample order, exactly as a per-threshold scan
        // would. Adding +0.0 for the other side is exact: a sum that
        // starts at +0.0 can never be -0.0 under round-to-nearest, and
        // s + 0.0 == s for every other s.
        let y = data.y;
        let sample = &self.sample[lo..hi];
        let mut left_n = [0usize; MAX_THRESHOLDS];
        let mut left_sum = [0.0f64; MAX_THRESHOLDS];
        let mut right_sum = [0.0f64; MAX_THRESHOLDS];
        for &i in sample {
            let (v, yi) = (column[i as usize], y[i as usize]);
            for k in 0..lanes {
                let left = v <= thresholds[k];
                left_n[k] += usize::from(left);
                left_sum[k] += if left { yi } else { 0.0 };
                right_sum[k] += if left { 0.0 } else { yi };
            }
        }
        // Keep the lanes whose children both hold ≥ min_leaf rows, in
        // threshold order, with their side means.
        let min_leaf = self.config.min_leaf;
        let mut live = 0;
        let mut live_threshold = [0.0f64; MAX_THRESHOLDS];
        let mut left_mean = [0.0f64; MAX_THRESHOLDS];
        let mut right_mean = [0.0f64; MAX_THRESHOLDS];
        for k in 0..lanes {
            let right_n = sample.len() - left_n[k];
            if left_n[k] < min_leaf || right_n < min_leaf {
                continue;
            }
            live_threshold[live] = thresholds[k];
            left_mean[live] = left_sum[k] / left_n[k] as f64;
            right_mean[live] = right_sum[k] / right_n as f64;
            live += 1;
        }
        let mut sse = [0.0f64; MAX_THRESHOLDS];
        for &i in sample {
            let (v, yi) = (column[i as usize], y[i as usize]);
            for k in 0..live {
                let m = if v <= live_threshold[k] {
                    left_mean[k]
                } else {
                    right_mean[k]
                };
                sse[k] += (yi - m) * (yi - m);
            }
        }
        for k in 0..live {
            if best.is_none_or(|b| sse[k] < b.sse) {
                *best = Some(Split {
                    feature,
                    threshold: live_threshold[k],
                    sse: sse[k],
                });
            }
        }
    }
}

/// The best split found so far at a node.
#[derive(Clone, Copy)]
struct Split {
    feature: usize,
    threshold: f64,
    sse: f64,
}

/// Reorder `items` so those satisfying `left` come first, both sides in
/// their original order; returns how many went left. `spill` is scratch.
fn stable_partition(items: &mut [u32], spill: &mut Vec<u32>, left: impl Fn(u32) -> bool) -> usize {
    spill.clear();
    let mut n_left = 0;
    for k in 0..items.len() {
        let item = items[k];
        if left(item) {
            items[n_left] = item;
            n_left += 1;
        } else {
            spill.push(item);
        }
    }
    items[n_left..].copy_from_slice(spill);
    n_left
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(f: impl Fn(f64) -> f64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|p| f(p[0])).collect();
        (x, y)
    }

    #[test]
    fn fits_a_monotone_function() {
        let (x, y) = grid_1d(|v| 10.0 * v, 200);
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (low, _) = forest.predict(&[0.1]);
        let (high, _) = forest.predict(&[0.9]);
        assert!((low - 1.0).abs() < 1.0, "low {low}");
        assert!((high - 9.0).abs() < 1.0, "high {high}");
        assert!(high > low + 5.0);
    }

    #[test]
    fn fits_a_nonlinear_function() {
        let (x, y) = grid_1d(|v| (v * 6.0).sin(), 300);
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (peak, _) = forest.predict(&[0.26]); // sin(1.57) ≈ 1
        assert!(peak > 0.7, "peak {peak}");
        let (trough, _) = forest.predict(&[0.79]); // sin(4.71) ≈ -1
        assert!(trough < -0.7, "trough {trough}");
    }

    #[test]
    fn uncertainty_is_higher_off_data() {
        // Train only on the left half; the right half should show larger
        // across-tree disagreement.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 200.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 20.0).sin()).collect();
        for seed in 0..5 {
            let forest = RandomForest::fit(
                &x,
                &y,
                ForestConfig {
                    seed,
                    ..Default::default()
                },
            );
            let (_, sigma_in) = forest.predict(&[0.25]);
            let (_, sigma_out) = forest.predict(&[0.95]);
            assert!(
                sigma_out > sigma_in,
                "seed {seed}: σ_out {sigma_out} ≤ σ_in {sigma_in}"
            );
        }
    }

    #[test]
    fn constant_target_yields_zero_variance() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
        let y = vec![3.0; 50];
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (mean, sigma) = forest.predict(&[0.5]);
        assert!((mean - 3.0).abs() < 1e-9);
        assert!(sigma < 1e-9);
    }

    #[test]
    fn handles_multidimensional_inputs() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let a = i as f64 / 19.0;
                let b = j as f64 / 19.0;
                x.push(vec![a, b]);
                y.push(a * 5.0 + b * -3.0);
            }
        }
        let forest = RandomForest::fit(&x, &y, ForestConfig::default());
        let (p, _) = forest.predict(&[1.0, 0.0]);
        assert!((p - 5.0).abs() < 1.0, "got {p}");
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        RandomForest::fit(&[], &[], ForestConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let (x, y) = grid_1d(|v| v, 10);
        RandomForest::fit(
            &x,
            &y,
            ForestConfig {
                n_trees: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "ragged training rows")]
    fn ragged_rows_panic() {
        let x = vec![vec![0.1, 0.2], vec![0.3], vec![0.5, 0.6]];
        RandomForest::fit(&x, &[1.0, 2.0, 3.0], ForestConfig::default());
    }

    #[test]
    #[should_panic(expected = "ragged training rows")]
    fn rows_longer_than_the_first_panic() {
        let x = vec![vec![0.1], vec![0.3, 0.4], vec![0.5]];
        RandomForest::fit(&x, &[1.0, 2.0, 3.0], ForestConfig::default());
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let (x, y) = grid_1d(|v| (v * 4.0).cos() + v, 150);
        let serial = RandomForest::fit(
            &x,
            &y,
            ForestConfig {
                seed: 11,
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = RandomForest::fit(
            &x,
            &y,
            ForestConfig {
                seed: 11,
                threads: 4,
                ..Default::default()
            },
        );
        for i in 0..=20 {
            let p = [i as f64 / 20.0];
            let (m1, s1) = serial.predict(&p);
            let (m2, s2) = parallel.predict(&p);
            assert_eq!(m1.to_bits(), m2.to_bits(), "mean differs at {p:?}");
            assert_eq!(s1.to_bits(), s2.to_bits(), "sigma differs at {p:?}");
        }
    }
}
