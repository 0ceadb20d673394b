//! Ask/tell Bayesian optimizer with Expected Improvement.
//!
//! Mirrors the paper's use of SMAC3 in Algorithm 3: LHS initial design,
//! random-forest surrogate, EI acquisition over random + local candidates,
//! and warm-starting from historical evaluations ("historical optimization
//! runs can be reused … by initializing the surrogate model with those that
//! perform well").

use crate::forest::{ForestConfig, RandomForest};
use crate::lhs::latin_hypercube;
use crate::parallel::parallel_fill;
use crate::space::Space;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One evaluated point (unit-hypercube coordinates) and its objective
/// value (lower is better).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    pub point: Vec<f64>,
    pub value: f64,
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoConfig {
    /// LHS points evaluated before the surrogate is trusted.
    pub init_samples: usize,
    /// Candidate points scored per `ask`.
    pub candidates: usize,
    /// Forest size.
    pub n_trees: usize,
    /// Exploration jitter: with this probability `ask` returns a uniform
    /// random point regardless of the surrogate (ε-greedy safeguard).
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for surrogate fitting and candidate scoring; the
    /// proposal stream is bit-identical at any thread count.
    pub threads: usize,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            init_samples: 10,
            candidates: 300,
            n_trees: 25,
            epsilon: 0.05,
            seed: 0,
            threads: 1,
        }
    }
}

/// Sequential model-based optimizer (minimization).
pub struct Optimizer {
    space: Space,
    config: BoConfig,
    history: Vec<Evaluation>,
    initial_design: Vec<Vec<f64>>,
    next_initial: usize,
    rng: StdRng,
    /// Cached surrogate and the history length it was fitted on; refitted
    /// lazily once enough new observations accumulate (keeps per-`ask`
    /// cost low in the tight loop of Algorithm 3).
    fitted: Option<(RandomForest, usize)>,
    /// Candidate points and their EI scores, reused across `ask` calls so
    /// the `candidates`-sized vectors (default 200–300 per ask) are not
    /// reallocated every proposal.
    scratch_candidates: Vec<Vec<f64>>,
    scratch_scores: Vec<f64>,
}

impl Optimizer {
    /// New optimizer over a space.
    pub fn new(space: Space, config: BoConfig) -> Optimizer {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let initial_design =
            latin_hypercube(config.init_samples.max(1), space.len(), &mut rng);
        Optimizer {
            space,
            config,
            history: Vec::new(),
            initial_design,
            next_initial: 0,
            rng,
            fitted: None,
            scratch_candidates: Vec::new(),
            scratch_scores: Vec::new(),
        }
    }

    /// Seed the surrogate with evaluations from previous runs (re-scored
    /// under the current objective by the caller).
    ///
    /// Together with [`Optimizer::history`] this is the optimizer's state
    /// export path: the forest surrogate is a pure function of
    /// `(history, config)`, so a fresh optimizer with the same config/seed
    /// warm-started from another's history proposes bit-identical points.
    /// Checkpoints therefore never serialize the forest — they persist the
    /// evaluation history (snapshots only land between scheduler rounds,
    /// when no `Optimizer` is alive) and rebuild from it on resume.
    pub fn warm_start(&mut self, evaluations: impl IntoIterator<Item = Evaluation>) {
        self.history.extend(evaluations);
    }

    /// All evaluations observed so far.
    ///
    /// This is the complete serializable state of the optimizer: see
    /// [`Optimizer::warm_start`] for the rebuild contract.
    pub fn history(&self) -> &[Evaluation] {
        &self.history
    }

    /// Best evaluation so far, if any.
    pub fn best(&self) -> Option<&Evaluation> {
        self.history
            .iter()
            .min_by(|a, b| a.value.total_cmp(&b.value))
    }

    /// Propose the next point to evaluate (unit-hypercube coordinates).
    pub fn ask(&mut self) -> Vec<f64> {
        // Degenerate space: nothing to search.
        if self.space.is_empty() {
            return Vec::new();
        }
        // Initial design first (skipping points when warm-started past it).
        if self.history.len() < self.config.init_samples
            && self.next_initial < self.initial_design.len()
        {
            let point = self.initial_design[self.next_initial].clone();
            self.next_initial += 1;
            return point;
        }
        if self.rng.gen::<f64>() < self.config.epsilon || self.history.len() < 2 {
            return self.space.sample_unit(&mut self.rng);
        }

        // Fit (or reuse) the surrogate. Refitting on every observation is
        // wasteful in tight loops; refresh once ≥10% new points (min 4)
        // accumulated since the last fit.
        let needs_refit = match &self.fitted {
            None => true,
            Some((_, fitted_on)) => {
                self.history.len() >= fitted_on + (fitted_on / 10).max(4)
            }
        };
        if needs_refit {
            let history = &self.history;
            let y: Vec<f64> = history.iter().map(|e| e.value).collect();
            let forest = RandomForest::fit_rows(
                history.len(),
                |i| &history[i].point,
                &y,
                ForestConfig {
                    n_trees: self.config.n_trees,
                    seed: self.rng.gen(),
                    threads: self.config.threads,
                    ..ForestConfig::default()
                },
            );
            self.fitted = Some((forest, self.history.len()));
        }
        let forest = &self.fitted.as_ref().expect("fitted above").0;
        let best_value = self.best().map(|e| e.value).unwrap_or(0.0);

        // Candidates: uniform random + perturbations of the incumbents.
        // The candidate vectors (and their inner point buffers) and the
        // score vector are scratch space reused across asks; the `_into`
        // samplers draw from the RNG in the exact order the allocating
        // variants would, so reuse cannot change the proposal stream.
        let n_random = self.config.candidates / 2;
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.resize_with(self.config.candidates, Vec::new);
        for slot in candidates.iter_mut().take(n_random) {
            self.space.sample_unit_into(&mut self.rng, slot);
        }
        let mut incumbents: Vec<&Evaluation> = self.history.iter().collect();
        incumbents.sort_by(|a, b| a.value.total_cmp(&b.value));
        let top = incumbents.into_iter().take(5).map(|e| e.point.clone()).collect::<Vec<_>>();
        for slot in candidates.iter_mut().skip(n_random) {
            let base = &top[self.rng.gen_range(0..top.len())];
            self.space.perturb_into(base, 0.08, &mut self.rng, slot);
        }

        // Score all candidates (the per-`ask` hot spot: candidates ×
        // trees predictions), then take the max with `Iterator::max_by`'s
        // last-wins tie rule so the pick is independent of thread count.
        let mut scores = std::mem::take(&mut self.scratch_scores);
        parallel_fill(self.config.threads.max(1), &candidates, &mut scores, |_, point| {
            expected_improvement(forest, point, best_value)
        });
        let mut best_idx = 0;
        for (idx, score) in scores.iter().enumerate().skip(1) {
            if scores[best_idx].partial_cmp(score).unwrap_or(std::cmp::Ordering::Equal)
                != std::cmp::Ordering::Greater
            {
                best_idx = idx;
            }
        }
        // Hand the winner out by value; its slot is left empty and gets
        // refilled (cleared first) on the next ask.
        let winner = std::mem::take(&mut candidates[best_idx]);
        self.scratch_candidates = candidates;
        self.scratch_scores = scores;
        winner
    }

    /// Report the objective value of a previously asked point.
    pub fn tell(&mut self, point: Vec<f64>, value: f64) {
        self.history.push(Evaluation { point, value });
    }

    /// Convenience: run `budget` ask/tell rounds against a closure, with
    /// early stop when the objective reaches `target` (e.g. 0 for Eq. (5)).
    pub fn run<F>(&mut self, budget: usize, target: f64, mut objective: F) -> Option<Evaluation>
    where
        F: FnMut(&[f64]) -> f64,
    {
        for _ in 0..budget {
            let point = self.ask();
            let value = objective(&point);
            self.tell(point.clone(), value);
            if value <= target {
                return Some(Evaluation { point, value });
            }
        }
        self.best().cloned()
    }

    /// The space being searched.
    pub fn space(&self) -> &Space {
        &self.space
    }
}

/// Expected improvement of a candidate under the surrogate (minimization):
/// the acquisition `Optimizer::ask` maximizes over its candidates.
pub fn expected_improvement(forest: &RandomForest, point: &[f64], best: f64) -> f64 {
    let (mean, sigma) = forest.predict(point);
    if sigma < 1e-12 {
        return (best - mean).max(0.0);
    }
    let z = (best - mean) / sigma;
    (best - mean) * normal_cdf(z) + sigma * normal_pdf(z)
}

fn normal_pdf(z: f64) -> f64 {
    (-(z * z) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Abramowitz–Stegun style erf approximation (max error ≈ 1.5e-7).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Dimension;

    fn unit_space(d: usize) -> Space {
        Space::new(vec![Dimension::Float { lo: 0.0, hi: 1.0 }; d])
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn optimizes_a_quadratic_better_than_its_own_initial_design() {
        let mut bo = Optimizer::new(
            unit_space(2),
            BoConfig { init_samples: 8, seed: 5, ..Default::default() },
        );
        let objective = |p: &[f64]| {
            let dx = p[0] - 0.3;
            let dy = p[1] - 0.7;
            dx * dx + dy * dy
        };
        bo.run(60, -1.0, objective);
        let init_best = bo.history()[..8]
            .iter()
            .map(|e| e.value)
            .fold(f64::INFINITY, f64::min);
        let final_best = bo.best().unwrap().value;
        assert!(final_best <= init_best);
        assert!(final_best < 0.02, "final {final_best}");
    }

    #[test]
    fn early_stop_on_target() {
        let mut bo = Optimizer::new(
            unit_space(1),
            BoConfig { init_samples: 4, seed: 1, ..Default::default() },
        );
        let hit = bo.run(100, 0.5, |p| p[0]); // any point < 0.5 qualifies
        assert!(hit.is_some());
        assert!(bo.history().len() < 100, "should stop early");
    }

    #[test]
    fn warm_start_counts_toward_initial_budget() {
        let mut bo = Optimizer::new(
            unit_space(1),
            BoConfig { init_samples: 5, seed: 2, ..Default::default() },
        );
        bo.warm_start((0..10).map(|i| Evaluation {
            point: vec![i as f64 / 10.0],
            value: (i as f64 / 10.0 - 0.42).abs(),
        }));
        // With 10 historical points, ask() should already exploit.
        let point = bo.ask();
        assert_eq!(point.len(), 1);
        assert_eq!(bo.history().len(), 10);
        assert!((bo.best().unwrap().point[0] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut bo = Optimizer::new(
                unit_space(2),
                BoConfig { seed, init_samples: 6, ..Default::default() },
            );
            bo.run(20, -1.0, |p| (p[0] - 0.5).abs() + (p[1] - 0.5).abs());
            bo.history().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn proposals_are_identical_at_any_thread_count() {
        let run = |threads| {
            let mut bo = Optimizer::new(
                unit_space(3),
                BoConfig { seed: 12, init_samples: 6, threads, ..Default::default() },
            );
            bo.run(40, -1.0, |p| {
                p.iter().enumerate().map(|(i, v)| (v - 0.2 * i as f64).abs()).sum()
            });
            bo.history().to_vec()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn warm_started_rebuild_proposes_identical_points() {
        // The checkpoint/resume contract: history() is the optimizer's
        // complete state, so a rebuilt optimizer warm-started with the
        // same evaluations proposes bit-identical points.
        let config = BoConfig { seed: 21, init_samples: 4, ..Default::default() };
        let objective =
            |p: &[f64]| (p[0] - 0.6).abs() + (p[1] - 0.25).abs();
        let prior: Vec<Evaluation> = (0..12)
            .map(|i| {
                let point = vec![i as f64 / 12.0, 1.0 - i as f64 / 12.0];
                let value = objective(&point);
                Evaluation { point, value }
            })
            .collect();
        let run = |prior: Vec<Evaluation>| {
            let mut bo = Optimizer::new(unit_space(2), config);
            bo.warm_start(prior);
            let mut proposals = Vec::new();
            for _ in 0..15 {
                let point = bo.ask();
                let value = objective(&point);
                proposals.push(point.clone());
                bo.tell(point, value);
            }
            proposals
        };
        assert_eq!(run(prior.clone()), run(prior));
    }

    #[test]
    fn empty_space_asks_empty_points() {
        let mut bo = Optimizer::new(Space::default(), BoConfig::default());
        assert!(bo.ask().is_empty());
        bo.tell(Vec::new(), 1.0);
        assert_eq!(bo.history().len(), 1);
    }
}
