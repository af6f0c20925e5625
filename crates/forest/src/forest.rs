//! The bagged ensemble.

use rand::Rng;
use rayon::prelude::*;

use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::flat::{FlatForest, Fold, StridedPool};
use crate::hyper::{FitMode, ForestConfig};
use crate::tree::RegressionTree;

/// A random-forest regressor with uncertainty estimates.
///
/// Trees are grown in parallel on the `PWU_THREADS` work pool (the `rayon`
/// shim's scoped-thread pool with ordered reduction); every tree gets an
/// independent RNG stream derived from the fit seed, so results are
/// bit-identical regardless of thread count or scheduling — see the
/// `fit_is_deterministic_per_seed_and_parallelism_invariant` test, which
/// compares fits across pool widths. Training data lives in a flat column-major
/// [`FeatureMatrix`], which the presorted split search scans contiguously.
///
/// ```
/// use pwu_forest::{ForestConfig, RandomForest};
/// use pwu_space::{FeatureKind, FeatureMatrix};
///
/// // y = 3·x on a tiny grid.
/// let rows: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i)]).collect();
/// let x = FeatureMatrix::from_rows(1, &rows);
/// let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
/// let forest = RandomForest::fit(
///     &ForestConfig::default(),
///     &[FeatureKind::Numeric],
///     &x,
///     &y,
///     42,
/// );
/// let p = forest.predict_one(&[10.0]);
/// assert!((p.mean - 30.0).abs() < 6.0);
/// assert!(p.std >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    /// Per-tree out-of-bag row indices (empty when `bootstrap` is off).
    oob_rows: Vec<Vec<u32>>,
    /// Flat-node predict layout ([`crate::flat`]) — every batch predict
    /// runs through it. Kept in lock-step with `trees` by every mutation
    /// below.
    flat: FlatForest,
    config: ForestConfig,
    n_features: usize,
}

/// A prediction with its uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Ensemble mean — the predicted execution time `μ`.
    pub mean: f64,
    /// Uncertainty `σ`: standard deviation across tree predictions.
    pub std: f64,
}

impl RandomForest {
    /// Fits a forest on the rows of `(x, y)`.
    ///
    /// # Panics
    /// Panics on empty data, mismatched lengths, non-finite targets, or an
    /// invalid configuration.
    #[must_use]
    pub fn fit(
        config: &ForestConfig,
        kinds: &[FeatureKind],
        x: &FeatureMatrix,
        y: &[f64],
        seed: u64,
    ) -> Self {
        let _s = pwu_obs::span(
            "forest.fit",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("trees", pwu_obs::Arg::u(config.n_trees as u64)),
                ("mode", pwu_obs::Arg::s(config.fit_mode.token())),
            ],
        );
        config.validate();
        assert!(!x.is_empty(), "cannot fit a forest on zero rows");
        assert_eq!(x.n_rows(), y.len(), "feature/target length mismatch");
        assert_eq!(
            x.n_cols(),
            kinds.len(),
            "feature matrix width does not match kinds"
        );
        assert!(y.iter().all(|v| v.is_finite()), "targets must be finite");

        let n = x.n_rows();
        // Rank tables depend only on (x, kinds): compute once, share across
        // all trees instead of re-deriving per tree. Same for the fast
        // engine's per-forest context (None on the exact path or when the
        // `fast-path` feature is compiled out).
        let ranks = crate::tree::numeric_ranks(x, kinds);
        let fast_ctx = crate::fast::context_for(config, x, kinds, &ranks);
        let results: Vec<(RegressionTree, Vec<u32>)> = (0..config.n_trees)
            .into_par_iter()
            .map(|t| {
                let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, t as u64));
                let (rows, oob) = if config.bootstrap {
                    bootstrap_rows(n, &mut rng)
                } else {
                    ((0..n as u32).collect(), Vec::new())
                };
                let tree = match fast_ctx.as_ref() {
                    Some(ctx) => {
                        crate::fast::fit_tree_fast(x, y, &rows, config, &mut rng, &ranks, ctx)
                    }
                    None => RegressionTree::fit_ranked(x, y, &rows, kinds, config, &mut rng, &ranks),
                };
                (tree, oob)
            })
            .collect();

        let mut trees = Vec::with_capacity(config.n_trees);
        let mut oob_rows = Vec::with_capacity(config.n_trees);
        for (tree, oob) in results {
            trees.push(tree);
            oob_rows.push(oob);
        }
        let flat = FlatForest::compile(&trees);
        Self {
            trees,
            oob_rows,
            flat,
            config: *config,
            n_features: kinds.len(),
        }
    }

    /// Fits a forest on row-major data (convenience for callers that do not
    /// already hold a [`FeatureMatrix`]).
    ///
    /// # Panics
    /// As [`RandomForest::fit`], plus on ragged rows.
    #[must_use]
    pub fn fit_rows(
        config: &ForestConfig,
        kinds: &[FeatureKind],
        x: &[Vec<f64>],
        y: &[f64],
        seed: u64,
    ) -> Self {
        let m = FeatureMatrix::from_rows(kinds.len(), x);
        Self::fit(config, kinds, &m, y, seed)
    }

    /// Point prediction: mean of the per-tree predictions.
    #[must_use]
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.predict_one(row).mean
    }

    /// Prediction with across-tree uncertainty (the paper's estimator).
    #[must_use]
    pub fn predict_one(&self, row: &[f64]) -> Prediction {
        let n = self.trees.len() as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for tree in &self.trees {
            let p = tree.predict(row);
            sum += p;
            sum_sq += p * p;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }

    /// Prediction with across-tree uncertainty for row `row` of a feature
    /// matrix; bit-identical to [`RandomForest::predict_one`] on the same
    /// row values (same trees, same fold order).
    #[must_use]
    pub fn predict_one_at(&self, x: &FeatureMatrix, row: usize) -> Prediction {
        let n = self.trees.len() as f64;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for tree in &self.trees {
            let p = tree.predict_at(x, row);
            sum += p;
            sum_sq += p * p;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }

    /// Prediction with Hutter et al.'s total-variance uncertainty:
    /// `Var = E[leaf_var + leaf_mean²] − μ²` (law of total variance across
    /// the tree mixture). Strictly larger than the across-tree estimate
    /// whenever leaves are impure.
    #[must_use]
    pub fn predict_total_variance(&self, row: &[f64]) -> Prediction {
        let n = self.trees.len() as f64;
        let mut sum = 0.0;
        let mut second_moment = 0.0;
        for tree in &self.trees {
            let leaf = tree.predict_leaf(row);
            sum += leaf.mean;
            second_moment += leaf.variance + leaf.mean * leaf.mean;
        }
        let mean = sum / n;
        let var = (second_moment / n - mean * mean).max(0.0);
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }

    /// Batch prediction with across-tree uncertainty.
    ///
    /// Rows are processed in chunks (parallelized across chunks) through the
    /// flat layout's blocked descent ([`crate::flat`]); within a chunk the
    /// loop runs tree-outer, so each tree's nodes stay hot while it routes
    /// the whole chunk. The per-tree leaf values are folded by
    /// [`RandomForest::fold`]: exact forests add them serially in tree
    /// order, so each row's result is bit-identical to
    /// [`RandomForest::predict_one_at`]; fast forests fold through
    /// accumulator lanes ([`crate::flat::fold_lanes`]) — the sums round
    /// differently, deterministically and width/deal-order invariant,
    /// covered by the same statistical-equivalence contract as the fast fit
    /// (DESIGN.md §14).
    #[must_use]
    pub fn predict_batch(&self, x: &FeatureMatrix) -> Vec<Prediction> {
        let _s = pwu_obs::span(
            "forest.predict_batch",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("mode", pwu_obs::Arg::s(self.predict_mode())),
            ],
        );
        let finish = |sum: f64, sum_sq: f64, n: f64| {
            let mean = sum / n;
            let var = (sum_sq / n - mean * mean).max(0.0);
            Prediction {
                mean,
                std: var.sqrt(),
            }
        };
        self.check_width(x.n_cols());
        self.flat.fold_mu(x, self.fold(), finish)
    }

    /// Batch point predictions (same traversal and fold as
    /// [`RandomForest::predict_batch`]).
    #[must_use]
    pub fn predict_batch_mean(&self, x: &FeatureMatrix) -> Vec<f64> {
        self.check_width(x.n_cols());
        self.flat.fold_mu(x, self.fold(), |sum, _, n| sum / n)
    }

    /// Batch prediction with Hutter et al.'s total-variance uncertainty —
    /// the bulk form of [`RandomForest::predict_total_variance`], with the
    /// same traversal and fold as [`RandomForest::predict_batch`] over the
    /// flat layout's leaf `μ` and second-moment arrays: exact forests fold
    /// `(Σμ, Σ(σ²+μ²))` serially in tree order (bit-identical to the scalar
    /// call), fast forests through accumulator lanes.
    #[must_use]
    pub fn predict_batch_total_variance(&self, x: &FeatureMatrix) -> Vec<Prediction> {
        let _s = pwu_obs::span(
            "forest.predict_batch",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("mode", pwu_obs::Arg::s(self.predict_mode())),
            ],
        );
        let finish = |sum: f64, second: f64, n: f64| {
            let mean = sum / n;
            let var = (second / n - mean * mean).max(0.0);
            Prediction {
                mean,
                std: var.sqrt(),
            }
        };
        self.check_width(x.n_cols());
        self.flat.fold_total_variance(x, self.fold(), finish)
    }

    /// Per-tree point-prediction columns: `out[k][i]` is tree
    /// `tree_idx[k]`'s prediction for row `i` of `x`.
    ///
    /// This is the bulk form of [`RegressionTree::predict_at`] used by the
    /// incremental pool-score cache: the flat layout's blocked descent lands
    /// on the same leaves, so values are bit-identical to `predict_at` in
    /// either fit mode — only the fold applied *on top* of cached columns
    /// is mode-dependent (see `pwu_core`'s `PoolScoreCache`).
    ///
    /// # Panics
    /// Panics if a tree index is out of range or `x` is narrower than the
    /// trees' features.
    #[must_use]
    pub fn predict_columns(&self, x: &FeatureMatrix, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        let _s = pwu_obs::span(
            "forest.predict_columns",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("trees", pwu_obs::Arg::u(tree_idx.len() as u64)),
                ("mode", pwu_obs::Arg::s(self.predict_mode())),
            ],
        );
        self.check_width(x.n_cols());
        self.flat.columns(x, tree_idx)
    }

    /// [`RandomForest::predict_columns`] over a pool held in the flat
    /// kernel's pre-transposed row records ([`StridedPool`]): the descent
    /// skips the per-call transpose entirely, and the columns are
    /// bit-identical.
    ///
    /// # Panics
    /// Panics if a tree index is out of range or the pool is narrower than
    /// the trees' features.
    #[must_use]
    pub fn predict_columns_strided(&self, pool: &StridedPool, tree_idx: &[usize]) -> Vec<Vec<f64>> {
        let _s = pwu_obs::span(
            "forest.predict_columns",
            [
                ("rows", pwu_obs::Arg::u(pool.n_rows() as u64)),
                ("trees", pwu_obs::Arg::u(tree_idx.len() as u64)),
                ("mode", pwu_obs::Arg::s(self.predict_mode())),
            ],
        );
        self.check_width(pool.n_cols());
        self.flat.columns_pre(pool, tree_idx)
    }

    /// Partially updates the forest on an enlarged training set.
    ///
    /// Algorithm 1's model step may "construct a random forest from scratch
    /// or update it partially"; this is the partial option: `n_refit` trees
    /// (chosen round-robin by update counter embedded in `seed`) are regrown
    /// on the new data, the rest keep their old structure. Cheaper than a
    /// full refit by roughly `n_trees / n_refit`, at the cost of part of the
    /// ensemble lagging the newest observations.
    ///
    /// Returns the indices of the refitted trees, so callers that cache
    /// per-tree state (e.g. the incremental pool scorer) can refresh only
    /// the stale entries.
    ///
    /// # Panics
    /// Panics on empty data, mismatched lengths or `n_refit` of zero.
    pub fn update(
        &mut self,
        kinds: &[FeatureKind],
        x: &FeatureMatrix,
        y: &[f64],
        n_refit: usize,
        seed: u64,
    ) -> Vec<usize> {
        let _s = pwu_obs::span(
            "forest.update",
            [
                ("rows", pwu_obs::Arg::u(x.n_rows() as u64)),
                ("refit", pwu_obs::Arg::u(n_refit as u64)),
                ("mode", pwu_obs::Arg::s(self.config.fit_mode.token())),
            ],
        );
        assert!(!x.is_empty(), "cannot update on zero rows");
        assert_eq!(x.n_rows(), y.len(), "feature/target length mismatch");
        assert!(n_refit > 0, "must refit at least one tree");
        let n_refit = n_refit.min(self.trees.len());
        let n = x.n_rows();
        // Deterministically pick which trees to regrow from the seed.
        let mut pick_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 0xFEED));
        let mut order: Vec<usize> = (0..self.trees.len()).collect();
        for i in 0..n_refit {
            let j = i + (pick_rng.next() as usize) % (order.len() - i);
            order.swap(i, j);
        }
        let ranks = crate::tree::numeric_ranks(x, kinds);
        let fast_ctx = crate::fast::context_for(&self.config, x, kinds, &ranks);
        let refit: Vec<(usize, (RegressionTree, Vec<u32>))> = order[..n_refit]
            .par_iter()
            .map(|&t| {
                let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, t as u64));
                let (rows, oob) = if self.config.bootstrap {
                    bootstrap_rows(n, &mut rng)
                } else {
                    ((0..n as u32).collect(), Vec::new())
                };
                let tree = match fast_ctx.as_ref() {
                    Some(ctx) => {
                        crate::fast::fit_tree_fast(x, y, &rows, &self.config, &mut rng, &ranks, ctx)
                    }
                    None => RegressionTree::fit_ranked(
                        x,
                        y,
                        &rows,
                        kinds,
                        &self.config,
                        &mut rng,
                        &ranks,
                    ),
                };
                (t, (tree, oob))
            })
            .collect();
        for (t, (tree, oob)) in refit {
            // Partial refits only recompile the refitted flat entries; the
            // untouched trees keep their compiled layout.
            self.flat.recompile(t, &tree);
            self.trees[t] = tree;
            self.oob_rows[t] = oob;
        }
        order.truncate(n_refit);
        order
    }

    /// The trees of the ensemble.
    #[must_use]
    pub fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }

    /// Approximate heap bytes the fitted model holds: tree arenas,
    /// out-of-bag rows and the flat predict layout.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let trees: usize = self.trees.iter().map(RegressionTree::approx_bytes).sum();
        let oob: usize = self.oob_rows.iter().map(|r| r.capacity() * 4).sum();
        trees + oob + self.flat.approx_bytes()
    }

    /// Mean within-leaf variance across the ensemble (`Σ var·count /
    /// Σ count` over every leaf) — the irreducible-noise diagnostic the
    /// fast path's statistical-equivalence suite compares between engines.
    /// Reduced on the `PWU_THREADS` pool with an ordered fold, so the value
    /// is deterministic at any width.
    #[must_use]
    pub fn mean_leaf_variance(&self) -> f64 {
        crate::fast::mean_leaf_variance(&self.trees)
    }

    /// Per-tree out-of-bag row indices (empty vectors without bootstrap).
    #[must_use]
    pub(crate) fn oob_rows(&self) -> &[Vec<u32>] {
        &self.oob_rows
    }

    /// Assembles a forest from parts (used by [`crate::reference`]).
    pub(crate) fn from_parts(
        trees: Vec<RegressionTree>,
        oob_rows: Vec<Vec<u32>>,
        config: ForestConfig,
        n_features: usize,
    ) -> Self {
        let flat = FlatForest::compile(&trees);
        Self {
            trees,
            oob_rows,
            flat,
            config,
            n_features,
        }
    }

    /// Replaces one tree and its OOB rows (used by [`crate::reference`]).
    pub(crate) fn replace_tree(&mut self, t: usize, tree: RegressionTree, oob: Vec<u32>) {
        self.flat.recompile(t, &tree);
        self.trees[t] = tree;
        self.oob_rows[t] = oob;
    }

    /// Retags the forest's fit mode in place, keeping the fitted trees.
    ///
    /// The trees and their flat layout are untouched — this does *not*
    /// refit or recompile — but the ensemble fold follows the new mode
    /// ([`RandomForest::fold`]) from the next batch call on. Callers that
    /// cache derived scores (e.g. `pwu_core`'s `PoolScoreCache`) must
    /// resynchronize — see the mode-swap regression test in
    /// `fast_equivalence`.
    #[must_use]
    pub fn with_fit_mode(mut self, mode: FitMode) -> Self {
        self.config.fit_mode = mode;
        self
    }

    /// The ensemble fold of the batch predictions, chosen by the fit mode
    /// alone: [`Fold::Lanes`] for [`FitMode::Fast`] with the `fast-path`
    /// feature compiled, [`Fold::Serial`] (bit-identical to the scalar
    /// calls) otherwise.
    #[must_use]
    pub fn fold(&self) -> Fold {
        if cfg!(feature = "fast-path") && self.config.fit_mode == FitMode::Fast {
            Fold::Lanes
        } else {
            Fold::Serial
        }
    }

    /// Whether batch predictions fold through accumulator lanes
    /// ([`Fold::Lanes`]): true only for [`FitMode::Fast`] forests with
    /// `fast-path` compiled.
    #[must_use]
    pub fn fast_predict(&self) -> bool {
        self.fold() == Fold::Lanes
    }

    /// Rejects feature matrices narrower than the forest: the flat
    /// kernel's fixed-stride records would otherwise read unset slots for
    /// the missing features instead of failing.
    fn check_width(&self, n_cols: usize) {
        assert!(
            n_cols >= self.n_features,
            "feature matrix has {n_cols} columns, the forest needs {}",
            self.n_features
        );
    }

    /// Predict-fold token for obs span tags.
    fn predict_mode(&self) -> &'static str {
        match self.fold() {
            Fold::Lanes => "fast",
            Fold::Serial => "exact",
        }
    }

    /// The configuration the forest was fitted with.
    #[must_use]
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Number of feature columns.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.n_features
    }
}

/// Draws a bootstrap resample of `0..n` and returns `(in_bag, out_of_bag)`.
pub(crate) fn bootstrap_rows(n: usize, rng: &mut Xoshiro256PlusPlus) -> (Vec<u32>, Vec<u32>) {
    let mut in_bag = Vec::with_capacity(n);
    let mut chosen = vec![false; n];
    for _ in 0..n {
        let i = rng.gen_range(0..n);
        in_bag.push(i as u32);
        chosen[i] = true;
    }
    let oob = (0..n as u32).filter(|&i| !chosen[i as usize]).collect();
    (in_bag, oob)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_xy() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = x0 + 10·x1 on an 8×8 grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                x.push(vec![f64::from(i), f64::from(j)]);
                y.push(f64::from(i) + 10.0 * f64::from(j));
            }
        }
        (x, y)
    }

    fn kinds2() -> Vec<FeatureKind> {
        vec![FeatureKind::Numeric; 2]
    }

    #[test]
    fn forest_learns_smooth_function() {
        let (x, y) = grid_xy();
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 42);
        let mut worst: f64 = 0.0;
        for (xi, &yi) in x.iter().zip(&y) {
            worst = worst.max((forest.predict(xi) - yi).abs());
        }
        // Bootstrap + random subspace leave residual error; the target spans
        // 0..77, so demand better than ~15% of the range at the worst point.
        assert!(worst < 12.0, "worst-case training error {worst}");
    }

    #[test]
    fn predictions_within_training_range() {
        let (x, y) = grid_xy();
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 1);
        let (lo, hi) = (0.0, 77.0);
        for xi in &x {
            let p = forest.predict(xi);
            assert!((lo..=hi).contains(&p));
        }
        // Extrapolation is clamped to leaf means too.
        let p = forest.predict(&[100.0, 100.0]);
        assert!((lo..=hi).contains(&p));
    }

    #[test]
    fn uncertainty_is_nonnegative_and_zero_for_constant_targets() {
        let (x, _) = grid_xy();
        let y = vec![3.0; x.len()];
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 5);
        for xi in &x {
            let p = forest.predict_one(xi);
            assert_eq!(p.mean, 3.0);
            assert_eq!(p.std, 0.0);
        }
    }

    #[test]
    fn total_variance_at_least_across_tree_variance() {
        let (x, mut y) = grid_xy();
        // Add irreducible noise so leaves stay impure under min_leaf 4.
        let mut rng = Xoshiro256PlusPlus::new(9);
        for v in &mut y {
            *v += rng.next_f64();
        }
        let cfg = ForestConfig {
            min_leaf: 4,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit_rows(&cfg, &kinds2(), &x, &y, 2);
        for xi in x.iter().take(16) {
            let a = forest.predict_one(xi);
            let t = forest.predict_total_variance(xi);
            assert!((a.mean - t.mean).abs() < 1e-9);
            assert!(t.std >= a.std - 1e-12, "total {} < across {}", t.std, a.std);
        }
    }

    #[test]
    fn fit_is_deterministic_per_seed_and_parallelism_invariant() {
        let (x, y) = grid_xy();
        // Same seed → identical forest; different seed → different forest.
        let f1 = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
        let f2 = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
        let f3 = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 78);
        let probe = [3.5, 2.5];
        assert_eq!(f1.predict(&probe), f2.predict(&probe));
        assert_ne!(f1.predict(&probe), f3.predict(&probe));

        // Thread-count invariance: the same fit at pool widths 1, 2 and 8
        // must produce bitwise-identical predictions everywhere, because
        // per-tree RNG streams come from the seed (not the schedule) and the
        // shim's reduction is ordered. Restore the width afterwards so
        // concurrently running tests only ever observe a valid setting
        // (results are width-invariant by construction, so the transient
        // widths cannot affect them).
        let before = rayon::current_num_threads();
        let baseline: Vec<(u64, u64)> = {
            rayon::set_threads(1);
            let f = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
            x.iter()
                .map(|xi| {
                    let p = f.predict_one(xi);
                    (p.mean.to_bits(), p.std.to_bits())
                })
                .collect()
        };
        for width in [2, 8] {
            rayon::set_threads(width);
            let f = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 77);
            for (xi, &(mean_bits, std_bits)) in x.iter().zip(&baseline) {
                let p = f.predict_one(xi);
                assert_eq!(p.mean.to_bits(), mean_bits, "mean drift at width {width}");
                assert_eq!(p.std.to_bits(), std_bits, "std drift at width {width}");
            }
        }
        rayon::set_threads(before);
    }

    #[test]
    fn batch_prediction_matches_scalar_bitwise() {
        let (x, y) = grid_xy();
        let forest = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 3);
        let m = FeatureMatrix::from_rows(2, &x);
        let batch = forest.predict_batch(&m);
        let means = forest.predict_batch_mean(&m);
        for (i, (xi, p)) in x.iter().zip(&batch).enumerate() {
            let q = forest.predict_one(xi);
            assert_eq!(p.mean.to_bits(), q.mean.to_bits());
            assert_eq!(p.std.to_bits(), q.std.to_bits());
            assert_eq!(means[i].to_bits(), q.mean.to_bits());
        }
    }

    #[test]
    fn bootstrap_oob_partition_is_consistent() {
        let mut rng = Xoshiro256PlusPlus::new(4);
        let (in_bag, oob) = bootstrap_rows(100, &mut rng);
        assert_eq!(in_bag.len(), 100);
        let bag_set: std::collections::HashSet<u32> = in_bag.iter().copied().collect();
        for &o in &oob {
            assert!(!bag_set.contains(&o));
        }
        // Expected OOB fraction ≈ 1/e ≈ 0.368.
        assert!(oob.len() > 15 && oob.len() < 60, "oob size {}", oob.len());
    }

    #[test]
    fn partial_update_incorporates_new_data() {
        let (x, y) = grid_xy();
        // Fit on the first half only.
        let half = x.len() / 2;
        let mut forest = RandomForest::fit_rows(
            &ForestConfig::default(),
            &kinds2(),
            &x[..half],
            &y[..half],
            21,
        );
        let probe = &x[x.len() - 1];
        let before = (forest.predict(probe) - y[y.len() - 1]).abs();
        // Update most of the ensemble on the full set.
        let m = FeatureMatrix::from_rows(2, &x);
        let refitted = forest.update(&kinds2(), &m, &y, 48, 22);
        assert_eq!(refitted.len(), 48);
        let after = (forest.predict(probe) - y[y.len() - 1]).abs();
        assert!(
            after < before,
            "update should improve unseen-region error: {before} → {after}"
        );
    }

    #[test]
    fn partial_update_is_deterministic_and_partial() {
        let (x, y) = grid_xy();
        let base = RandomForest::fit_rows(&ForestConfig::default(), &kinds2(), &x, &y, 5);
        let m = FeatureMatrix::from_rows(2, &x);
        let mut a = base.clone();
        let mut b = base.clone();
        let ra = a.update(&kinds2(), &m, &y, 8, 99);
        let rb = b.update(&kinds2(), &m, &y, 8, 99);
        assert_eq!(ra, rb);
        assert_eq!(ra.len(), 8);
        let probe = [2.5, 3.5];
        assert_eq!(a.predict_one(&probe), b.predict_one(&probe));
        // Exactly the reported trees changed; the rest must predict
        // identically to the original ensemble.
        for (t, (t0, t1)) in base.trees().iter().zip(a.trees()).enumerate() {
            if !ra.contains(&t) {
                assert_eq!(t0.predict(&probe).to_bits(), t1.predict(&probe).to_bits());
            }
        }
    }

    #[test]
    fn single_row_training_works() {
        let forest = RandomForest::fit_rows(
            &ForestConfig::default(),
            &kinds2(),
            &[vec![1.0, 2.0]],
            &[7.0],
            0,
        );
        assert_eq!(forest.predict(&[0.0, 0.0]), 7.0);
        assert_eq!(forest.predict_one(&[9.0, 9.0]).std, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_targets_rejected() {
        let _ = RandomForest::fit_rows(
            &ForestConfig::default(),
            &kinds2(),
            &[vec![0.0, 0.0]],
            &[f64::NAN],
            0,
        );
    }
}
