//! Sample pools for active learning.
//!
//! The paper's protocol: draw 10 000 distinct configurations from the space,
//! split 7000 into the unlabeled *pool* (Algorithm 1's `X_pool`) and 3000
//! into the held-out *test set*. [`Pool`] keeps configurations and their
//! encoded feature rows aligned, and supports the two operations Algorithm 1
//! needs: scoring every remaining candidate and removing a selected batch.
//!
//! Both [`Pool`] and [`LabeledSet`] back their features with the flat
//! column-major [`FeatureMatrix`], so the forest's fit and batch-predict hot
//! paths run over contiguous columns with no per-row indirection.

use rand::Rng;

use crate::config::Configuration;
use crate::encode::FeatureSchema;
use crate::matrix::FeatureMatrix;
use crate::space::ParamSpace;

use pwu_stats::Xoshiro256PlusPlus;

/// Heap bytes of a configuration list: the list and each configuration's
/// levels.
fn configs_bytes(configs: &Vec<Configuration>) -> usize {
    configs.capacity() * std::mem::size_of::<Configuration>()
        + configs.iter().map(Configuration::heap_bytes).sum::<usize>()
}

/// An unlabeled candidate pool with pre-encoded features.
#[derive(Debug, Clone)]
pub struct Pool {
    configs: Vec<Configuration>,
    features: FeatureMatrix,
}

impl Pool {
    /// Builds a pool by encoding `configs` with `schema`.
    #[must_use]
    pub fn new(space: &ParamSpace, schema: &FeatureSchema, configs: Vec<Configuration>) -> Self {
        let features = schema.encode_matrix(space, &configs);
        Self { configs, features }
    }

    /// Number of remaining candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when no candidates remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The remaining configurations.
    #[must_use]
    pub fn configs(&self) -> &[Configuration] {
        &self.configs
    }

    /// The feature matrix, row-aligned with [`Pool::configs`].
    #[must_use]
    pub fn features(&self) -> &FeatureMatrix {
        &self.features
    }

    /// Heap bytes held: the configurations and the encoded features.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        configs_bytes(&self.configs) + self.features.approx_bytes()
    }

    /// Removes and returns the candidates at the given indices.
    ///
    /// Indices refer to the current pool ordering. Uses `swap_remove`, so the
    /// pool order changes; strategies must not rely on pool order across
    /// iterations (none does — every iteration rescoring is positional).
    ///
    /// # Panics
    /// Panics if any index is out of range or duplicated.
    pub fn take(&mut self, indices: &[usize]) -> Vec<(Configuration, Vec<f64>)> {
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).for_each(|w| {
            assert_ne!(w[0], w[1], "duplicate index {} in Pool::take", w[0]);
        });
        // Remove from the highest index down so earlier removals do not
        // disturb later ones.
        let mut out = Vec::with_capacity(indices.len());
        for &i in sorted.iter().rev() {
            assert!(i < self.configs.len(), "index {i} out of range");
            let cfg = self.configs.swap_remove(i);
            let row = self.features.swap_remove_row(i);
            out.push((cfg, row));
        }
        out.reverse();
        out
    }

    /// Keeps only the configurations `keep` accepts, preserving order, and
    /// returns how many were removed.
    ///
    /// Used by the active-learning loop to drop candidates a legality
    /// analysis has marked [`Illegal`](crate::ConfigLegality::Illegal)
    /// before any measurement budget is spent on them.
    pub fn retain(&mut self, keep: impl FnMut(&Configuration) -> bool) -> usize {
        let kept: Vec<bool> = self.configs.iter().map(keep).collect();
        let removed = self.features.retain_rows(&kept);
        let mut i = 0;
        self.configs.retain(|_| {
            let k = kept[i];
            i += 1;
            k
        });
        removed
    }

    /// Removes and returns `n` uniformly random candidates.
    pub fn take_random(
        &mut self,
        n: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<(Configuration, Vec<f64>)> {
        let n = n.min(self.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let i = rng.gen_range(0..self.configs.len());
            let cfg = self.configs.swap_remove(i);
            let row = self.features.swap_remove_row(i);
            out.push((cfg, row));
        }
        out
    }
}

/// A labeled sample set: configurations, features and observed times.
#[derive(Debug, Clone, Default)]
pub struct LabeledSet {
    configs: Vec<Configuration>,
    features: FeatureMatrix,
    labels: Vec<f64>,
}

impl LabeledSet {
    /// Creates an empty set.
    ///
    /// The feature width is fixed by the first [`LabeledSet::push`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a labeled set from aligned parts.
    ///
    /// # Panics
    /// Panics if the parts disagree in length.
    #[must_use]
    pub fn from_parts(
        configs: Vec<Configuration>,
        features: FeatureMatrix,
        labels: Vec<f64>,
    ) -> Self {
        assert_eq!(configs.len(), features.n_rows());
        assert_eq!(configs.len(), labels.len());
        Self {
            configs,
            features,
            labels,
        }
    }

    /// Heap bytes held: the configurations, the encoded features and the
    /// labels.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        configs_bytes(&self.configs) + self.features.approx_bytes() + 8 * self.labels.capacity()
    }

    /// Appends one labeled observation.
    ///
    /// # Panics
    /// Panics if `features` has a different width than earlier rows.
    pub fn push(&mut self, config: Configuration, features: &[f64], label: f64) {
        if self.labels.is_empty() && self.features.n_cols() != features.len() {
            self.features = FeatureMatrix::new(features.len());
        }
        self.features.push_row(features);
        self.configs.push(config);
        self.labels.push(label);
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the set holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Configurations.
    #[must_use]
    pub fn configs(&self) -> &[Configuration] {
        &self.configs
    }

    /// The feature matrix, row-aligned with the labels.
    #[must_use]
    pub fn features(&self) -> &FeatureMatrix {
        &self.features
    }

    /// Observed execution times.
    #[must_use]
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Sum of all labels — the paper's Cumulative time Cost (Eq. 3).
    #[must_use]
    pub fn cumulative_cost(&self) -> f64 {
        self.labels.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    fn setup() -> (ParamSpace, FeatureSchema, Pool) {
        let space = ParamSpace::new(
            "s",
            vec![
                Param::ordinal("a", vec![0.0, 1.0, 2.0, 3.0]),
                Param::ordinal("b", vec![0.0, 1.0, 2.0, 3.0]),
            ],
        );
        let schema = FeatureSchema::for_space(&space);
        let configs: Vec<Configuration> = space.enumerate().collect();
        let pool = Pool::new(&space, &schema, configs);
        (space, schema, pool)
    }

    #[test]
    fn take_removes_and_returns_aligned_rows() {
        let (_, _, mut pool) = setup();
        let before = pool.len();
        let taken = pool.take(&[0, 5, 3]);
        assert_eq!(taken.len(), 3);
        assert_eq!(pool.len(), before - 3);
        for (cfg, row) in &taken {
            // Row re-derivable from config: feature = ordinal value = level.
            assert_eq!(row[0], f64::from(cfg.level(0)));
            assert_eq!(row[1], f64::from(cfg.level(1)));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn take_rejects_duplicates() {
        let (_, _, mut pool) = setup();
        let _ = pool.take(&[1, 1]);
    }

    #[test]
    fn take_random_shrinks_pool_without_repeats() {
        let (_, _, mut pool) = setup();
        let mut rng = Xoshiro256PlusPlus::new(9);
        let taken = pool.take_random(10, &mut rng);
        assert_eq!(taken.len(), 10);
        assert_eq!(pool.len(), 6);
        let mut all: Vec<Configuration> = taken.into_iter().map(|t| t.0).collect();
        all.extend(pool.configs().iter().cloned());
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 16, "a configuration appeared twice");
    }

    #[test]
    fn retain_filters_and_keeps_rows_aligned() {
        let (_, _, mut pool) = setup();
        let removed = pool.retain(|cfg| cfg.level(0) != 2);
        assert_eq!(removed, 4);
        assert_eq!(pool.len(), 12);
        for (i, cfg) in pool.configs().iter().enumerate() {
            assert_ne!(cfg.level(0), 2);
            let row = pool.features().row(i);
            assert_eq!(row[0], f64::from(cfg.level(0)));
            assert_eq!(row[1], f64::from(cfg.level(1)));
        }
    }

    #[test]
    fn take_random_clamps_to_available() {
        let (_, _, mut pool) = setup();
        let mut rng = Xoshiro256PlusPlus::new(1);
        let taken = pool.take_random(100, &mut rng);
        assert_eq!(taken.len(), 16);
        assert!(pool.is_empty());
    }

    #[test]
    fn features_stay_aligned_after_mixed_removals() {
        let (_, _, mut pool) = setup();
        let mut rng = Xoshiro256PlusPlus::new(3);
        let _ = pool.take_random(4, &mut rng);
        let _ = pool.take(&[1, 6]);
        assert_eq!(pool.features().n_rows(), pool.len());
        for (i, cfg) in pool.configs().iter().enumerate() {
            assert_eq!(pool.features().get(i, 0), f64::from(cfg.level(0)));
            assert_eq!(pool.features().get(i, 1), f64::from(cfg.level(1)));
        }
    }

    #[test]
    fn labeled_set_accumulates_and_costs() {
        let (space, schema, mut pool) = setup();
        let mut set = LabeledSet::new();
        let mut rng = Xoshiro256PlusPlus::new(2);
        for (cfg, row) in pool.take_random(3, &mut rng) {
            let y = row[0] + row[1];
            set.push(cfg, &row, y);
        }
        assert_eq!(set.len(), 3);
        assert_eq!(set.features().n_rows(), 3);
        assert_eq!(set.features().n_cols(), 2);
        let expected: f64 = set.labels().iter().sum();
        assert_eq!(set.cumulative_cost(), expected);
        // from_parts round-trips
        let rebuilt = LabeledSet::from_parts(
            set.configs().to_vec(),
            set.features().clone(),
            set.labels().to_vec(),
        );
        assert_eq!(rebuilt.len(), 3);
        let _ = (space, schema);
    }
}
