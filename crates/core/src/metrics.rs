//! Evaluation metrics (Section III-C of the paper).

use pwu_forest::RandomForest;
use pwu_space::FeatureMatrix;
use pwu_stats::argsort_by;

/// The elite slice of Eq. 2: the indices of the `m` smallest observed
/// times, in the stable ascending order RMSE@α sums them in.
/// [`rmse_at_alpha`] and [`EvalSet`] both take their rows from here, so
/// the slice is defined once.
///
/// # Panics
/// Panics if `observed` is empty.
fn elite(observed: &[f64], m: usize) -> Vec<usize> {
    assert!(!observed.is_empty(), "RMSE@α needs a nonempty test set");
    let mut order = argsort_by(observed, |&y| y);
    order.truncate(m);
    order
}

/// The elite slice's length at `alpha`: `⌊n·α⌋`, at least one sample.
fn elite_len(n: usize, alpha: f64) -> usize {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha {alpha} outside (0,1]");
    ((n as f64 * alpha).floor() as usize).max(1)
}

/// Root mean squared error over `(observed, predicted)` pairs, summed in
/// iteration order.
fn rmse(pairs: impl ExactSizeIterator<Item = (f64, f64)>) -> f64 {
    let m = pairs.len();
    let sse: f64 = pairs
        .map(|(y, p)| {
            let d = y - p;
            d * d
        })
        .sum();
    (sse / m as f64).sqrt()
}

/// RMSE over the top `⌊n·α⌋` *observed*-performance test samples (Eq. 2).
///
/// The test set is ranked by its true execution times ascending (high
/// performance first); the error is computed only on the elite slice —
/// accuracy on poor configurations is irrelevant to tuning.
///
/// # Panics
/// Panics if lengths mismatch, `alpha` is outside `(0, 1]`, or the elite
/// slice would be empty.
#[must_use]
pub fn rmse_at_alpha(observed: &[f64], predicted: &[f64], alpha: f64) -> f64 {
    assert_eq!(observed.len(), predicted.len(), "length mismatch");
    let m = elite_len(observed.len(), alpha);
    rmse(
        elite(observed, m)
            .iter()
            .map(|&i| (observed[i], predicted[i])),
    )
}

/// The part of a test set RMSE@α reads, built once per run.
///
/// Eq. 2 reads only the `⌊n·α⌋` test samples with the lowest observed
/// time, so an `EvalSet` keeps just the elite slice at the largest α —
/// features and labels, in the order [`rmse_at_alpha`] visits them — and
/// every smaller α's slice is a prefix of it. [`EvalSet::rmse`] predicts
/// only those rows. Its values are bit-identical to [`rmse_at_alpha`]
/// over a prediction of the whole test set: a row's prediction does not
/// depend on the other rows in the batch, and the squared errors are
/// summed over the same samples in the same order.
#[derive(Debug, Clone)]
pub struct EvalSet {
    /// The elite rows, best observed time first.
    features: FeatureMatrix,
    labels: Vec<f64>,
    /// Per α, how many leading rows its slice reads.
    lens: Vec<usize>,
}

impl EvalSet {
    /// Keeps the rows of `(test_features, test_labels)` that RMSE@α reads
    /// at any of `alphas`.
    ///
    /// # Panics
    /// Panics if the lengths mismatch, the test set or `alphas` is empty,
    /// or an α is outside `(0, 1]`.
    #[must_use]
    pub fn new(test_features: &FeatureMatrix, test_labels: &[f64], alphas: &[f64]) -> Self {
        assert_eq!(test_features.n_rows(), test_labels.len(), "length mismatch");
        let lens: Vec<usize> = alphas
            .iter()
            .map(|&a| elite_len(test_labels.len(), a))
            .collect();
        let widest = *lens.iter().max().expect("need at least one alpha");
        let rows = elite(test_labels, widest);
        Self {
            features: test_features.select_rows(&rows),
            labels: rows.iter().map(|&i| test_labels[i]).collect(),
            lens,
        }
    }

    /// How many rows [`EvalSet::rmse`] predicts.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.labels.len()
    }

    /// RMSE@α of `model` at every α the set was built for, in order, from
    /// one batch prediction of the kept rows.
    #[must_use]
    pub fn rmse(&self, model: &RandomForest) -> Vec<f64> {
        let preds = model.predict_batch_mean(&self.features);
        self.lens
            .iter()
            .map(|&m| {
                rmse(
                    self.labels[..m]
                        .iter()
                        .copied()
                        .zip(preds[..m].iter().copied()),
                )
            })
            .collect()
    }

    /// Heap bytes the set holds.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.features.approx_bytes() + 8 * self.labels.capacity() + 8 * self.lens.capacity()
    }
}

/// The cumulative cost (Eq. 3) needed to first reach an RMSE at or below
/// `threshold`, given per-iteration `(cumulative_cost, rmse)` pairs.
///
/// Returns `None` when the run never reaches the threshold.
#[must_use]
pub fn cost_to_reach(history: &[(f64, f64)], threshold: f64) -> Option<f64> {
    history
        .iter()
        .find(|(_, rmse)| *rmse <= threshold)
        .map(|(cc, _)| *cc)
}

/// The first index at which an RMSE series has *converged*: every later
/// value stays within `(1 + tol)` of the series minimum.
///
/// The paper stops at `n_max = 500` "because the model begins to converge
/// when collecting about 500 samples"; this utility makes that judgement
/// mechanical. Returns `None` for an empty series.
#[must_use]
pub fn converged_at(rmse: &[f64], tol: f64) -> Option<usize> {
    assert!(tol >= 0.0, "tolerance must be non-negative");
    if rmse.is_empty() {
        return None;
    }
    let min = rmse.iter().cloned().fold(f64::INFINITY, f64::min);
    let bound = min * (1.0 + tol);
    // Walk backwards: find the last index that exceeds the band; the series
    // is converged right after it.
    let last_bad = rmse.iter().rposition(|&r| r > bound);
    Some(last_bad.map_or(0, |i| i + 1).min(rmse.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elite_slice_only() {
        // obs: elite is the two smallest (alpha = 0.5 of 4).
        let obs = [1.0, 10.0, 2.0, 20.0];
        // Perfect on elite, terrible elsewhere → zero error.
        let pred = [1.0, 0.0, 2.0, 0.0];
        assert_eq!(rmse_at_alpha(&obs, &pred, 0.5), 0.0);
        // Error on one elite sample shows up.
        let pred2 = [2.0, 10.0, 2.0, 20.0];
        assert!((rmse_at_alpha(&obs, &pred2, 0.5) - (0.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_is_plain_rmse() {
        let obs = [1.0, 2.0, 3.0];
        let pred = [2.0, 3.0, 4.0];
        assert!((rmse_at_alpha(&obs, &pred, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_alpha_keeps_at_least_one_sample() {
        let obs = [5.0, 1.0];
        let pred = [5.0, 3.0];
        // ⌊2×0.01⌋ = 0 → clamped to 1: the single best observation (1.0).
        assert!((rmse_at_alpha(&obs, &pred, 0.01) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cost_to_reach_finds_first_crossing() {
        let hist = [(1.0, 9.0), (3.0, 5.0), (7.0, 2.0), (9.0, 2.5)];
        assert_eq!(cost_to_reach(&hist, 5.0), Some(3.0));
        assert_eq!(cost_to_reach(&hist, 1.9), None);
        assert_eq!(cost_to_reach(&hist, 100.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_alpha_rejected() {
        let _ = rmse_at_alpha(&[1.0], &[1.0], 0.0);
    }

    #[test]
    fn converged_at_finds_the_plateau() {
        let series = [10.0, 5.0, 2.0, 1.05, 1.0, 1.02, 1.01];
        // Within 10% of the minimum from index 3 on.
        assert_eq!(converged_at(&series, 0.10), Some(3));
        // Tighter band: only the tail qualifies.
        assert_eq!(converged_at(&series, 0.03), Some(4));
        // A monotone-decreasing series converges only at its end... unless
        // the whole series is flat.
        assert_eq!(converged_at(&[3.0, 3.0, 3.0], 0.0), Some(0));
        assert_eq!(converged_at(&[], 0.1), None);
    }
}
