//! Sampling strategies: who gets evaluated next.
//!
//! All strategies receive the forest's pool predictions `(μᵢ, σᵢ)` and
//! return the indices of the batch to annotate. Performance means *short
//! predicted execution time*, so "top of the predicted performance ranking"
//! is ascending μ.

use std::cmp::Ordering;

use rand::Rng;

use pwu_forest::forest::Prediction;
use pwu_stats::Xoshiro256PlusPlus;

/// A pool-based sampling strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Performance Weighted Uncertainty (Eq. 1): `s = σ / μ^(1−α)`.
    ///
    /// `alpha → 1` degenerates to [`Strategy::MaxU`]; `alpha → 0` gives the
    /// coefficient of variation σ/μ.
    Pwu {
        /// High-performance proportion α ∈ (0, 1].
        alpha: f64,
    },
    /// Performance-Biased Uncertainty Sampling (Balaprakash et al. 2013):
    /// keep the predicted top `fraction` of the pool, then select the most
    /// uncertain inside it.
    Pbus {
        /// Fraction of the pool considered high-performance.
        fraction: f64,
    },
    /// Biased Random Sampling: uniform choice inside the predicted top
    /// `fraction`.
    Brs {
        /// Fraction of the pool considered high-performance.
        fraction: f64,
    },
    /// Pure exploitation: smallest predicted time.
    BestPerf,
    /// Classic uncertainty sampling: largest σ.
    MaxU,
    /// Passive uniform sampling.
    Uniform,
}

impl Strategy {
    /// Display name matching the paper's legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Pwu { .. } => "PWU",
            Strategy::Pbus { .. } => "PBUS",
            Strategy::Brs { .. } => "BRS",
            Strategy::BestPerf => "BestPerf",
            Strategy::MaxU => "MaxU",
            Strategy::Uniform => "Uniform",
        }
    }

    /// The paper's five baselines plus PWU, at a given α.
    #[must_use]
    pub fn paper_set(alpha: f64) -> Vec<Strategy> {
        vec![
            Strategy::Pwu { alpha },
            Strategy::Pbus { fraction: 0.10 },
            Strategy::Brs { fraction: 0.10 },
            Strategy::BestPerf,
            Strategy::MaxU,
            Strategy::Uniform,
        ]
    }

    /// Selects `n_batch` pool indices given the model's pool predictions.
    ///
    /// # Panics
    /// Panics if `preds` is empty or `n_batch` is zero; callers stop the
    /// loop before the pool drains.
    #[must_use]
    pub fn select(
        &self,
        preds: &[Prediction],
        n_batch: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Vec<usize> {
        assert!(!preds.is_empty(), "empty candidate pool");
        assert!(n_batch > 0, "zero batch");
        let n_batch = n_batch.min(preds.len());
        match *self {
            Strategy::Pwu { alpha } => {
                let scores = pwu_scores(preds, alpha);
                top_desc(&scores, n_batch)
            }
            Strategy::Pbus { fraction } => {
                let keep = biased_subset(preds, fraction, n_batch);
                // Most uncertain within the subset. Finite σ sorts first
                // (descending); a degenerate model's non-finite σ is
                // deprioritized instead of panicking the selection.
                let mut idx = keep;
                idx.sort_by(|&a, &b| {
                    let (sa, sb) = (preds[a].std, preds[b].std);
                    match (sa.is_finite(), sb.is_finite()) {
                        (true, false) => std::cmp::Ordering::Less,
                        (false, true) => std::cmp::Ordering::Greater,
                        _ => sb.total_cmp(&sa),
                    }
                });
                idx.truncate(n_batch);
                idx
            }
            Strategy::Brs { fraction } => {
                let mut keep = biased_subset(preds, fraction, n_batch);
                // Uniform choice without replacement inside the subset.
                for i in 0..n_batch {
                    let j = rng.gen_range(i..keep.len());
                    keep.swap(i, j);
                }
                keep.truncate(n_batch);
                keep
            }
            Strategy::BestPerf => lowest_mean(preds, n_batch),
            Strategy::MaxU => {
                let scores: Vec<f64> = preds.iter().map(|p| p.std).collect();
                top_desc(&scores, n_batch)
            }
            Strategy::Uniform => {
                let mut idx: Vec<usize> = (0..preds.len()).collect();
                for i in 0..n_batch {
                    let j = rng.gen_range(i..idx.len());
                    idx.swap(i, j);
                }
                idx.truncate(n_batch);
                idx
            }
        }
    }
}

/// PWU scores (Eq. 1), entry-wise `σ / μ^(1−α)`.
///
/// Predicted means are floored at a tiny positive value: execution times are
/// positive, and the floor keeps the score finite even if a degenerate model
/// predicts zero.
///
/// ```
/// use pwu_core::strategy::pwu_scores;
/// use pwu_forest::forest::Prediction;
///
/// let preds = [
///     Prediction { mean: 1.0, std: 0.2 },  // fast, somewhat uncertain
///     Prediction { mean: 10.0, std: 0.2 }, // slow, same uncertainty
/// ];
/// let s = pwu_scores(&preds, 0.05);
/// assert!(s[0] > s[1], "the faster candidate scores higher");
/// ```
#[must_use]
pub fn pwu_scores(preds: &[Prediction], alpha: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&alpha), "alpha {alpha} outside [0, 1]");
    preds
        .iter()
        .map(|p| p.std / p.mean.max(1e-12).powf(1.0 - alpha))
        .collect()
}

/// The first `k` (at least one) of the indices `0..n` in the order of
/// `cmp`, which must be a strict total order (distinct indices never
/// compare equal), so the sorted order and therefore its prefix are
/// unique. A partial selection and a sort of the `k` kept cost
/// O(n + k log k) instead of sorting all `n` — a selection step keeps one
/// or a few of thousands of candidates.
fn ordered_prefix(n: usize, k: usize, cmp: impl Fn(&usize, &usize) -> Ordering) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    if k < n {
        idx.select_nth_unstable_by(k - 1, &cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

/// Indices of the `k` largest scores, descending, with NaN scores ranked
/// last so a degenerate model degrades the selection instead of leading it.
///
/// This is the prefix of a stable ascending IEEE-total-order sort, reversed
/// (so ties go to the higher index), with the leading run of NaNs rotated
/// to the end: when any score is not NaN, that run is exactly the +NaNs
/// (total order puts them above +∞, and −NaNs below −∞, so −NaNs already
/// trail); when every score is NaN the rotation is a no-op.
fn top_desc(scores: &[f64], k: usize) -> Vec<usize> {
    let rotate = scores.iter().any(|s| !s.is_nan());
    let trails = |s: f64| rotate && s.is_nan() && s.is_sign_positive();
    ordered_prefix(scores.len(), k, |&a, &b| {
        let (sa, sb) = (scores[a], scores[b]);
        trails(sa)
            .cmp(&trails(sb))
            .then(sb.total_cmp(&sa))
            .then(b.cmp(&a))
    })
}

/// Indices of the `k` smallest predicted means, ascending in IEEE total
/// order, ties by index (a stable sort's prefix).
fn lowest_mean(preds: &[Prediction], k: usize) -> Vec<usize> {
    ordered_prefix(preds.len(), k, |&a, &b| {
        preds[a].mean.total_cmp(&preds[b].mean).then(a.cmp(&b))
    })
}

/// The predicted top `fraction` of the pool (at least `n_batch` entries).
fn biased_subset(preds: &[Prediction], fraction: f64, n_batch: usize) -> Vec<usize> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction {fraction} outside [0, 1]"
    );
    let keep = ((preds.len() as f64 * fraction).ceil() as usize)
        .max(n_batch)
        .min(preds.len());
    lowest_mean(preds, keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{prop, prop_assert, proptest};
    use proptest::strategy::Strategy as _;
    use pwu_stats::argsort_by;

    fn pred(mean: f64, std: f64) -> Prediction {
        Prediction { mean, std }
    }

    /// The whole-pool sort `top_desc` replaced: the oracle it must match.
    fn top_desc_by_sort(scores: &[f64], k: usize) -> Vec<usize> {
        let mut idx = argsort_by(scores, |&s| s);
        idx.reverse();
        let n_nan = idx.iter().take_while(|&&i| scores[i].is_nan()).count();
        idx.rotate_left(n_nan);
        idx.truncate(k);
        idx
    }

    /// The whole-pool sort `lowest_mean` replaced.
    fn lowest_mean_by_sort(preds: &[Prediction], k: usize) -> Vec<usize> {
        let mut idx = argsort_by(preds, |p| p.mean);
        idx.truncate(k);
        idx
    }

    /// Scores drawn from a small palette (heavy ties, ±0, ±∞, NaNs of both
    /// signs and two payloads) or from a continuous range.
    fn arb_score() -> impl proptest::strategy::Strategy<Value = f64> {
        let palette = [
            1.0,
            2.0,
            0.0,
            -0.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
            -f64::from_bits(f64::NAN.to_bits() | 1),
        ];
        // Three draws in four come from the palette.
        (0..palette.len() * 4 / 3, -1e3f64..1e3)
            .prop_map(move |(i, x)| palette.get(i).copied().unwrap_or(x))
    }

    #[test]
    fn partial_selection_matches_the_sorted_prefix_when_every_score_is_nan() {
        let nan1 = f64::from_bits(f64::NAN.to_bits() | 1);
        let scores = [f64::NAN, -f64::NAN, nan1, -nan1, f64::NAN, -f64::NAN];
        for k in 1..=scores.len() {
            assert_eq!(top_desc(&scores, k), top_desc_by_sort(&scores, k));
        }
    }

    proptest! {
        /// The partial selection returns exactly the prefix the whole-pool
        /// sort did, in the same order, at every batch size a step asks for.
        #[test]
        fn partial_selection_matches_the_sorted_prefix(
            scores in prop::collection::vec(arb_score(), 1..200),
            stds in prop::collection::vec(arb_score(), 200),
        ) {
            let n = scores.len();
            let preds: Vec<Prediction> =
                scores.iter().zip(&stds).map(|(&mean, &std)| pred(mean, std)).collect();
            for k in [1, 2, n.div_ceil(10), n] {
                let want = top_desc_by_sort(&scores, k);
                let got = top_desc(&scores, k);
                prop_assert!(got == want, "top_desc k={}: {:?} vs {:?}", k, got, want);
                let want = lowest_mean_by_sort(&preds, k);
                let got = lowest_mean(&preds, k);
                prop_assert!(got == want, "lowest_mean k={}: {:?} vs {:?}", k, got, want);
            }
        }
    }

    #[test]
    fn pwu_prefers_fast_among_equal_uncertainty() {
        // Same σ, different μ → smaller μ wins (the paper's motivating case).
        let preds = vec![pred(10.0, 1.0), pred(1.0, 1.0), pred(5.0, 1.0)];
        let s = Strategy::Pwu { alpha: 0.05 };
        let mut rng = Xoshiro256PlusPlus::new(0);
        assert_eq!(s.select(&preds, 1, &mut rng), vec![1]);
    }

    #[test]
    fn pwu_prefers_uncertain_among_equal_performance() {
        let preds = vec![pred(2.0, 0.1), pred(2.0, 5.0), pred(2.0, 1.0)];
        let s = Strategy::Pwu { alpha: 0.05 };
        let mut rng = Xoshiro256PlusPlus::new(0);
        assert_eq!(s.select(&preds, 1, &mut rng), vec![1]);
    }

    #[test]
    fn pwu_alpha_one_is_maxu() {
        let preds = vec![pred(1.0, 0.5), pred(100.0, 3.0), pred(10.0, 1.0)];
        let mut rng = Xoshiro256PlusPlus::new(0);
        let pwu = Strategy::Pwu { alpha: 1.0 }.select(&preds, 3, &mut rng);
        let maxu = Strategy::MaxU.select(&preds, 3, &mut rng);
        assert_eq!(pwu, maxu);
    }

    #[test]
    fn pwu_alpha_zero_is_coefficient_of_variation() {
        let preds = vec![pred(4.0, 2.0), pred(1.0, 0.9), pred(10.0, 3.0)];
        let scores = pwu_scores(&preds, 0.0);
        for (s, p) in scores.iter().zip(&preds) {
            assert!((s - p.std / p.mean).abs() < 1e-12);
        }
    }

    #[test]
    fn pbus_picks_uncertainty_only_inside_top_fraction() {
        // Index 3 has huge σ but terrible predicted performance: PBUS must
        // ignore it (that is its documented limitation vs PWU).
        let preds = vec![
            pred(1.0, 0.1),
            pred(1.1, 0.4),
            pred(1.2, 0.2),
            pred(100.0, 50.0),
        ];
        let mut rng = Xoshiro256PlusPlus::new(0);
        let picked = Strategy::Pbus { fraction: 0.5 }.select(&preds, 1, &mut rng);
        assert_eq!(picked, vec![1]);
        // PWU at small alpha also skips it here (σ/μ of #3 = 0.5 > 0.36 of #1)
        // — but let uncertainty grow and PWU picks the uncertain one while
        // PBUS still cannot.
        let picked_pwu = Strategy::Pwu { alpha: 0.05 }.select(&preds, 1, &mut rng);
        assert_eq!(picked_pwu, vec![3]);
    }

    #[test]
    fn bestperf_is_greedy_on_mean() {
        let preds = vec![pred(3.0, 9.0), pred(1.0, 0.0), pred(2.0, 5.0)];
        let mut rng = Xoshiro256PlusPlus::new(0);
        assert_eq!(Strategy::BestPerf.select(&preds, 2, &mut rng), vec![1, 2]);
    }

    #[test]
    fn brs_selects_within_top_fraction() {
        let preds: Vec<Prediction> = (0..100).map(|i| pred(f64::from(i), 1.0)).collect();
        let mut rng = Xoshiro256PlusPlus::new(1);
        for _ in 0..50 {
            let picked = Strategy::Brs { fraction: 0.1 }.select(&preds, 1, &mut rng);
            assert!(preds[picked[0]].mean < 10.0, "picked {}", picked[0]);
        }
    }

    #[test]
    fn uniform_covers_the_pool() {
        let preds: Vec<Prediction> = (0..20).map(|i| pred(f64::from(i), 1.0)).collect();
        let mut rng = Xoshiro256PlusPlus::new(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            for i in Strategy::Uniform.select(&preds, 1, &mut rng) {
                seen.insert(i);
            }
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn batches_have_no_duplicates() {
        let preds: Vec<Prediction> = (0..50)
            .map(|i| pred(1.0 + f64::from(i % 7), 0.1 + f64::from(i % 5)))
            .collect();
        let mut rng = Xoshiro256PlusPlus::new(3);
        for s in Strategy::paper_set(0.05) {
            let batch = s.select(&preds, 10, &mut rng);
            let set: std::collections::HashSet<_> = batch.iter().collect();
            assert_eq!(set.len(), batch.len(), "{} produced duplicates", s.name());
        }
    }

    #[test]
    fn batch_clamps_to_pool_size() {
        let preds = vec![pred(1.0, 1.0), pred(2.0, 2.0)];
        let mut rng = Xoshiro256PlusPlus::new(4);
        for s in Strategy::paper_set(0.05) {
            assert_eq!(s.select(&preds, 10, &mut rng).len(), 2);
        }
    }

    #[test]
    fn nan_predictions_are_deprioritized_not_fatal() {
        // A degenerate model predicting (NaN, NaN) for one candidate: every
        // strategy must still return a full, duplicate-free batch and rank
        // the broken candidate last rather than panic or crown it.
        let preds = vec![
            pred(1.0, 0.5),
            pred(f64::NAN, f64::NAN),
            pred(2.0, 1.0),
            pred(3.0, 0.1),
        ];
        let mut rng = Xoshiro256PlusPlus::new(5);
        for s in Strategy::paper_set(0.05) {
            let batch = s.select(&preds, 2, &mut rng);
            assert_eq!(batch.len(), 2, "{} batch came up short", s.name());
            let set: std::collections::HashSet<_> = batch.iter().collect();
            assert_eq!(set.len(), 2, "{} produced duplicates", s.name());
        }
        assert_eq!(
            Strategy::BestPerf.select(&preds, 3, &mut rng),
            vec![0, 2, 3]
        );
        let maxu = Strategy::MaxU.select(&preds, 4, &mut rng);
        assert_eq!(*maxu.last().unwrap(), 1, "NaN σ must rank last");
        let pwu = Strategy::Pwu { alpha: 0.05 }.select(&preds, 4, &mut rng);
        assert_eq!(*pwu.last().unwrap(), 1, "NaN score must rank last");
        let pbus = Strategy::Pbus { fraction: 1.0 }.select(&preds, 3, &mut rng);
        assert_eq!(pbus, vec![2, 0, 3], "finite σ sorts first, descending");
    }

    #[test]
    fn paper_set_has_six_distinctly_named_strategies() {
        let names: Vec<&str> = Strategy::paper_set(0.01)
            .iter()
            .map(Strategy::name)
            .collect();
        assert_eq!(
            names,
            vec!["PWU", "PBUS", "BRS", "BestPerf", "MaxU", "Uniform"]
        );
    }
}
