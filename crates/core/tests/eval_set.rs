//! `EvalSet` ≡ `rmse_at_alpha` over a whole-test-set prediction, bit for
//! bit.
//!
//! The live loop evaluates through an [`EvalSet`], which predicts only the
//! elite rows RMSE@α reads. Every recorded `Snapshot::rmse` stays
//! bit-identical to the historical evaluation (predict all test rows, then
//! [`rmse_at_alpha`]) because a row's prediction does not depend on the
//! other rows in the batch and the squared errors are summed over the same
//! rows in the same order. These properties check that claim on both fold
//! modes, on every record width of the blocked descent, with tied labels
//! and with α at its edges.

use proptest::prelude::*;
use pwu_core::{rmse_at_alpha, EvalSet};
use pwu_forest::{FitMode, ForestConfig, RandomForest};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

/// α sets: α = 1 (the whole test set), an α whose `⌊n·α⌋` clamps to 1,
/// the paper's three together, and an unsorted pair.
const ALPHA_SETS: [&[f64]; 4] = [&[1.0], &[1e-4], &[0.01, 0.05, 0.10], &[0.5, 0.05]];

/// `n` rows of width `d`, integer-valued (so trees split on ties), and
/// labels rounded to `levels` distinct values (so the elite slice cuts
/// through runs of tied labels).
fn data(
    n: usize,
    d: usize,
    levels: f64,
    rng: &mut Xoshiro256PlusPlus,
) -> (FeatureMatrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|f| (rng.next() % (2 + f as u64 % 5)) as f64)
                .collect()
        })
        .collect();
    let labels = rows
        .iter()
        .map(|r| {
            let y = 0.5 + r.iter().take(4).sum::<f64>() * 0.3 + rng.next_f64();
            (y * levels).round() / levels
        })
        .collect();
    (FeatureMatrix::from_rows(d, &rows), labels)
}

fn assert_bitwise_equal(model: &RandomForest, test_x: &FeatureMatrix, test_y: &[f64]) {
    let full = model.predict_batch_mean(test_x);
    for alphas in ALPHA_SETS {
        let set = EvalSet::new(test_x, test_y, alphas);
        let widest = alphas
            .iter()
            .map(|&a| ((test_y.len() as f64 * a).floor() as usize).max(1));
        assert_eq!(set.rows(), widest.max().unwrap());
        let got = set.rmse(model);
        assert_eq!(got.len(), alphas.len());
        for (&a, r) in alphas.iter().zip(got) {
            let want = rmse_at_alpha(test_y, &full, a);
            assert_eq!(r.to_bits(), want.to_bits(), "α = {a}: {r} vs {want}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both fold modes, each record width (≤ 16, 17–64 and > 64 features),
    /// test sets from a single row to past one descent block.
    #[test]
    fn eval_set_rmse_is_bitwise_rmse_at_alpha_on_the_full_prediction(
        seed in 0u64..1_000_000,
        width in 0usize..3,
        n_test in 1usize..260,
        levels in 2.0f64..40.0,
    ) {
        let d = [5, 33, 70][width];
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let (train_x, train_y) = data(60, d, levels, &mut rng);
        let (test_x, test_y) = data(n_test, d, levels, &mut rng);
        let kinds = vec![FeatureKind::Numeric; d];
        for fit_mode in [FitMode::Exact, FitMode::Fast] {
            let config = ForestConfig { n_trees: 9, fit_mode, ..ForestConfig::default() };
            let model = RandomForest::fit(&config, &kinds, &train_x, &train_y, seed);
            assert_bitwise_equal(&model, &test_x, &test_y);
        }
    }
}

#[test]
fn every_label_tied_keeps_the_first_rows_in_index_order() {
    let mut rng = Xoshiro256PlusPlus::new(5);
    let (x, _) = data(40, 6, 4.0, &mut rng);
    let y = vec![2.5; 40];
    let kinds = vec![FeatureKind::Numeric; 6];
    let model = RandomForest::fit(
        &ForestConfig {
            n_trees: 5,
            ..ForestConfig::default()
        },
        &kinds,
        &x,
        &(0..40).map(f64::from).collect::<Vec<_>>(),
        1,
    );
    assert_bitwise_equal(&model, &x, &y);
}

#[test]
#[should_panic(expected = "outside")]
fn alpha_zero_is_rejected_at_construction() {
    let x = FeatureMatrix::from_rows(1, &[vec![1.0]]);
    let _ = EvalSet::new(&x, &[1.0], &[0.0]);
}
