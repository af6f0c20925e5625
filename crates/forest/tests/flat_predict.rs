//! Predict-side suites for the flat batch kernel (run in all three feature
//! configs by `cargo xtask fast`).
//!
//! The flat layout serves every forest's batch predictions (DESIGN.md §14):
//! per-tree leaf values are **bitwise identical** to the scalar descent and
//! to the frozen pointer kernel in `pwu_forest::reference` (same
//! comparisons, same leaves), and only the ensemble fold depends on the fit
//! mode — serial tree order for exact forests, so exact batch outputs equal
//! the scalar calls bit for bit; accumulator lanes for fast forests with
//! `fast-path` compiled. Every result is a pure function of the inputs —
//! byte-identical across pool widths and (with `sanitize`) deal orders.

use rand::Rng;

use pwu_forest::forest::Prediction;
use pwu_forest::{fold_lanes, reference, FitMode, Fold, ForestConfig, RandomForest, StridedPool};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

/// Mixed numeric/categorical dataset (same shape as the fit-side suite's:
/// counting column, continuous column, categorical column).
fn dataset(n: usize, seed: u64) -> (FeatureMatrix, Vec<FeatureKind>, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.gen_range(0..6) as f64;
        let b = rng.next_f64() * 10.0;
        let c = rng.gen_range(0..5) as f64;
        y.push(2.0 * a + 0.7 * b + if c >= 3.0 { 4.0 } else { 0.0 } + 0.5 * rng.next_f64());
        rows.push(vec![a, b, c]);
    }
    let kinds = vec![
        FeatureKind::Numeric,
        FeatureKind::Numeric,
        FeatureKind::Categorical { n_categories: 5 },
    ];
    let x = FeatureMatrix::from_rows(3, &rows);
    (x, kinds, y)
}

/// `d`-wide data whose last column is categorical (6 categories, strong
/// signal, so trees split on it) and whose other columns are numeric with
/// few levels (ties) — `d` spans every record stride of the kernel.
fn wide_dataset(n: usize, d: usize, seed: u64) -> (FeatureMatrix, Vec<FeatureKind>, Vec<f64>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut kinds = vec![FeatureKind::Numeric; d];
    kinds[d - 1] = FeatureKind::Categorical { n_categories: 6 };
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row: Vec<f64> = (0..d - 1).map(|f| rng.gen_range(0..4 + f % 5) as f64).collect();
        let cat = rng.gen_range(0..6);
        row.push(f64::from(cat));
        let signal: f64 = row[..d - 1].iter().enumerate().map(|(f, v)| v / (1.0 + f as f64)).sum();
        y.push(signal + if cat % 2 == 0 { 6.0 } else { 0.0 } + 0.3 * rng.next_f64());
        rows.push(row);
    }
    (FeatureMatrix::from_rows(d, &rows), kinds, y)
}

fn fast_config() -> ForestConfig {
    ForestConfig {
        n_trees: 30,
        fit_mode: FitMode::Fast,
        ..ForestConfig::default()
    }
}

fn batch_bits(preds: &[Prediction]) -> Vec<(u64, u64)> {
    preds.iter().map(|p| (p.mean.to_bits(), p.std.to_bits())).collect()
}

fn columns_bits(cols: &[Vec<f64>]) -> Vec<Vec<u64>> {
    cols.iter()
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// `(Σ, Σ²)` → `(μ, σ)` exactly as the forest's batch paths finish.
fn finish(sum: f64, second: f64, n: usize) -> Prediction {
    let n = n as f64;
    let mean = sum / n;
    let var = (second / n - mean * mean).max(0.0);
    Prediction {
        mean,
        std: var.sqrt(),
    }
}

/// Per-tree leaf values through the flat layout are bit-identical to the
/// frozen pointer kernel: `predict_columns` must not differ by a single ulp
/// from `reference::predict_columns_pointer` — over full ensembles,
/// subsets, and odd-sized tree groups, in both fit modes.
#[test]
fn flat_columns_match_pointer_descent_bitwise() {
    for seed in [1u64, 2, 3] {
        let (x, kinds, y) = dataset(350, seed);
        let (pool, _, _) = dataset(700, 40 + seed);
        for mode in [FitMode::Fast, FitMode::Exact] {
            let cfg = ForestConfig {
                fit_mode: mode,
                ..fast_config()
            };
            let forest = RandomForest::fit(&cfg, &kinds, &x, &y, seed);
            let all: Vec<usize> = (0..forest.trees().len()).collect();
            for idx in [&all[..], &all[..1], &all[3..10], &all[5..11]] {
                assert_eq!(
                    columns_bits(&forest.predict_columns(&pool, idx)),
                    columns_bits(&reference::predict_columns_pointer(&forest, &pool, idx)),
                    "seed {seed}, {mode:?}: flat and pointer columns diverged on {idx:?}"
                );
            }
        }
    }
}

/// The ensemble fold is the *only* divergence: with `fast-path` compiled,
/// the lane fold must differ from the pointer kernel's serial fold in its
/// last ulps on at least one pool row (else the lane fold is not being
/// taken, and the equivalence suites are vacuous); without the feature
/// fast forests fold serially and the batch predictions collapse to bitwise
/// equality.
#[test]
fn flat_fold_diverges_iff_fast_path_is_compiled() {
    let mut any_diff = false;
    for seed in [7u64, 8, 9] {
        let (x, kinds, y) = dataset(350, seed);
        let (pool, _, _) = dataset(700, 50 + seed);
        let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, seed);
        assert_eq!(fast.fast_predict(), cfg!(feature = "fast-path"));
        let a = batch_bits(&fast.predict_batch(&pool));
        let b = batch_bits(&reference::predict_batch_pointer(&fast, &pool));
        if cfg!(feature = "fast-path") {
            any_diff |= a != b;
        } else {
            assert_eq!(a, b, "seed {seed}: without fast-path the folds must agree");
        }
        // Means must agree with the full predictions' means in every config.
        let means: Vec<u64> = fast
            .predict_batch_mean(&pool)
            .iter()
            .map(|m| m.to_bits())
            .collect();
        assert_eq!(means, a.iter().map(|&(m, _)| m).collect::<Vec<_>>());
    }
    if cfg!(feature = "fast-path") {
        assert!(any_diff, "flat lane fold never diverged from the serial fold");
    }
}

/// `with_fit_mode` swaps the fold in place: Fast→Exact folds serially
/// (predictions become bitwise the pointer kernel's), Exact→Fast returns
/// to the lane fold bit-for-bit, and the trees themselves never change.
#[test]
fn with_fit_mode_swaps_the_predict_kernel_in_place() {
    let (x, kinds, y) = dataset(300, 21);
    let (pool, _, _) = dataset(500, 22);
    let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, 5);
    let fast_preds = batch_bits(&fast.predict_batch(&pool));

    let demoted = fast.clone().with_fit_mode(FitMode::Exact);
    assert!(!demoted.fast_predict());
    assert_eq!(demoted.fold(), Fold::Serial);
    assert_eq!(
        batch_bits(&demoted.predict_batch(&pool)),
        batch_bits(&reference::predict_batch_pointer(&fast, &pool)),
        "Exact-mode swap must fold like the serial pointer kernel"
    );

    let promoted = demoted.with_fit_mode(FitMode::Fast);
    assert_eq!(promoted.fast_predict(), cfg!(feature = "fast-path"));
    assert_eq!(
        batch_bits(&promoted.predict_batch(&pool)),
        fast_preds,
        "round-tripping the fit mode must restore the fold bitwise"
    );

    // An exact-fit forest never folds through lanes.
    let exact_cfg = ForestConfig {
        n_trees: 30,
        ..ForestConfig::default()
    };
    assert!(!RandomForest::fit(&exact_cfg, &kinds, &x, &y, 5).fast_predict());
}

/// Partial refits keep the flat layout coherent: after `update`, the flat
/// columns must equal the pointer kernel's over the updated trees, and the
/// batch predictions must equal the model's fold of those columns — in
/// both fit modes.
#[test]
fn partial_update_recompiles_flat_trees_coherently() {
    let (x, kinds, y) = dataset(300, 31);
    let (x2, _, y2) = dataset(320, 32);
    let (pool, _, _) = dataset(500, 33);
    for mode in [FitMode::Fast, FitMode::Exact] {
        let cfg = ForestConfig {
            fit_mode: mode,
            ..fast_config()
        };
        let mut forest = RandomForest::fit(&cfg, &kinds, &x, &y, 13);
        let all: Vec<usize> = (0..forest.trees().len()).collect();
        for step in 0..3u64 {
            forest.update(&kinds, &x2, &y2, 7, 200 + step);
            let pointer = reference::predict_columns_pointer(&forest, &pool, &all);
            assert_eq!(
                columns_bits(&forest.predict_columns(&pool, &all)),
                columns_bits(&pointer),
                "{mode:?} step {step}: recompiled flat trees drifted from the updated trees"
            );
            let folded: Vec<Prediction> =
                pwu_forest::fold_columns(&pointer, pool.n_rows(), forest.fold())
                    .into_iter()
                    .map(|(s, ss)| finish(s, ss, all.len()))
                    .collect();
            assert_eq!(
                batch_bits(&forest.predict_batch(&pool)),
                batch_bits(&folded),
                "{mode:?} step {step}: batch fold drifted from the column fold"
            );
        }
    }
}

/// Batch total-variance on an exact forest is bit-identical to the scalar
/// fold; on a fast forest it must agree with `predict_batch` on the mean
/// and dominate its across-tree σ (law of total variance).
#[test]
fn batch_total_variance_matches_its_contract() {
    let (x, kinds, y) = dataset(300, 41);
    let (pool, _, _) = dataset(400, 42);
    let exact_cfg = ForestConfig {
        n_trees: 24,
        ..ForestConfig::default()
    };
    let exact = RandomForest::fit(&exact_cfg, &kinds, &x, &y, 3);
    let scalar: Vec<Prediction> = (0..pool.n_rows())
        .map(|i| exact.predict_total_variance(&pool.row(i)))
        .collect();
    assert_eq!(
        batch_bits(&exact.predict_batch_total_variance(&pool)),
        batch_bits(&scalar),
        "exact batch total-variance must replicate the scalar fold bitwise"
    );

    let fast = RandomForest::fit(&fast_config(), &kinds, &x, &y, 3);
    let tv = fast.predict_batch_total_variance(&pool);
    let mu = fast.predict_batch(&pool);
    for (i, (t, m)) in tv.iter().zip(&mu).enumerate() {
        assert_eq!(
            t.mean.to_bits(),
            m.mean.to_bits(),
            "row {i}: total-variance fold changed the mean"
        );
        assert!(
            t.std + 1e-12 >= m.std,
            "row {i}: total variance {} below across-tree variance {}",
            t.std,
            m.std
        );
    }
}

/// Every batch path of an exact forest equals its scalar oracle bitwise, at
/// every record stride of the kernel (widths 3 and 16 narrow, 17 and 64
/// wide, 65 the general stride), with categorical splits, at tree counts 1,
/// 3 and 64, and at row counts that are multiples of neither the 16-row
/// block nor the 512-row chunk. Fast forests land on the same per-tree
/// values and fold them per `fold_lanes` (or serially without
/// `fast-path`).
#[test]
fn batch_paths_match_scalar_oracles_at_every_width() {
    for d in [3usize, 16, 17, 64, 65] {
        let (x, kinds, y) = wide_dataset(160, d, 70 + d as u64);
        let (pool, _, _) = wide_dataset(533, d, 170 + d as u64);
        for n_trees in [1usize, 3, 64] {
            let exact_cfg = ForestConfig {
                n_trees,
                ..ForestConfig::default()
            };
            let exact = RandomForest::fit(&exact_cfg, &kinds, &x, &y, d as u64);
            assert!(
                exact.trees().iter().any(|t| t.split_gains().iter().any(|&(f, _)| f as usize == d - 1)),
                "d {d}, {n_trees} trees: no tree splits on the categorical column"
            );
            let batch = exact.predict_batch(&pool);
            let means = exact.predict_batch_mean(&pool);
            let tv = exact.predict_batch_total_variance(&pool);
            let all: Vec<usize> = (0..n_trees).collect();
            let cols = exact.predict_columns(&pool, &all);
            let strided = exact.predict_columns_strided(&StridedPool::new(&pool), &all);
            assert_eq!(columns_bits(&strided), columns_bits(&cols), "d {d}, {n_trees} trees");
            for i in 0..pool.n_rows() {
                let one = exact.predict_one_at(&pool, i);
                let ctx = format!("d {d}, {n_trees} trees, row {i}");
                assert_eq!(batch_bits(&[batch[i]]), batch_bits(&[one]), "batch, {ctx}");
                assert_eq!(means[i].to_bits(), one.mean.to_bits(), "mean, {ctx}");
                let scalar_tv = exact.predict_total_variance(&pool.row(i));
                assert_eq!(batch_bits(&[tv[i]]), batch_bits(&[scalar_tv]), "total variance, {ctx}");
                for (t, col) in cols.iter().enumerate() {
                    assert_eq!(
                        col[i].to_bits(),
                        exact.trees()[t].predict_at(&pool, i).to_bits(),
                        "column {t}, {ctx}"
                    );
                }
            }

            let fast_cfg = ForestConfig {
                fit_mode: FitMode::Fast,
                ..exact_cfg
            };
            let fast = RandomForest::fit(&fast_cfg, &kinds, &x, &y, d as u64);
            let batch = fast.predict_batch(&pool);
            for (i, p) in batch.iter().enumerate() {
                let values = fast.trees().iter().map(|t| t.predict_at(&pool, i));
                let want = if fast.fast_predict() {
                    let (s, ss) = fold_lanes(values);
                    finish(s, ss, n_trees)
                } else {
                    fast.predict_one_at(&pool, i)
                };
                assert_eq!(
                    batch_bits(&[*p]),
                    batch_bits(&[want]),
                    "fast batch, d {d}, {n_trees} trees, row {i}"
                );
            }
        }
    }
}

/// `StridedPool::swap_remove` keeps records aligned with a pool that loses
/// rows by `swap_remove`, at every record stride.
#[test]
fn strided_pool_removals_track_the_pool() {
    for d in [3usize, 17, 65] {
        let (x, kinds, y) = wide_dataset(120, d, 90 + d as u64);
        let (pool, _, _) = wide_dataset(75, d, 190 + d as u64);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 5,
                ..ForestConfig::default()
            },
            &kinds,
            &x,
            &y,
            1,
        );
        let mut rows: Vec<Vec<f64>> = (0..pool.n_rows()).map(|i| pool.row(i)).collect();
        let mut strided = StridedPool::new(&pool);
        for i in [0usize, 40, 72, 10, 60] {
            rows.swap_remove(i);
            strided.swap_remove(i);
        }
        assert_eq!(strided.n_rows(), rows.len());
        let remaining = FeatureMatrix::from_rows(d, &rows);
        let all: Vec<usize> = (0..5).collect();
        assert_eq!(
            columns_bits(&forest.predict_columns_strided(&strided, &all)),
            columns_bits(&forest.predict_columns(&remaining, &all)),
            "d {d}: records drifted from the pool after removals"
        );
    }
}

/// Fast batch prediction and column scoring are width-invariant: the
/// `PWU_THREADS` pool width must never leak into a single bit of the
/// scored pool.
#[test]
fn fast_predict_is_width_invariant() {
    let (x, kinds, y) = dataset(300, 51);
    let (pool, _, _) = dataset(1200, 52);
    let forest = RandomForest::fit(&fast_config(), &kinds, &x, &y, 9);
    let all: Vec<usize> = (0..forest.trees().len()).collect();
    let before = rayon::current_num_threads();
    rayon::set_threads(1);
    let base_batch = batch_bits(&forest.predict_batch(&pool));
    let base_cols = columns_bits(&forest.predict_columns(&pool, &all));
    let base_tv = batch_bits(&forest.predict_batch_total_variance(&pool));
    for width in [2usize, 4, 8] {
        rayon::set_threads(width);
        assert_eq!(
            batch_bits(&forest.predict_batch(&pool)),
            base_batch,
            "predict_batch drifted at width {width}"
        );
        assert_eq!(
            columns_bits(&forest.predict_columns(&pool, &all)),
            base_cols,
            "predict_columns drifted at width {width}"
        );
        assert_eq!(
            batch_bits(&forest.predict_batch_total_variance(&pool)),
            base_tv,
            "predict_batch_total_variance drifted at width {width}"
        );
    }
    rayon::set_threads(before);
}

/// With the runtime sanitizer compiled in, fast pool scoring must be
/// byte-identical across every deal-order perturbation × pool width —
/// the schedule must not be observable through the predict side either
/// (mirror of the fit-side `fast_fit_is_deal_order_invariant`).
#[cfg(feature = "sanitize")]
#[test]
fn fast_predict_is_deal_order_invariant() {
    use rayon::sanitize::DealMode;
    let (x, kinds, y) = dataset(300, 61);
    let (pool, _, _) = dataset(1100, 62);
    let forest = RandomForest::fit(&fast_config(), &kinds, &x, &y, 17);
    let all: Vec<usize> = (0..forest.trees().len()).collect();
    let before = rayon::current_num_threads();
    rayon::set_threads(1);
    rayon::sanitize::set_deal_mode(DealMode::RoundRobin);
    let base_batch = batch_bits(&forest.predict_batch(&pool));
    let base_cols = columns_bits(&forest.predict_columns(&pool, &all));
    for deal in [
        DealMode::RoundRobin,
        DealMode::Blocked,
        DealMode::Reversed,
        DealMode::Shuffled(0xF1A7),
    ] {
        for width in [1usize, 2, 4, 8] {
            rayon::set_threads(width);
            rayon::sanitize::set_deal_mode(deal);
            assert_eq!(
                batch_bits(&forest.predict_batch(&pool)),
                base_batch,
                "predict_batch drifted at width {width} under {deal:?}"
            );
            assert_eq!(
                columns_bits(&forest.predict_columns(&pool, &all)),
                base_cols,
                "predict_columns drifted at width {width} under {deal:?}"
            );
        }
    }
    rayon::sanitize::set_deal_mode(DealMode::RoundRobin);
    rayon::set_threads(before);
}
