//! Tail handling in the blocked batch predictors.
//!
//! `predict_batch`/`predict_batch_mean`/`predict_columns` descend rows 16
//! at a time in 512-row chunks and, under the fast fold, spread trees over
//! four accumulator lanes. These tests pin the contract for every
//! `n_trees % 4` residue — including the degenerate 1-tree forest — and for
//! row counts that fill neither a block nor a chunk, by comparing each
//! batch path of an exact forest bitwise against its scalar oracle.

use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::Xoshiro256PlusPlus;

fn dataset(n: usize, d: usize, seed: u64) -> (FeatureMatrix, Vec<FeatureKind>, Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..d).map(|_| rng.next_f64() * 8.0).collect();
        y.push(row.iter().sum::<f64>() + rng.next_f64());
        rows.push(row);
    }
    let x = FeatureMatrix::from_rows(d, &rows);
    (x, vec![FeatureKind::Numeric; d], y, rows)
}

fn forest_with(n_trees: usize) -> (RandomForest, FeatureMatrix, Vec<Vec<f64>>) {
    let (x, kinds, y, rows) = dataset(120, 5, 40 + n_trees as u64);
    let config = ForestConfig {
        n_trees,
        ..ForestConfig::default()
    };
    (RandomForest::fit(&config, &kinds, &x, &y, 17), x, rows)
}

/// Every residue class mod 4, plus the 1-tree forest: the chunked batch
/// traversal must be bit-identical to per-row `predict_one`.
#[test]
fn predict_batch_matches_predict_one_for_every_tail_width() {
    for n_trees in [1, 2, 3, 4, 5, 6, 7, 8, 9] {
        let (forest, x, rows) = forest_with(n_trees);
        let batch = forest.predict_batch(&x);
        assert_eq!(batch.len(), rows.len());
        for (row, p) in rows.iter().zip(&batch) {
            let q = forest.predict_one(row);
            assert_eq!(
                (p.mean.to_bits(), p.std.to_bits()),
                (q.mean.to_bits(), q.std.to_bits()),
                "batch prediction drifted with {n_trees} trees"
            );
        }
        let means = forest.predict_batch_mean(&x);
        for (row, m) in rows.iter().zip(&means) {
            assert_eq!(m.to_bits(), forest.predict(row).to_bits());
        }
    }
}

/// `predict_columns` must reproduce each requested tree's own `predict`
/// bitwise, for any subset and order of trees: full quads, partial tails,
/// and a single tree.
#[test]
fn predict_columns_tail_groups_match_single_tree_predictions() {
    let (forest, x, rows) = forest_with(7);
    for tree_idx in [vec![0], vec![0, 1, 2, 3, 4], vec![6, 2, 5], (0..7).collect::<Vec<_>>()] {
        let cols = forest.predict_columns(&x, &tree_idx);
        assert_eq!(cols.len(), tree_idx.len());
        for (k, &t) in tree_idx.iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    cols[k][i].to_bits(),
                    forest.trees()[t].predict(row).to_bits(),
                    "column for tree {t} drifted (group layout {tree_idx:?})"
                );
            }
        }
    }
}

/// Row counts around the 16-row block and the 512-row chunk: tail blocks
/// pad their surplus lanes and tail chunks are short, and neither may leak
/// into the returned rows. Batch, mean, total-variance and column outputs
/// of an exact forest must equal the scalar calls bitwise, at a narrow
/// (d = 5) and at the general-stride (d = 70) width.
#[test]
fn batch_paths_match_scalar_calls_at_row_tails() {
    for d in [5usize, 70] {
        let (x, kinds, y, _) = dataset(150, d, 60 + d as u64);
        let config = ForestConfig {
            n_trees: 6,
            ..ForestConfig::default()
        };
        let forest = RandomForest::fit(&config, &kinds, &x, &y, 23);
        let all: Vec<usize> = (0..6).collect();
        for n_rows in [1usize, 15, 17, 511, 513, 1031] {
            let (pool, _, _, rows) = dataset(n_rows, d, 900 + n_rows as u64);
            let batch = forest.predict_batch(&pool);
            let means = forest.predict_batch_mean(&pool);
            let tv = forest.predict_batch_total_variance(&pool);
            let cols = forest.predict_columns(&pool, &all);
            assert_eq!(
                (batch.len(), means.len(), tv.len(), cols[5].len()),
                (n_rows, n_rows, n_rows, n_rows)
            );
            for (i, row) in rows.iter().enumerate() {
                let ctx = format!("d {d}, {n_rows} rows, row {i}");
                let q = forest.predict_one(row);
                assert_eq!(
                    (batch[i].mean.to_bits(), batch[i].std.to_bits()),
                    (q.mean.to_bits(), q.std.to_bits()),
                    "batch, {ctx}"
                );
                assert_eq!(means[i].to_bits(), q.mean.to_bits(), "mean, {ctx}");
                let t = forest.predict_total_variance(row);
                assert_eq!(
                    (tv[i].mean.to_bits(), tv[i].std.to_bits()),
                    (t.mean.to_bits(), t.std.to_bits()),
                    "total variance, {ctx}"
                );
                for (k, col) in cols.iter().enumerate() {
                    assert_eq!(
                        col[i].to_bits(),
                        forest.trees()[k].predict(row).to_bits(),
                        "column {k}, {ctx}"
                    );
                }
            }
        }
    }
}

/// A 1-tree forest's summary statistics: the ensemble std must be exactly
/// zero (one sample has no spread) and the mean must be that tree's output.
#[test]
fn one_tree_forest_prediction_is_the_tree_prediction() {
    let (forest, x, rows) = forest_with(1);
    let batch = forest.predict_batch(&x);
    for (row, p) in rows.iter().zip(&batch) {
        assert_eq!(p.mean.to_bits(), forest.trees()[0].predict(row).to_bits());
        assert_eq!(p.std, 0.0, "single-tree ensemble must report zero spread");
    }
    let _ = x;
}

/// A feature matrix narrower than the forest is rejected, not scored from
/// unset record slots.
#[test]
#[should_panic(expected = "columns, the forest needs 5")]
fn narrower_feature_matrix_is_rejected() {
    let (forest, _, rows) = forest_with(3);
    let narrow: Vec<Vec<f64>> = rows.iter().map(|r| r[..4].to_vec()).collect();
    let _ = forest.predict_batch(&FeatureMatrix::from_rows(4, &narrow));
}
