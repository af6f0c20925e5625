//! The pre-overhaul fit path, kept verbatim as a bit-identity oracle and
//! performance baseline.
//!
//! This module preserves the original row-major (`&[Vec<f64>]`) forest
//! implementation exactly as it was before the flat-matrix/presorted-splitter
//! overhaul: recursive growth, a fresh `sort_unstable_by` per node per
//! numeric feature, two fresh row vectors per partition, and the two-pass
//! leaf statistics. It exists for two reasons:
//!
//! 1. **Equivalence testing** — the refactored hot path must produce
//!    bit-identical trees; `tests/reference_equivalence.rs` grows forests
//!    through both paths and compares every per-tree prediction bitwise.
//! 2. **Performance baseline** — `cargo xtask perf` measures this path
//!    against the optimized one on the same machine in the same process, so
//!    the recorded speedups in `BENCH_forest.json` are reproducible anywhere
//!    rather than being a snapshot of one historical host.
//!
//! The pointer batch-predict kernel ([`predict_batch_pointer`],
//! [`predict_columns_pointer`]: chunked row-major scratch, four trees
//! descended in lock step per row) lives here too, frozen as the baseline
//! of the flat kernel that now serves every forest's batch predictions.
//!
//! The bit-identity holds by construction, not by luck (see DESIGN.md §9):
//! the optimized path re-sorts each node's rows with monotone integer keys
//! that answer every comparison exactly as `f64::partial_cmp` did here, so
//! `sort_unstable_by` reproduces the historical permutation — including how
//! it orders *tied* feature values, which genuinely decide splits whenever
//! two candidate gains tie exactly. The golden-snapshot and equivalence
//! suites verify this end to end.

use rand::Rng;
use rayon::prelude::*;

use pwu_space::{FeatureKind, FeatureMatrix};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::forest::{bootstrap_rows, Prediction, RandomForest};
use crate::hyper::ForestConfig;
use crate::split::{Split, SplitRule};
use crate::tree::{LeafStats, Node, RegressionTree};

/// Fits a forest through the historical row-major path.
///
/// Same contract as [`RandomForest::fit`]; only the internals differ.
///
/// # Panics
/// Panics on empty data, mismatched lengths, non-finite targets, or an
/// invalid configuration.
#[must_use]
pub fn fit(
    config: &ForestConfig,
    kinds: &[FeatureKind],
    x: &[Vec<f64>],
    y: &[f64],
    seed: u64,
) -> RandomForest {
    config.validate();
    assert!(!x.is_empty(), "cannot fit a forest on zero rows");
    assert_eq!(x.len(), y.len(), "feature/target length mismatch");
    assert_eq!(
        x[0].len(),
        kinds.len(),
        "feature row width does not match kinds"
    );
    assert!(y.iter().all(|v| v.is_finite()), "targets must be finite");

    let n = x.len();
    let mut trees = Vec::with_capacity(config.n_trees);
    let mut oob_rows = Vec::with_capacity(config.n_trees);
    for t in 0..config.n_trees {
        let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, t as u64));
        let (rows, oob) = if config.bootstrap {
            bootstrap_rows(n, &mut rng)
        } else {
            ((0..n as u32).collect(), Vec::new())
        };
        trees.push(fit_tree(x, y, &rows, kinds, config, &mut rng));
        oob_rows.push(oob);
    }
    RandomForest::from_parts(trees, oob_rows, *config, kinds.len())
}

/// Partially updates a forest through the historical path (the counterpart
/// of [`RandomForest::update`]); regrows `n_refit` trees on `(x, y)`.
///
/// # Panics
/// As [`RandomForest::update`].
pub fn update(
    forest: &mut RandomForest,
    kinds: &[FeatureKind],
    x: &[Vec<f64>],
    y: &[f64],
    n_refit: usize,
    seed: u64,
) -> Vec<usize> {
    assert!(!x.is_empty(), "cannot update on zero rows");
    assert_eq!(x.len(), y.len(), "feature/target length mismatch");
    assert!(n_refit > 0, "must refit at least one tree");
    let n_refit = n_refit.min(forest.trees().len());
    let n = x.len();
    let config = *forest.config();
    let mut pick_rng = Xoshiro256PlusPlus::new(derive_seed(seed, 0xFEED));
    let mut order: Vec<usize> = (0..forest.trees().len()).collect();
    for i in 0..n_refit {
        let j = i + (pick_rng.next() as usize) % (order.len() - i);
        order.swap(i, j);
    }
    for &t in &order[..n_refit] {
        let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, t as u64));
        let (rows, oob) = if config.bootstrap {
            bootstrap_rows(n, &mut rng)
        } else {
            ((0..n as u32).collect(), Vec::new())
        };
        let tree = fit_tree(x, y, &rows, kinds, &config, &mut rng);
        forest.replace_tree(t, tree, oob);
    }
    order.truncate(n_refit);
    order
}

/// Batch prediction through the historical row-major path.
#[must_use]
pub fn predict_batch(forest: &RandomForest, rows: &[Vec<f64>]) -> Vec<Prediction> {
    rows.iter().map(|r| forest.predict_one(r)).collect()
}

/// Batch prediction through the pointer kernel the forest used before the
/// flat layout served every batch: rows chunked across the pool, each chunk
/// transposed into a row-major scratch, four trees descended in lock step
/// per row ([`predict4`]), leaf means folded serially in tree order.
/// Frozen as the benchmark baseline of the flat kernel; bit-identical to
/// [`RandomForest::predict_one_at`].
#[must_use]
pub fn predict_batch_pointer(forest: &RandomForest, x: &FeatureMatrix) -> Vec<Prediction> {
    let trees = forest.trees();
    let n = trees.len() as f64;
    let starts: Vec<usize> = (0..x.n_rows()).step_by(POINTER_CHUNK).collect();
    let per_chunk: Vec<Vec<Prediction>> = starts
        .par_iter()
        .map(|&start| {
            let end = (start + POINTER_CHUNK).min(x.n_rows());
            let rowbuf = row_major(x, start, end);
            let d = x.n_cols().max(1);
            let m = end - start;
            let mut sum = vec![0.0f64; m];
            let mut sum_sq = vec![0.0f64; m];
            let mut quads = trees.chunks_exact(4);
            for quad in &mut quads {
                let quad = [&quad[0], &quad[1], &quad[2], &quad[3]];
                for (j, row) in rowbuf.chunks_exact(d).enumerate() {
                    for p in predict4(quad, row) {
                        sum[j] += p;
                        sum_sq[j] += p * p;
                    }
                }
            }
            for tree in quads.remainder() {
                for (j, row) in rowbuf.chunks_exact(d).enumerate() {
                    let p = tree.predict(row);
                    sum[j] += p;
                    sum_sq[j] += p * p;
                }
            }
            sum.iter()
                .zip(&sum_sq)
                .map(|(&s, &ss)| {
                    let mean = s / n;
                    let var = (ss / n - mean * mean).max(0.0);
                    Prediction {
                        mean,
                        std: var.sqrt(),
                    }
                })
                .collect()
        })
        .collect();
    per_chunk.into_iter().flatten().collect()
}

/// Per-tree point-prediction columns through the pointer kernel (four trees
/// per [`predict4`] pass, the rest one at a time): the frozen baseline of
/// `RandomForest::predict_columns`. `out[k][i]` is tree `tree_idx[k]`'s
/// prediction for row `i`.
///
/// # Panics
/// Panics if a tree index is out of range.
#[must_use]
pub fn predict_columns_pointer(
    forest: &RandomForest,
    x: &FeatureMatrix,
    tree_idx: &[usize],
) -> Vec<Vec<f64>> {
    let trees = forest.trees();
    let n_rows = x.n_rows();
    let d = x.n_cols().max(1);
    let groups: Vec<&[usize]> = tree_idx.chunks(4).collect();
    let cols: Vec<Vec<Vec<f64>>> = groups
        .par_iter()
        .map(|idxs| {
            let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(n_rows); idxs.len()];
            for start in (0..n_rows).step_by(POINTER_CHUNK) {
                let rowbuf = row_major(x, start, (start + POINTER_CHUNK).min(n_rows));
                if let [a, b, c, e] = **idxs {
                    let quad = [&trees[a], &trees[b], &trees[c], &trees[e]];
                    for row in rowbuf.chunks_exact(d) {
                        for (col, p) in cols.iter_mut().zip(predict4(quad, row)) {
                            col.push(p);
                        }
                    }
                } else {
                    for (col, &t) in cols.iter_mut().zip(*idxs) {
                        col.extend(rowbuf.chunks_exact(d).map(|row| trees[t].predict(row)));
                    }
                }
            }
            cols
        })
        .collect();
    cols.into_iter().flatten().collect()
}

/// Folds cached per-tree columns into `(μ, σ)` per row by the per-row
/// serial gather the incremental pool-score cache used for exact models
/// before the blocked column fold: bit-identical to
/// [`RandomForest::predict_one_at`] over the same per-tree values. Frozen
/// as a benchmark baseline.
#[must_use]
pub fn fold_columns_rowwise(columns: &[Vec<f64>], n_rows: usize) -> Vec<Prediction> {
    let n = columns.len() as f64;
    (0..n_rows)
        .into_par_iter()
        .map(|i| {
            let mut sum = 0.0;
            let mut sum_sq = 0.0;
            for col in columns {
                let p = col[i];
                sum += p;
                sum_sq += p * p;
            }
            let mean = sum / n;
            let var = (sum_sq / n - mean * mean).max(0.0);
            Prediction {
                mean,
                std: var.sqrt(),
            }
        })
        .collect()
}

/// Rows per chunk of the pointer kernel.
const POINTER_CHUNK: usize = 512;

/// Rows `start..end` of `x` in row-major order (`d` values per row; one
/// zero per row when `x` has no columns, so `chunks_exact` stays valid).
fn row_major(x: &FeatureMatrix, start: usize, end: usize) -> Vec<f64> {
    let d = x.n_cols().max(1);
    let mut rowbuf = vec![0.0f64; (end - start) * d];
    for f in 0..x.n_cols() {
        for (j, &v) in x.column(f)[start..end].iter().enumerate() {
            rowbuf[j * d + f] = v;
        }
    }
    rowbuf
}

/// Descends `row` through four trees in lock step, returning the four
/// leaf means in tree order.
///
/// Functionally identical to four [`RegressionTree::predict`] calls; the
/// interleaving exists purely so the four serial node-load chains overlap
/// in the memory pipeline (batch prediction is latency-bound, not
/// compute-bound).
fn predict4(trees: [&RegressionTree; 4], row: &[f64]) -> [f64; 4] {
    let mut idx = [0usize; 4];
    let mut out = [0.0f64; 4];
    let mut pending = [true; 4];
    loop {
        let mut any = false;
        for k in 0..4 {
            if pending[k] {
                match &trees[k].nodes()[idx[k]] {
                    Node::Leaf(stats) => {
                        out[k] = stats.mean;
                        pending[k] = false;
                    }
                    Node::Internal {
                        feature,
                        rule,
                        left,
                        right,
                    } => {
                        idx[k] = if rule.goes_left(row[*feature as usize]) {
                            *left as usize
                        } else {
                            *right as usize
                        };
                        any = true;
                    }
                }
            }
        }
        if !any {
            return out;
        }
    }
}


/// Grows one tree exactly as the historical `RegressionTree::fit` did.
///
/// # Panics
/// Panics if `rows` is empty.
#[must_use]
pub fn fit_tree(
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[u32],
    kinds: &[FeatureKind],
    config: &ForestConfig,
    rng: &mut Xoshiro256PlusPlus,
) -> RegressionTree {
    assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
    debug_assert!(rows.iter().all(|&r| y[r as usize].is_finite()));
    let mtry = config.mtry.resolve(kinds.len());
    let mut builder = Builder {
        nodes: Vec::new(),
        split_gains: Vec::new(),
    };
    let mut scratch = Scratch::default();
    let mut feature_ids: Vec<usize> = (0..kinds.len()).collect();
    builder.grow(
        x,
        y,
        rows,
        kinds,
        config,
        mtry,
        rng,
        &mut scratch,
        &mut feature_ids,
        0,
    );
    RegressionTree::from_raw(builder.nodes, builder.split_gains)
}

struct Builder {
    nodes: Vec<Node>,
    split_gains: Vec<(u32, f64)>,
}

impl Builder {
    /// Recursive growth; returns the arena index of the subtree root.
    #[allow(clippy::too_many_arguments)]
    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[u32],
        kinds: &[FeatureKind],
        config: &ForestConfig,
        mtry: usize,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut Scratch,
        feature_ids: &mut [usize],
        depth: u32,
    ) -> u32 {
        let stop = rows.len() < config.min_split
            || config.max_depth.is_some_and(|d| depth >= d)
            || constant_targets(y, rows);
        let split = if stop {
            None
        } else {
            self.pick_split(x, y, rows, kinds, mtry, rng, scratch, feature_ids, config)
        };

        match split {
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf(leaf_stats(y, rows)));
                idx
            }
            Some(split) => {
                let (left_rows, right_rows) = partition(x, rows, &split);
                debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());
                self.split_gains.push((split.feature as u32, split.gain));
                let idx = self.nodes.len() as u32;
                // Reserve the slot, then grow children.
                self.nodes.push(Node::Leaf(LeafStats {
                    mean: 0.0,
                    variance: 0.0,
                    count: 0,
                }));
                let left = self.grow(
                    x,
                    y,
                    &left_rows,
                    kinds,
                    config,
                    mtry,
                    rng,
                    scratch,
                    feature_ids,
                    depth + 1,
                );
                let right = self.grow(
                    x,
                    y,
                    &right_rows,
                    kinds,
                    config,
                    mtry,
                    rng,
                    scratch,
                    feature_ids,
                    depth + 1,
                );
                self.nodes[idx as usize] = Node::Internal {
                    feature: split.feature as u32,
                    rule: split.rule,
                    left,
                    right,
                };
                idx
            }
        }
    }

    /// Chooses the best split among a random `mtry`-subset of features.
    #[allow(clippy::too_many_arguments)]
    fn pick_split(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[u32],
        kinds: &[FeatureKind],
        mtry: usize,
        rng: &mut Xoshiro256PlusPlus,
        scratch: &mut Scratch,
        feature_ids: &mut [usize],
        config: &ForestConfig,
    ) -> Option<Split> {
        // Partial Fisher–Yates: the first `mtry` entries become the subset.
        let d = feature_ids.len();
        for i in 0..mtry.min(d) {
            let j = rng.gen_range(i..d);
            feature_ids.swap(i, j);
        }
        let mut best: Option<Split> = None;
        for &f in &feature_ids[..mtry.min(d)] {
            let s = match kinds[f] {
                FeatureKind::Numeric => best_numeric_split(x, y, rows, f, config.min_leaf, scratch),
                FeatureKind::Categorical { n_categories } => {
                    best_categorical_split(x, y, rows, f, n_categories, config.min_leaf, scratch)
                }
            };
            if let Some(s) = s {
                if best.as_ref().is_none_or(|b| s.gain > b.gain) {
                    best = Some(s);
                }
            }
        }
        best
    }
}

fn constant_targets(y: &[f64], rows: &[u32]) -> bool {
    let first = y[rows[0] as usize];
    rows.iter().all(|&r| y[r as usize] == first)
}

/// The historical two-pass leaf statistics (sum, then squared deviations).
#[must_use]
pub fn leaf_stats(y: &[f64], rows: &[u32]) -> LeafStats {
    let n = rows.len() as f64;
    let sum: f64 = rows.iter().map(|&r| y[r as usize]).sum();
    let mean = sum / n;
    let var = rows
        .iter()
        .map(|&r| {
            let d = y[r as usize] - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    LeafStats {
        mean,
        variance: var,
        count: rows.len() as u32,
    }
}

fn partition(x: &[Vec<f64>], rows: &[u32], split: &Split) -> (Vec<u32>, Vec<u32>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &r in rows {
        if split.rule.goes_left(x[r as usize][split.feature]) {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    (left, right)
}

/// Reusable scratch buffers for the historical split search.
#[derive(Debug, Default)]
struct Scratch {
    order: Vec<u32>,
    cat_sum: Vec<f64>,
    cat_count: Vec<u32>,
    cat_order: Vec<usize>,
}

fn best_numeric_split(
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[u32],
    feature: usize,
    min_leaf: usize,
    scratch: &mut Scratch,
) -> Option<Split> {
    let n = rows.len();
    if n < 2 * min_leaf {
        return None;
    }
    debug_assert!(
        rows.iter().all(|&r| !x[r as usize][feature].is_nan()),
        "NaN feature value reached the splitter"
    );
    let order = &mut scratch.order;
    order.clear();
    order.extend_from_slice(rows);
    order.sort_unstable_by(|&a, &b| {
        x[a as usize][feature]
            .partial_cmp(&x[b as usize][feature])
            .expect("NaN feature value")
    });

    let total: f64 = rows.iter().map(|&r| y[r as usize]).sum();
    let n_f = n as f64;
    let base = total * total / n_f;

    let mut left_sum = 0.0;
    let mut best: Option<(f64, f64)> = None; // (gain, threshold)
    for i in 0..n - 1 {
        let r = order[i] as usize;
        left_sum += y[r];
        let xl = x[r][feature];
        let xr = x[order[i + 1] as usize][feature];
        if xl == xr {
            continue; // cannot separate equal values
        }
        let n_l = (i + 1) as f64;
        let n_r = n_f - n_l;
        if (i + 1) < min_leaf || (n - i - 1) < min_leaf {
            continue;
        }
        let right_sum = total - left_sum;
        let gain = left_sum * left_sum / n_l + right_sum * right_sum / n_r - base;
        if gain > best.map_or(0.0, |b| b.0) {
            best = Some((gain, 0.5 * (xl + xr)));
        }
    }
    best.map(|(gain, threshold)| Split {
        feature,
        rule: SplitRule::Threshold(threshold),
        gain,
    })
}

fn best_categorical_split(
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[u32],
    feature: usize,
    n_categories: usize,
    min_leaf: usize,
    scratch: &mut Scratch,
) -> Option<Split> {
    assert!(
        n_categories <= 64,
        "categorical features are limited to 64 categories, got {n_categories}"
    );
    let n = rows.len();
    if n < 2 * min_leaf {
        return None;
    }
    let sums = &mut scratch.cat_sum;
    let counts = &mut scratch.cat_count;
    sums.clear();
    sums.resize(n_categories, 0.0);
    counts.clear();
    counts.resize(n_categories, 0);
    for &r in rows {
        let c = x[r as usize][feature] as usize;
        debug_assert!(c < n_categories, "category {c} out of range");
        sums[c] += y[r as usize];
        counts[c] += 1;
    }

    // Order the categories present in this node by mean target (Fisher).
    let order = &mut scratch.cat_order;
    order.clear();
    order.extend((0..n_categories).filter(|&c| counts[c] > 0));
    if order.len() < 2 {
        return None;
    }
    order.sort_unstable_by(|&a, &b| {
        let ma = sums[a] / f64::from(counts[a]);
        let mb = sums[b] / f64::from(counts[b]);
        ma.partial_cmp(&mb).expect("NaN category mean")
    });

    let total: f64 = sums.iter().sum();
    let n_f = n as f64;
    let base = total * total / n_f;

    let mut left_sum = 0.0;
    let mut left_count = 0u32;
    let mut mask = 0u64;
    let mut best: Option<(f64, u64)> = None;
    for &c in &order[..order.len() - 1] {
        left_sum += sums[c];
        left_count += counts[c];
        mask |= 1 << c;
        let n_l = f64::from(left_count);
        let n_r = n_f - n_l;
        if (left_count as usize) < min_leaf || (n - left_count as usize) < min_leaf {
            continue;
        }
        let right_sum = total - left_sum;
        let gain = left_sum * left_sum / n_l + right_sum * right_sum / n_r - base;
        if gain > best.map_or(0.0, |b| b.0) {
            best = Some((gain, mask));
        }
    }
    best.map(|(gain, mask)| Split {
        feature,
        rule: SplitRule::Categories(mask),
        gain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::Mtry;

    fn fit_simple(x: &[Vec<f64>], y: &[f64], config: &ForestConfig) -> RegressionTree {
        let kinds = vec![FeatureKind::Numeric; x[0].len()];
        let m = FeatureMatrix::from_rows(x[0].len(), x);
        let rows: Vec<u32> = (0..x.len() as u32).collect();
        let mut rng = Xoshiro256PlusPlus::new(0);
        RegressionTree::fit(&m, y, &rows, &kinds, config, &mut rng)
    }

    #[test]
    fn predict4_matches_four_scalar_descents() {
        // Four structurally different trees (different targets), probed at
        // training points and off-grid points: the lock-step descent must
        // return exactly what four scalar `predict` calls return, for
        // mixed leaf depths (some chains finish while others keep walking).
        let x: Vec<Vec<f64>> = (0..24).map(|i| vec![f64::from(i), f64::from(i % 5)]).collect();
        let targets: [Vec<f64>; 4] = [
            (0..24).map(f64::from).collect(),
            (0..24).map(|i| f64::from(i * i)).collect(),
            (0..24).map(|i| f64::from(i % 3)).collect(),
            vec![7.0; 24], // constant: this tree is a single leaf
        ];
        let cfg = ForestConfig {
            mtry: Mtry::All,
            ..ForestConfig::default()
        };
        let trees: Vec<RegressionTree> = targets.iter().map(|y| fit_simple(&x, y, &cfg)).collect();
        let quad = [&trees[0], &trees[1], &trees[2], &trees[3]];
        let probes: Vec<Vec<f64>> = x
            .iter()
            .cloned()
            .chain((0..8).map(|i| vec![f64::from(i) + 0.37, f64::from(i % 5) - 0.2]))
            .collect();
        for row in &probes {
            let p = predict4(quad, row);
            for k in 0..4 {
                assert_eq!(
                    p[k].to_bits(),
                    quad[k].predict(row).to_bits(),
                    "lane {k} diverged on {row:?}"
                );
            }
        }
    }

}
