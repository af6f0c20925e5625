//! Replayed layer calls for the traced run.
//!
//! Each replay calls one layer's public function on a workload's own
//! inputs inside a span, so per-layer times come from the benchmark's
//! spans and no span is added inside the program.

use pwu_core::{rmse_at_alpha, Annotator, Strategy};
use pwu_forest::{ForestConfig, RandomForest};
use pwu_space::{Configuration, FeatureKind, FeatureMatrix, TuningTarget};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::spans::Spans;

/// Fit size of the `forest.fit_ms.n500` replay (the paper's `n_max`).
const N500: usize = 500;

/// Pool configurations each `measure.annotate` replay labels.
const ANNOTATE_SAMPLES: usize = 8;

/// Iterations between two sampled points of the cell's blocking path.
const PATH_STRIDE: usize = 25;

/// One tuning run's inputs and outputs, as the replays need them.
pub struct Subject<'a> {
    /// Cell or session identifier the spans carry.
    pub unit: String,
    /// A fresh instance of the run's target (annotation replays).
    pub target: &'a dyn TuningTarget,
    /// Feature kinds of the target's schema.
    pub kinds: &'a [FeatureKind],
    /// The run's forest settings.
    pub forest: ForestConfig,
    /// The run's strategy.
    pub strategy: Strategy,
    /// The RMSE level of the run.
    pub alpha: f64,
    /// Measurement repeats per label.
    pub repeats: usize,
    /// Training set in acquisition order.
    pub train: (FeatureMatrix, Vec<f64>),
    /// A labelled set of at least [`N500`] rows for the n500 fit.
    pub big: (FeatureMatrix, Vec<f64>),
    /// The run's pool, as first generated.
    pub pool: &'a FeatureMatrix,
    /// Pool configurations the run never measured.
    pub unmeasured: Vec<Configuration>,
    /// The test set and its labels.
    pub test: (&'a FeatureMatrix, &'a [f64]),
    /// The seed the run fitted its final model with.
    pub final_seed: u64,
}

/// The first `n` rows of a labelled set.
fn prefix(set: &(FeatureMatrix, Vec<f64>), n: usize) -> (FeatureMatrix, Vec<f64>) {
    let n = n.min(set.1.len());
    let mut x = FeatureMatrix::new(set.0.n_cols());
    for i in 0..n {
        x.push_row(&set.0.row(i));
    }
    (x, set.1[..n].to_vec())
}

/// Total node count of a forest.
pub fn node_count(model: &RandomForest) -> usize {
    model
        .trees()
        .iter()
        .map(pwu_forest::RegressionTree::n_nodes)
        .sum()
}

/// Times the forest, core and measure layers on `s`. Records
/// `forest.fit.n500`, `forest.fit.session`, `forest.predict_pool`,
/// `core.select`, `core.eval` and `measure.annotate` spans and returns the
/// node count of the final model (refitted exactly as the run fitted it).
pub fn replay_model_layers(spans: &mut Spans, s: &Subject<'_>, session_n_max: usize) -> usize {
    let unit = s.unit.as_str();
    let big = prefix(&s.big, N500);
    let n500 = spans.time("forest.fit.n500", "", unit, || {
        RandomForest::fit(
            &s.forest,
            s.kinds,
            &big.0,
            &big.1,
            derive_seed(s.final_seed, 1),
        )
    });
    let small = prefix(&s.train, session_n_max);
    spans.time("forest.fit.session", "", unit, || {
        RandomForest::fit(
            &s.forest,
            s.kinds,
            &small.0,
            &small.1,
            derive_seed(s.final_seed, 2),
        )
    });
    let preds = spans.time("forest.predict_pool", "", unit, || {
        n500.predict_batch(s.pool)
    });
    let mut rng = Xoshiro256PlusPlus::new(derive_seed(s.final_seed, 3));
    spans.time("core.select", "", unit, || {
        s.strategy.select(&preds, 1, &mut rng)
    });
    let final_model = RandomForest::fit(&s.forest, s.kinds, &s.train.0, &s.train.1, s.final_seed);
    spans.time("core.eval", "", unit, || {
        let p = final_model.predict_batch_mean(s.test.0);
        rmse_at_alpha(s.test.1, &p, s.alpha)
    });
    let mut annotator = Annotator::new(s.target, s.repeats, derive_seed(s.final_seed, 4));
    for cfg in s.unmeasured.iter().take(ANNOTATE_SAMPLES) {
        spans.time("measure.annotate", "", unit, || {
            annotator.try_evaluate(cfg).is_ok()
        });
    }
    node_count(&final_model)
}

/// Replays the blocking path of every [`PATH_STRIDE`]-th iteration of a
/// cell (refit, rescore, select, evaluate) and returns the time the
/// sampled calls cover, scaled to all `iterations`, in seconds.
pub fn replay_cell_path(
    spans: &mut Spans,
    s: &Subject<'_>,
    n_init: usize,
    iterations: usize,
) -> f64 {
    let unit = s.unit.as_str();
    let mut covered = 0.0;
    let mut sampled = 0usize;
    let mut rng = Xoshiro256PlusPlus::new(derive_seed(s.final_seed, 5));
    let mut i = 1;
    while i <= iterations {
        let n = (n_init + i).min(s.train.1.len());
        let part = prefix(&s.train, n);
        let t = std::time::Instant::now();
        let model = spans.time("path.refit", "", unit, || {
            RandomForest::fit(
                &s.forest,
                s.kinds,
                &part.0,
                &part.1,
                derive_seed(s.final_seed, i as u64),
            )
        });
        let preds = spans.time("path.rescore", "", unit, || model.predict_batch(s.pool));
        spans.time("path.select", "", unit, || {
            s.strategy.select(&preds, 1, &mut rng)
        });
        spans.time("path.eval", "", unit, || {
            let p = model.predict_batch_mean(s.test.0);
            rmse_at_alpha(s.test.1, &p, s.alpha)
        });
        covered += t.elapsed().as_secs_f64();
        sampled += 1;
        i += PATH_STRIDE;
    }
    covered * iterations as f64 / sampled.max(1) as f64
}
