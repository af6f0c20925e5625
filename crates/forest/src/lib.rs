//! From-scratch random-forest regression with prediction uncertainty.
//!
//! The paper's surrogate model is a Breiman-style random forest: an ensemble
//! of CART regression trees, each grown on a bootstrap resample of the
//! training set, choosing the best split among a random feature subset at
//! every node. Active learning additionally needs an *uncertainty* for every
//! prediction; two estimators are provided (see [`forest::RandomForest`]):
//!
//! - the across-tree standard deviation of the per-tree predictions, the
//!   estimator referenced by the paper;
//! - Hutter et al.'s law-of-total-variance estimator, which adds the
//!   within-leaf variance of each tree (kept for the ablation benches).
//!
//! Categorical features are split natively on category *subsets* using the
//! classic sort-by-mean reduction (optimal for squared error), rather than
//! being forced through one-hot encodings — this is the "effectiveness on
//! categorical features" property the paper relies on for *hypre*.
//!
//! The exact fit hot path works on the flat column-major
//! [`FeatureMatrix`](pwu_space::FeatureMatrix): each node packs its rows as
//! `(rank, row)` words and sorts them per node, which reproduces the
//! historical implementation bit for bit (the sort tie order is observable
//! through gain rounding — see `tree` and DESIGN.md §9). The pre-overhaul
//! implementation is preserved in [`reference`] as a bit-identity oracle and
//! performance baseline. The opt-in [`fast`] engine
//! ([`FitMode::Fast`](hyper::FitMode), `fast-path` cargo feature) trades
//! that bit identity for speed under a *statistical*-equivalence contract
//! (DESIGN.md §14): presorted-per-column partition reuse, counting-sort
//! split search, f32 rank routing — still a pure function of the seed and
//! invariant to thread count and deal order. Every forest *predicts*
//! in batch through the [`flat`] module: trees are compiled once into a
//! branch-free breadth-first node layout whose per-tree leaf values match
//! the scalar descent bitwise; the fit mode picks only the ensemble fold
//! ([`Fold`]) — serial tree order for exact forests (bit-identical to the
//! scalar calls), accumulator lanes for fast ones.
//!
//! Modules:
//! - [`hyper`] — hyper-parameters ([`ForestConfig`], [`Mtry`], [`FitMode`])
//! - [`split`] — exact best-split search for numeric and categorical columns
//! - [`tree`] — a single CART regression tree (iterative, rank-packed growth)
//! - [`fast`] — the statistically-equivalent fast fit engine
//! - [`flat`] — the flat-node batch-predict kernel (both fit modes)
//! - [`forest`] — the bagged ensemble with parallel fit/predict
//! - [`importance`] — impurity-based feature importances
//! - [`oob`] — out-of-bag error estimation
//! - [`reference`] — the historical row-major fit and the pointer predict
//!   kernel (tests/benches)

pub mod fast;
pub mod flat;
pub mod forest;
pub mod hyper;
pub mod importance;
pub mod oob;
pub mod reference;
pub mod split;
pub mod tree;

pub use flat::{fold_columns, fold_lanes, Fold, StridedPool};

/// Whether this build of the crate carries the real fast engine. Downstream
/// test harnesses must consult this — not their *own* `fast-path` feature —
/// when deciding if [`FitMode::Fast`] falls back to the exact engine:
/// feature unification can compile this crate's engine in while a
/// dependent crate's mirroring feature stays off (e.g. a whole-workspace
/// build where another member enables `pwu-forest/fast-path`).
pub const FAST_PATH_COMPILED: bool = cfg!(feature = "fast-path");
pub use forest::RandomForest;
pub use hyper::{FitMode, ForestConfig, Mtry};
pub use split::{Split, SplitRule};
pub use tree::RegressionTree;
