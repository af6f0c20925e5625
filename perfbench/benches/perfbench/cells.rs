//! The cell workloads: one Fig 2 cell is Algorithm 1 with PWU (α = 0.01)
//! on the atax kernel at paper scale, driven through `active::run`.

use std::collections::HashSet;
use std::time::Instant;

use pwu_core::{active, ActiveConfig, ActiveRun, Annotator, Protocol, Strategy};
use pwu_forest::FitMode;
use pwu_space::{Configuration, FeatureMatrix, FeatureSchema, Pool, TuningTarget};
use pwu_spapt::Kernel;
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::clock::Clocked;
use crate::layers::Subject;
use crate::spans::Spans;
use pwu_perfbench::split_iterations;

/// The cell's kernel.
pub const KERNEL: &str = "atax";
/// The RMSE level and PWU α of the cell.
pub const ALPHA: f64 = 0.01;

/// The seed later claims are made on, and the one the pinned digest is for.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, to confirm a claim made on [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 7_919;
/// Training-set digest of cell 0 of `cell-exact` at [`DEFAULT_SEED`].
/// Exact mode is bit-identical by contract: any other value is a failure.
pub const PINNED_EXACT_DIGEST: &str = "5f14afaa6e95cd51";

/// The seed of the `k`-th cell of a run.
#[must_use]
pub fn cell_seed(run_seed: u64, k: usize) -> u64 {
    derive_seed(run_seed, k as u64)
}

/// The paper protocol's loop settings with `mode` as the fit engine.
#[must_use]
pub fn config(mode: FitMode) -> ActiveConfig {
    let mut c = Protocol::paper(ALPHA).active;
    c.forest.fit_mode = mode;
    c
}

/// A cell's generated inputs.
pub struct Inputs {
    /// The kernel, with its own evaluation cache.
    pub kernel: Kernel,
    /// The kernel's feature schema.
    pub schema: FeatureSchema,
    /// The pool configurations, as drawn.
    pub pool_cfgs: Vec<Configuration>,
    /// The encoded pool.
    pub pool: Pool,
    /// The encoded test set.
    pub test_x: FeatureMatrix,
    /// The test labels (35-repeat means).
    pub test_y: Vec<f64>,
    /// The cell's seed.
    pub seed: u64,
}

/// Generates a cell's inputs the way the paper harness does: surrogate
/// sample, test-set prewarm and labelling, pool and test encoding.
///
/// # Errors
/// Fails when a test label cannot be measured.
pub fn setup(seed: u64, spans: &mut Spans, unit: &str) -> Result<Inputs, String> {
    let kernel = pwu_spapt::kernel_by_name(KERNEL).ok_or("unknown kernel")?;
    let protocol = Protocol::paper(ALPHA);
    let space = kernel.space();
    let schema = FeatureSchema::for_space(space);
    let mut rng = Xoshiro256PlusPlus::new(derive_seed(seed, 100));
    let all = spans.time("space.sample", "", unit, || {
        space.sample_distinct(protocol.surrogate_size, &mut rng)
    });
    let (pool_cfgs, test_cfgs) = all.split_at(protocol.pool_size);
    let test_y = spans.time("measure.label_test", "", unit, || {
        let _ = kernel.ideal_times(test_cfgs);
        let mut annotator =
            Annotator::new(&kernel, protocol.active.repeats, derive_seed(seed, 101));
        test_cfgs
            .iter()
            .map(|c| {
                annotator
                    .try_evaluate(c)
                    .map_err(|e| format!("test label failed: {e:?}"))
            })
            .collect::<Result<Vec<f64>, String>>()
    })?;
    let (test_x, pool) = spans.time("space.encode", "", unit, || {
        (
            schema.encode_matrix(space, test_cfgs),
            Pool::new(space, &schema, pool_cfgs.to_vec()),
        )
    });
    Ok(Inputs {
        kernel,
        schema,
        pool_cfgs: pool_cfgs.to_vec(),
        pool,
        test_x,
        test_y,
        seed,
    })
}

/// One measured cell.
pub struct Cell {
    /// Wall time of `active::run`, in seconds.
    pub wall_s: f64,
    /// From the call to the first iteration's measurement, in seconds.
    pub cold_s: f64,
    /// Per-iteration latencies, in seconds.
    pub iter_s: Vec<f64>,
    /// The run.
    pub run: ActiveRun,
}

impl Cell {
    /// RMSE@α of the final model on the test set.
    #[must_use]
    pub fn rmse(&self) -> f64 {
        self.run
            .history
            .last()
            .and_then(|h| h.rmse.first())
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// FNV-1a digest of the training set (configurations and label bits,
    /// in acquisition order).
    #[must_use]
    pub fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for (cfg, y) in self.run.train.configs().iter().zip(self.run.train.labels()) {
            for l in cfg.levels() {
                bytes.extend_from_slice(&l.to_le_bytes());
            }
            bytes.extend_from_slice(&y.to_bits().to_le_bytes());
        }
        format!("{:016x}", pwu_core::fnv1a64(&bytes))
    }
}

/// Runs one cell on `inputs` under `mode`, inside an `active.run` span.
pub fn run_cell(inputs: &Inputs, mode: FitMode, spans: &mut Spans, unit: &str) -> Cell {
    let config = config(mode);
    let clocked = Clocked::new(&inputs.kernel);
    let pool = inputs.pool.clone();
    let start = Instant::now();
    let run = spans.time("active.run", mode.token(), unit, || {
        active::run(
            &clocked,
            Strategy::Pwu { alpha: ALPHA },
            &config,
            pool,
            &inputs.test_x,
            &inputs.test_y,
            derive_seed(inputs.seed, 200),
        )
    });
    let end = Instant::now();
    let (cold_s, iter_s) = split_iterations(start, &clocked.stamps(), end, config.n_init);
    Cell {
        wall_s: end.duration_since(start).as_secs_f64(),
        cold_s,
        iter_s,
        run,
    }
}

/// Restarts the cell `restarts` times on a fresh kernel (a restarted
/// process has a cold evaluation cache) and returns, per restart, the time
/// from calling `active::run` to its first iteration's measurement. A cell
/// keeps no durable state, so this is its recovery time. Each restart stops
/// after that first iteration (`n_max = n_init + 1`); the cold start itself
/// does not depend on `n_max`.
pub fn restart(inputs: &Inputs, mode: FitMode, restarts: usize) -> Vec<f64> {
    let mut config = config(mode);
    config.n_max = config.n_init + 1;
    (0..restarts)
        .map(|_| {
            let kernel = pwu_spapt::kernel_by_name(KERNEL).expect("cell kernel");
            let clocked = Clocked::new(&kernel);
            let pool = inputs.pool.clone();
            let start = Instant::now();
            let _ = active::run(
                &clocked,
                Strategy::Pwu { alpha: ALPHA },
                &config,
                pool,
                &inputs.test_x,
                &inputs.test_y,
                derive_seed(inputs.seed, 200),
            );
            split_iterations(start, &clocked.stamps(), Instant::now(), config.n_init).0
        })
        .collect()
}

/// Output checks of one cell: `n_max` labels, a finite RMSE, and the pinned
/// digest where one applies. Returns the failures.
#[must_use]
pub fn check(cell: &Cell, mode: FitMode, pinned: Option<&str>) -> Vec<String> {
    let n_max = config(mode).n_max;
    let mut failures = Vec::new();
    if cell.run.train.len() != n_max {
        failures.push(format!(
            "cell has {} labels, not {n_max}",
            cell.run.train.len()
        ));
    }
    if !cell.rmse().is_finite() {
        failures.push(format!("cell RMSE is not finite ({})", cell.rmse()));
    }
    if let Some(pin) = pinned {
        let digest = cell.digest();
        if digest != pin {
            failures.push(format!(
                "exact-mode training-set digest {digest} != pinned {pin}"
            ));
        }
    }
    failures
}

/// The replay subject of a finished cell.
pub fn subject<'a>(inputs: &'a Inputs, cell: &Cell, fresh: &'a Kernel, unit: &str) -> Subject<'a> {
    let config = config(cell.run.model.config().fit_mode);
    let train = &cell.run.train;
    let measured: HashSet<&Configuration> = train.configs().iter().collect();
    let iterations = (train.len() - config.n_init) as u64;
    Subject {
        unit: unit.to_string(),
        target: fresh,
        kinds: inputs.schema.kinds(),
        forest: config.forest,
        strategy: Strategy::Pwu { alpha: ALPHA },
        alpha: ALPHA,
        repeats: config.repeats,
        train: (train.features().clone(), train.labels().to_vec()),
        big: (train.features().clone(), train.labels().to_vec()),
        pool: inputs.pool.features(),
        unmeasured: inputs
            .pool_cfgs
            .iter()
            .filter(|c| !measured.contains(c))
            .cloned()
            .collect(),
        test: (&inputs.test_x, &inputs.test_y),
        // `active::run` refits iteration i with derive_seed(forest_seed, i)
        // and forest_seed = derive_seed(run_seed, 4).
        final_seed: derive_seed(derive_seed(derive_seed(inputs.seed, 200), 4), iterations),
    }
}
