//! The iteration clock: a [`TuningTarget`] wrapper that timestamps the loop
//! from outside.
//!
//! With a batch of one, every iteration of Algorithm 1 measures exactly one
//! configuration it has not measured before, so the instants at which a new
//! configuration is first measured split a run into its cold start and its
//! iterations. Every trait method forwards to the wrapped target unchanged,
//! so the run is bit-identical to one on the bare target.

use std::sync::Mutex;
use std::time::Instant;

use pwu_space::target::{ConfigLegality, MeasureOutcome};
use pwu_space::{Configuration, ParamSpace, TuningTarget};
use pwu_stats::Xoshiro256PlusPlus;

/// A target that records when each new configuration is first measured.
pub struct Clocked<'a> {
    inner: &'a dyn TuningTarget,
    state: Mutex<(Option<Configuration>, Vec<Instant>)>,
}

impl<'a> Clocked<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn TuningTarget) -> Self {
        Self {
            inner,
            state: Mutex::new((None, Vec::new())),
        }
    }

    /// The instants at which each distinct configuration was first measured,
    /// in order.
    pub fn stamps(&self) -> Vec<Instant> {
        self.state.lock().expect("clock lock").1.clone()
    }

    fn note(&self, cfg: &Configuration) {
        let mut state = self.state.lock().expect("clock lock");
        if state.0.as_ref() != Some(cfg) {
            state.1.push(Instant::now());
            state.0 = Some(cfg.clone());
        }
    }
}

impl TuningTarget for Clocked<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.inner.ideal_time(cfg)
    }

    fn ideal_times(&self, cfgs: &[Configuration]) -> Vec<f64> {
        self.inner.ideal_times(cfgs)
    }

    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.note(cfg);
        self.inner.measure(cfg, rng)
    }

    fn measure_averaged(
        &self,
        cfg: &Configuration,
        repeats: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> f64 {
        self.note(cfg);
        self.inner.measure_averaged(cfg, repeats, rng)
    }

    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        self.note(cfg);
        self.inner.try_measure(cfg, rng)
    }

    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.inner.lint_config(cfg)
    }
}
