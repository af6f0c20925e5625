//! The served workload: an in-process `pwu-serve` fleet driven through
//! `Server::handle_line` by a closed loop with one request outstanding.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pwu_core::checkpoint::GenerationStore;
use pwu_core::{rmse_at_alpha, step_once, ActiveCheckpoint, Annotator};
use pwu_forest::{FitMode, RandomForest};
use pwu_serve::protocol::{Fields, Value};
use pwu_serve::session::{strategy_token, SessionSpec};
use pwu_serve::{AdmissionPolicy, Server, SessionState, SessionTarget, WatchdogPolicy};
use pwu_space::{Configuration, FeatureMatrix, FeatureSchema, Pool, TuningTarget};
use pwu_stats::{derive_seed, Xoshiro256PlusPlus};

use crate::layers::{self, Subject};
use crate::spans::Spans;

/// Training-set size every fleet session stops at.
pub const SESSION_N_MAX: usize = 40;

/// PWU α and RMSE level of the fleet's sessions (the service default). At
/// α = 0.05 RMSE reads 35 to 150 test points per session instead of 7 to 30.
pub const FLEET_ALPHA: f64 = 0.05;

/// The fleet's targets: six SPAPT kernels and the two proxy applications.
pub const FLEET_TARGETS: [&str; 8] = [
    "atax",
    "gemver",
    "mm",
    "lu",
    "jacobi",
    "correlation",
    "kripke",
    "hypre",
];

/// Paper sizes: surrogate sample, pool.
const SURROGATE: usize = 10_000;
const POOL: usize = 7_000;

/// Pool and test sizes for `target`, clamped to small spaces the way the
/// paper harness clamps its protocol (70% pool, the rest test).
fn sizes_for(target: &dyn TuningTarget) -> (usize, usize) {
    let card = usize::try_from(target.space().cardinality()).unwrap_or(usize::MAX);
    if card < SURROGATE {
        let pool = card * 7 / 10;
        (pool, card - pool)
    } else {
        (POOL, SURROGATE - POOL)
    }
}

/// One session of a fleet.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Session id.
    pub id: String,
    /// The spec the `create` request carries.
    pub spec: SessionSpec,
}

impl Plan {
    fn create_line(&self) -> String {
        let s = &self.spec;
        format!(
            r#"{{"cmd":"create","session":"{}","target":"{}","strategy":"{}","fit_mode":"{}","seed":{},"n_init":{},"n_batch":{},"n_max":{},"repeats":{},"n_trees":{},"eval_every":{},"pool_n":{},"test_n":{},"alpha":{:?}}}"#,
            self.id,
            s.target,
            strategy_token(s.strategy),
            s.fit_mode.token(),
            s.seed,
            s.n_init,
            s.n_batch,
            s.n_max,
            s.repeats,
            s.n_trees,
            s.eval_every,
            s.pool_n,
            s.test_n,
            s.alpha
        )
    }
}

/// A paper-size session spec on `target` with PWU at `alpha` (which is also
/// its RMSE level), seeded from the top 53 bits of `seed` (the wire format
/// carries integers exactly up to 2^53 only).
pub fn paper_spec(
    target: &str,
    fit_mode: FitMode,
    alpha: f64,
    n_max: usize,
    seed: u64,
) -> SessionSpec {
    let t = SessionTarget::by_name(target).expect("fleet targets are registered");
    let (pool_n, test_n) = sizes_for(t.as_target());
    SessionSpec {
        target: target.into(),
        strategy: pwu_core::Strategy::Pwu { alpha },
        n_init: 10,
        n_batch: 1,
        n_max,
        repeats: 35,
        n_trees: 64,
        fit_mode,
        eval_every: 1,
        pool_n,
        test_n,
        alpha,
        seed: seed >> 11,
    }
}

/// The 8-session fleet for `seed`.
pub fn fleet_plans(seed: u64) -> Vec<Plan> {
    FLEET_TARGETS
        .iter()
        .enumerate()
        .map(|(i, t)| Plan {
            id: format!("s{i}-{t}"),
            spec: paper_spec(
                t,
                FitMode::Exact,
                FLEET_ALPHA,
                SESSION_N_MAX,
                derive_seed(seed, 1000 + i as u64),
            ),
        })
        .collect()
}

/// A scratch state directory, removed when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// A fresh, empty directory at `path`.
    pub fn new(path: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one pass of a fleet measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// `Server::open` plus every `create`, in seconds, per set-up.
    pub setup_s: Vec<f64>,
    /// Every step request's latency, in seconds, per session.
    pub step_lat: BTreeMap<String, Vec<f64>>,
    /// Each session's create latency plus its step latencies, in seconds.
    pub run_s: Vec<f64>,
    /// Wall time of the step phase, in seconds.
    pub step_wall_s: f64,
    /// Wall time of each round of the step phase (one `step` per session
    /// not yet done), in seconds.
    pub round_s: Vec<f64>,
    /// Committed steps.
    pub committed: u64,
    /// Restart-to-advancing times, in seconds.
    pub recover_s: Vec<f64>,
    /// Final-model RMSE per session.
    pub rmse: Vec<f64>,
    /// Eval-cache `(hits, misses)` summed over the fleet's kernels.
    pub cache: (u64, u64),
    /// `forest.fit` spans per committed step, when the program's own
    /// tracer was armed for the step phase.
    pub fit_calls_per_step: Option<f64>,
    /// Operations attempted (requests and output checks).
    pub attempted: u64,
    /// Failed operations, with a reason each.
    pub failures: Vec<String>,
}

impl Pass {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Sends one request inside a `serve.handle_line` span tagged by verb.
fn send(
    server: &mut Server,
    spans: &mut Spans,
    verb: &str,
    unit: &str,
    line: &str,
) -> (String, f64) {
    let t = Instant::now();
    let span = spans.begin("serve.handle_line", verb, unit);
    let (response, _) = server.handle_line(line);
    spans.end(span);
    (response, t.elapsed().as_secs_f64())
}

/// The parsed response, or `None` when it is not a protocol object.
fn parse(response: &str) -> Option<Fields> {
    pwu_serve::parse_object(response).ok()
}

/// Whether a response reports `"ok":true`.
fn ok(response: &str) -> bool {
    parse(response).is_some_and(|f| f.get("ok") == Some(&Value::Bool(true)))
}

fn open(dir: &Path) -> Server {
    Server::open(dir, AdmissionPolicy::default(), WatchdogPolicy::default())
        .expect("scratch state dir must open")
}

/// A callback into a pass, given the server between two requests.
pub type Hook<'a> = &'a mut dyn FnMut(&Server, &mut Spans);

/// Options of a pass.
pub struct PassOptions<'a> {
    /// Times the fleet is set up (the traffic runs on the last one).
    pub setups: usize,
    /// Restart phases to run after the fleet is done.
    pub restarts: usize,
    /// Arm the program's own tracer for the step phase and count its
    /// `forest.fit` spans.
    pub count_fits: bool,
    /// Called once with the server after half of every session's steps.
    pub mid_run: Option<Hook<'a>>,
    /// Called once with the server when every session is done, before the
    /// restart phases.
    pub finished: Option<Hook<'a>>,
}

/// Runs one fleet pass in `dir`: open and create (set-up), round-robin
/// `step` requests until every session is done, then the restart phases.
pub fn run_pass(dir: &Path, plans: &[Plan], spans: &mut Spans, mut opts: PassOptions<'_>) -> Pass {
    let mut pass = Pass::default();
    let mut run_s: BTreeMap<String, f64> = BTreeMap::new();

    // Set-up is repeated `setups` times from an empty state dir; the last
    // fleet is the one the traffic runs on.
    let mut server = None;
    for _ in 0..opts.setups.max(1) {
        drop(server.take());
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let mut s = spans.time("serve.open", "", "setup", || open(dir));
        for plan in plans {
            let (resp, lat) = send(&mut s, spans, "create", &plan.id, &plan.create_line());
            pass.check(ok(&resp), || format!("create {}: {resp}", plan.id));
            let spec = s.session(&plan.id).map(|s| s.spec().clone());
            pass.check(spec.as_ref() == Some(&plan.spec), || {
                format!(
                    "{} was created with {spec:?}, not the requested {:?}",
                    plan.id, plan.spec
                )
            });
            run_s.insert(plan.id.clone(), lat);
        }
        pass.setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");

    if opts.count_fits {
        pwu_obs::clear();
        pwu_obs::enable();
    }
    let steps_each = plans
        .iter()
        .map(|p| p.spec.n_max - p.spec.n_init)
        .max()
        .unwrap_or(0);
    let mut done: HashSet<String> = HashSet::new();
    let t = Instant::now();
    let mut round = 0usize;
    let mut req = 0u64;
    while done.len() < plans.len() && round <= steps_each {
        if round == steps_each / 2 {
            if let Some(hook) = opts.mid_run.as_mut() {
                // Replays are not traffic: keep them out of the step phase
                // and out of the program's trace.
                let paused = Instant::now();
                pwu_obs::disable();
                hook(&server, spans);
                if opts.count_fits {
                    pwu_obs::enable();
                }
                pass.step_wall_s -= paused.elapsed().as_secs_f64();
            }
        }
        let round_t = Instant::now();
        for plan in plans {
            if done.contains(&plan.id) {
                continue;
            }
            req += 1;
            let line = format!(r#"{{"cmd":"step","session":"{}","n":1}}"#, plan.id);
            let (resp, lat) = send(&mut server, spans, "step", &format!("req{req}"), &line);
            let reply = parse(&resp);
            let good = ok(&resp) && reply.as_ref().and_then(|f| f.u64("steps")) == Some(1);
            pass.check(good, || format!("step {}: {resp}", plan.id));
            if good {
                pass.committed += 1;
            }
            pass.step_lat.entry(plan.id.clone()).or_default().push(lat);
            *run_s.entry(plan.id.clone()).or_default() += lat;
            if reply.as_ref().and_then(|f| f.str("state")) == Some("done") || !good {
                done.insert(plan.id.clone());
            }
        }
        pass.round_s.push(round_t.elapsed().as_secs_f64());
        round += 1;
    }
    pass.step_wall_s += t.elapsed().as_secs_f64();
    if opts.count_fits {
        pwu_obs::disable();
        let trace = pwu_obs::drain();
        let fits = pwu_obs::summarize(&trace.deterministic_jsonl())
            .and_then(|s| s.get("forest.fit").map(|f| f.count))
            .unwrap_or(0);
        pass.fit_calls_per_step = Some(fits as f64 / pass.committed.max(1) as f64);
    }
    pass.run_s = run_s.into_values().collect();

    // Output checks: every session done with exactly n_max labels.
    let mut digests = BTreeMap::new();
    for plan in plans {
        let session = server.session(&plan.id);
        let ckpt = session.and_then(|s| s.checkpoint());
        let n_train = ckpt.map_or(0, |c| c.train_configs.len());
        let is_done = session.is_some_and(|s| s.state() == SessionState::Done);
        pass.check(is_done && n_train == plan.spec.n_max, || {
            format!("{} ended with {n_train} labels (done: {is_done})", plan.id)
        });
        if let Some(r) = ckpt
            .and_then(|c| c.history.last())
            .and_then(|h| h.rmse.first())
        {
            pass.rmse.push(*r);
        }
        if let Some(cache) = session.and_then(|s| s.target().cache()) {
            let (h, m) = cache.stats();
            pass.cache.0 += h;
            pass.cache.1 += m;
        }
        digests.insert(
            plan.id.clone(),
            session.and_then(pwu_serve::Session::digest),
        );
    }

    if let Some(hook) = opts.finished.as_mut() {
        hook(&server, spans);
    }

    // Restart phases: drop the server, reopen the same state dir, resume
    // every session and tick once; digests must survive unchanged.
    let mut server = Some(server);
    for r in 0..opts.restarts {
        let t = Instant::now();
        drop(server.take());
        let mut s = spans.time("serve.open", "restart", "restart", || open(dir));
        for plan in plans {
            let line = format!(r#"{{"cmd":"resume","session":"{}"}}"#, plan.id);
            let (resp, _) = send(&mut s, spans, "resume", &plan.id, &line);
            pass.check(ok(&resp), || format!("resume {}: {resp}", plan.id));
        }
        let (resp, _) = send(
            &mut s,
            spans,
            "tick",
            &format!("restart{r}"),
            r#"{"cmd":"tick"}"#,
        );
        pass.check(ok(&resp), || format!("tick: {resp}"));
        pass.recover_s.push(t.elapsed().as_secs_f64());
        for plan in plans {
            let after = s.session(&plan.id).and_then(pwu_serve::Session::digest);
            let before = &digests[&plan.id];
            pass.check(before.is_some() && &after == before, || {
                format!(
                    "{} digest changed across restart: {before:?} -> {after:?}",
                    plan.id
                )
            });
        }
        server = Some(s);
    }
    pass
}

/// Warms the process up before timing: opens a server in `dir`, creates
/// every session of `plans` and sends `rounds` rounds of `step` requests.
/// Returns the operations attempted and the failed ones.
pub fn warm_up(dir: &Path, plans: &[Plan], rounds: usize) -> (u64, Vec<String>) {
    let mut pass = Pass::default();
    let mut spans = Spans::new(false);
    let _ = std::fs::remove_dir_all(dir);
    let mut server = open(dir);
    for plan in plans {
        let (resp, _) = send(
            &mut server,
            &mut spans,
            "create",
            &plan.id,
            &plan.create_line(),
        );
        pass.check(ok(&resp), || format!("warm-up create {}: {resp}", plan.id));
    }
    for _ in 0..rounds {
        for plan in plans {
            let line = format!(r#"{{"cmd":"step","session":"{}","n":1}}"#, plan.id);
            let (resp, _) = send(&mut server, &mut spans, "step", &plan.id, &line);
            pass.check(ok(&resp), || format!("warm-up step {}: {resp}", plan.id));
        }
    }
    (pass.attempted, pass.failures)
}

/// Per-session times the mid-run replays took, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepReplay {
    /// `SessionSpec::materialize`.
    pub materialize: f64,
    /// `step_once` on the resident checkpoint.
    pub step_once: f64,
    /// `GenerationStore::save` of that checkpoint.
    pub save: f64,
    /// The layer calls inside the step: refit replay, rescore, select,
    /// annotate, refit, evaluate.
    pub inner: f64,
    /// Length of the checkpoint's text form.
    pub bytes: usize,
}

/// Replays one served step's layer calls on every session's resident
/// checkpoint: `materialize`, `step_once`, checkpoint encode/save/load, and
/// the forest/core/measure calls `step_once` makes inside.
pub fn replay_step_layers(
    server: &Server,
    spans: &mut Spans,
    scratch: &Path,
) -> BTreeMap<String, StepReplay> {
    let mut out = BTreeMap::new();
    for id in server.session_ids() {
        let Some(session) = server.session(&id) else {
            continue;
        };
        let Some(ckpt) = session.checkpoint().cloned() else {
            continue;
        };
        let spec = session.spec().clone();
        let target = session.target().as_target();
        let unit = id.as_str();
        let mut r = StepReplay::default();
        let t = Instant::now();
        let (_, test_f, test_l) =
            spans.time("serve.materialize", "", unit, || spec.materialize(target));
        r.materialize = t.elapsed().as_secs_f64();
        let config = spec.active_config();
        let t = Instant::now();
        let _ = spans.time("core.step_once", "", unit, || {
            step_once(target, spec.strategy, &config, &ckpt, &test_f, &test_l)
        });
        r.step_once = t.elapsed().as_secs_f64();
        r.bytes = spans.time("ckpt.encode", "", unit, || ckpt.to_text()).len();
        let store = GenerationStore::new(scratch.join(&id));
        let t = Instant::now();
        let _ = spans.time("ckpt.save", "", unit, || store.save(&ckpt));
        r.save = t.elapsed().as_secs_f64();
        let _ = spans.time("ckpt.load", "", unit, || store.load_latest());
        r.inner = replay_step_inner(spans, &spec, &ckpt, target, (&test_f, &test_l), unit);
        out.insert(id, r);
    }
    out
}

/// The layer calls one `step_once` makes, replayed on `ckpt`; returns their
/// total time in seconds.
fn replay_step_inner(
    spans: &mut Spans,
    spec: &SessionSpec,
    ckpt: &ActiveCheckpoint,
    target: &dyn TuningTarget,
    test: (&FeatureMatrix, &[f64]),
    unit: &str,
) -> f64 {
    let space = target.space();
    let schema = FeatureSchema::for_space(space);
    let cfgs = |levels: &[Vec<u32>]| -> Vec<Configuration> {
        levels.iter().cloned().map(Configuration::new).collect()
    };
    let train_cfgs = cfgs(&ckpt.train_configs);
    let mut train_x = schema.encode_matrix(space, &train_cfgs);
    let mut train_y = ckpt.train_labels.clone();
    let pool = Pool::new(space, &schema, cfgs(&ckpt.pool_configs));
    let forest = spec.active_config().forest;
    let fresh = SessionTarget::by_name(&spec.target).expect("session targets resolve");
    let mut annotator = Annotator::new(
        fresh.as_target(),
        spec.repeats,
        derive_seed(ckpt.forest_seed, 9),
    );
    let mut rng = Xoshiro256PlusPlus::from_state(ckpt.select_rng);

    let t = Instant::now();
    let model = spans.time("step.refit_replay", "", unit, || {
        RandomForest::fit(
            &forest,
            schema.kinds(),
            &train_x,
            &train_y,
            derive_seed(ckpt.forest_seed, ckpt.iteration),
        )
    });
    let preds = spans.time("step.rescore", "", unit, || {
        model.predict_batch(pool.features())
    });
    let picked = spans.time("step.select", "", unit, || {
        spec.strategy.select(&preds, 1, &mut rng)
    });
    if let Some(&i) = picked.first() {
        let cfg = &pool.configs()[i];
        if let Ok(y) = spans.time("step.annotate", "", unit, || annotator.try_evaluate(cfg)) {
            train_x.push_row(&pool.features().row(i));
            train_y.push(y);
        }
    }
    let model = spans.time("step.refit", "", unit, || {
        RandomForest::fit(
            &forest,
            schema.kinds(),
            &train_x,
            &train_y,
            derive_seed(ckpt.forest_seed, ckpt.iteration + 1),
        )
    });
    spans.time("step.eval", "", unit, || {
        let p = model.predict_batch_mean(test.0);
        rmse_at_alpha(test.1, &p, spec.alpha)
    });
    t.elapsed().as_secs_f64()
}

/// Replays the forest, core, measure and space layers on every finished
/// session of `plans` (final checkpoint, its spec's pool and test set).
/// Returns the node counts of the sessions' final models.
pub fn replay_session_models(server: &Server, plans: &[Plan], spans: &mut Spans) -> Vec<usize> {
    let mut nodes = Vec::new();
    for plan in plans {
        let Some(session) = server.session(&plan.id) else {
            continue;
        };
        let Some(ckpt) = session.checkpoint() else {
            continue;
        };
        let spec = &plan.spec;
        let unit = plan.id.as_str();
        let fresh = SessionTarget::by_name(&spec.target).expect("session targets resolve");
        let target = fresh.as_target();
        let space = target.space();
        let schema = FeatureSchema::for_space(space);
        // The set-up layers `materialize` runs, one call each.
        let mut rng = Xoshiro256PlusPlus::new(derive_seed(spec.seed, 7));
        let all = spans.time("space.sample", "", unit, || {
            space.sample_distinct(spec.pool_n + spec.test_n, &mut rng)
        });
        let (pool_cfgs, test_cfgs) = all.split_at(spec.pool_n);
        let test_y = spans.time("measure.label_test", "", unit, || {
            target.ideal_times(test_cfgs)
        });
        let (pool, test_x) = spans.time("space.encode", "", unit, || {
            (
                Pool::new(space, &schema, pool_cfgs.to_vec()),
                schema.encode_matrix(space, test_cfgs),
            )
        });
        let train_cfgs: Vec<Configuration> = ckpt
            .train_configs
            .iter()
            .cloned()
            .map(Configuration::new)
            .collect();
        let measured: HashSet<&Configuration> = train_cfgs.iter().collect();
        let unmeasured = pool_cfgs
            .iter()
            .filter(|c| !measured.contains(c))
            .cloned()
            .collect();
        let subject = Subject {
            unit: plan.id.clone(),
            target,
            kinds: schema.kinds(),
            forest: spec.active_config().forest,
            strategy: spec.strategy,
            alpha: spec.alpha,
            repeats: spec.repeats,
            train: (
                schema.encode_matrix(space, &train_cfgs),
                ckpt.train_labels.clone(),
            ),
            big: (test_x.clone(), test_y.clone()),
            pool: pool.features(),
            unmeasured,
            test: (&test_x, &test_y),
            final_seed: derive_seed(ckpt.forest_seed, ckpt.iteration),
        };
        nodes.push(layers::replay_model_layers(spans, &subject, SESSION_N_MAX));
    }
    nodes
}
