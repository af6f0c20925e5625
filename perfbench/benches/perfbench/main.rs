//! The repository benchmark.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench perfbench -- \
//!     --workload <cell-exact|cell-fast|serve-fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the separate traced run that reports the per-layer metrics. Either
//! way the last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod cells;
mod clock;
mod fleet;
mod layers;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pwu_forest::FitMode;
use pwu_perfbench::{
    geomean, median, median_self_ms, result_line, tail_percentile, Metric, END_TO_END, PER_LAYER,
    WORKLOADS,
};

use crate::fleet::{PassOptions, Plan, Scratch};
use crate::spans::Spans;

/// Restart phases per fleet pass, and restarts per cell, in the measured run.
const RESTARTS: usize = 5;

/// Times each cell's inputs, and each fleet pass, are set up; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 3;

/// Rounds of `step` requests the fleet's untimed warm-up sends.
const WARM_UP_ROUNDS: usize = 3;

/// Steps of the one-session served probe of a traced cell run.
const PROBE_STEPS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        // `cargo bench` appends `--bench` to a bench target's arguments.
        if flag == "--bench" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(cells::DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn checks(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }

    /// Reports a metric that may be missing. A missing one is a failure, and
    /// its NaN value keeps the result line from being printed.
    fn put(&mut self, name: &'static str, v: Option<f64>, unit: &'static str) {
        let v = v.unwrap_or_else(|| {
            self.attempted += 1;
            self.failures.push(format!("{name} could not be measured"));
            f64::NAN
        });
        self.metric(name, v, unit);
    }
}

/// Where runs keep their scratch state and trace files.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// The pool width a workload runs at unless `PWU_THREADS` asks otherwise.
///
/// The cells run 2 wide. The fleet runs 1 wide: a served step joins its
/// parallel work many times, so on a shared host where the second core is
/// now and then taken away, a 2-wide step drops to 1-wide speed for whole
/// runs. Across runs the fleet's timings spread 0.22–0.35 (interquartile
/// range over median) at 2 wide, and 0.06–0.16 at 1 wide.
fn default_threads(workload: &str) -> usize {
    if workload == "serve-fleet" {
        1
    } else {
        2
    }
}

/// Caps `PWU_THREADS` at the machine's cores (default: the workload's
/// [`default_threads`]) before the thread pool first reads it, and returns
/// the width in force.
fn size_thread_pool(workload: &str) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let asked = std::env::var("PWU_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    let threads = asked
        .filter(|&n| n > 0)
        .unwrap_or_else(|| default_threads(workload))
        .min(cores);
    std::env::set_var("PWU_THREADS", threads.to_string());
    threads
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "cell-fast" && !pwu_forest::FAST_PATH_COMPILED {
        eprintln!("perfbench: cell-fast refused: the forest was built without the fast engine");
        return ExitCode::from(2);
    }
    let threads = size_thread_pool(&args.workload);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} PWU_THREADS={threads} \
         (default seed {}, held-out seed {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cells::DEFAULT_SEED,
        cells::HELD_OUT_SEED
    );
    let mut spans = Spans::new(args.trace);
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("cell-exact", false) => measure_cells(FitMode::Exact, &args),
        ("cell-fast", false) => measure_cells(FitMode::Fast, &args),
        ("cell-exact", true) => trace_cells(FitMode::Exact, &args, &mut spans),
        ("cell-fast", true) => trace_cells(FitMode::Fast, &args, &mut spans),
        (_, false) => measure_fleet(&args),
        (_, true) => trace_fleet(&args, &mut spans),
    };
    if args.trace {
        let path = work_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let _ = std::fs::create_dir_all(work_dir());
        match std::fs::write(&path, pwu_perfbench::spans_jsonl(spans.records())) {
            Ok(()) => println!("spans: {} -> {}", spans.records().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let expected = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    outcome.checks(
        1,
        if names == want {
            vec![]
        } else {
            vec![format!("metrics {names:?} != {want:?}")]
        },
    );
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = outcome.failures.len() as u64;
    match result_line(
        failed == 0,
        outcome.attempted.max(1),
        failed,
        &outcome.metrics,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The pinned digest applies to cell 0 of `cell-exact` at the default seed.
fn pin_for(mode: FitMode, seed: u64, k: usize) -> Option<&'static str> {
    (mode == FitMode::Exact && seed == cells::DEFAULT_SEED && k == 0)
        .then_some(cells::PINNED_EXACT_DIGEST)
}

/// Cells back to back until the next one would overrun `--seconds`.
fn measure_cells(mode: FitMode, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(false);
    let start = Instant::now();
    let (mut setup, mut wall, mut cold, mut rmse, mut iters) =
        (vec![], vec![], vec![], vec![], vec![]);
    for k in 0.. {
        let unit = format!("cell{k}");
        let mut inputs = None;
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            inputs = Some(cells::setup(
                cells::cell_seed(args.seed, k),
                &mut spans,
                &unit,
            ));
            setup.push(t.elapsed().as_secs_f64());
        }
        let inputs = match inputs.expect("at least one set-up") {
            Ok(i) => i,
            Err(e) => {
                out.checks(1, vec![e]);
                break;
            }
        };
        let cell = cells::run_cell(&inputs, mode, &mut spans, &unit);
        out.checks(1, cells::check(&cell, mode, pin_for(mode, args.seed, k)));
        println!(
            "cell {k}: {:.3} s, rmse {:.6e}, digest {}",
            cell.wall_s,
            cell.rmse(),
            cell.digest()
        );
        wall.push(cell.wall_s);
        cold.push(cell.cold_s);
        cold.extend(cells::restart(&inputs, mode, RESTARTS));
        rmse.push(cell.rmse());
        iters.push(cell.iter_s);
        let per_cell = start.elapsed().as_secs_f64() / (k + 1) as f64;
        if start.elapsed().as_secs_f64() + per_cell > args.seconds {
            break;
        }
    }
    // A contention burst on a shared machine slows whole stretches of one
    // cell; the median across cells at each iteration index keeps the
    // latency profile of a typical cell.
    let profile = pwu_perfbench::median_by_index(&iters);
    let throughput: Vec<f64> = iters
        .iter()
        .zip(&wall)
        .map(|(it, w)| it.len() as f64 / w)
        .collect();
    println!("cells: {}", wall.len());
    report_traffic(&mut out, &setup, &wall, &rmse, &profile, &throughput, &cold);
    out
}

/// The end-to-end metrics shared by all workloads. `wall_s` are the tuning
/// runs (cells, or served sessions from create to done), `profile` the
/// latency profile the step percentiles are read from, `throughput` the
/// iterations per second of each cell (or the steps per second of a typical
/// fleet pass), and `recover_s` the restart-to-advancing times.
fn report_traffic(
    out: &mut Outcome,
    setup_s: &[f64],
    wall_s: &[f64],
    rmse: &[f64],
    profile: &[f64],
    throughput: &[f64],
    recover_s: &[f64],
) {
    out.put("setup_s", median(setup_s), "s");
    out.put("cell_s", median(wall_s), "s");
    out.put("rmse_final", geomean(rmse), "s");
    let step_ms: Vec<f64> = profile.iter().map(|s| s * 1e3).collect();
    for (name, p) in [("step_ms_p50", 50.0), ("step_ms_p95", 95.0)] {
        match tail_percentile(&step_ms, p) {
            Ok(q) => {
                println!("{name}: {} samples, {} beyond", q.samples, q.beyond);
                out.metric(name, q.value, "ms");
            }
            Err(e) => {
                println!("{name}: {e}");
                out.put(name, None, "ms");
            }
        }
    }
    out.put("steps_per_s", median(throughput), "1/s");
    out.put("recover_s", median(recover_s), "s");
}

/// The traced cell run: one untraced reference cell, the same cell traced,
/// then the layer replays and a one-session served probe of the cell.
fn trace_cells(mode: FitMode, args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let unit = "cell0";
    let inputs = match cells::setup(cells::cell_seed(args.seed, 0), spans, unit) {
        Ok(i) => i,
        Err(e) => {
            out.checks(1, vec![e]);
            return out;
        }
    };
    let mut off = Spans::new(false);
    let reference = cells::run_cell(&inputs, mode, &mut off, unit);
    pwu_obs::clear();
    pwu_obs::enable();
    let traced = cells::run_cell(&inputs, mode, spans, unit);
    pwu_obs::disable();
    let fits = pwu_obs::summarize(&pwu_obs::drain().deterministic_jsonl())
        .and_then(|s| s.get("forest.fit").map(|f| f.count))
        .unwrap_or(0);
    for cell in [&reference, &traced] {
        out.checks(1, cells::check(cell, mode, pin_for(mode, args.seed, 0)));
    }
    let (hits, misses) = inputs.kernel.eval_cache().stats();
    let config = cells::config(mode);
    let iterations = traced.run.train.len() - config.n_init;

    let fresh = pwu_spapt::kernel_by_name(cells::KERNEL).expect("cell kernel");
    let subject = cells::subject(&inputs, &traced, &fresh, unit);
    let _ = layers::replay_model_layers(spans, &subject, fleet::SESSION_N_MAX);
    let path_s = layers::replay_cell_path(spans, &subject, config.n_init, iterations);
    let records = spans.records().to_vec();
    let annotate_ms = median_self_ms(&records, "measure.annotate", None).unwrap_or(0.0);
    let covered_s = path_s + annotate_ms / 1e3 * iterations as f64;

    let plan = Plan {
        id: "probe".into(),
        spec: fleet::paper_spec(
            cells::KERNEL,
            mode,
            cells::ALPHA,
            config.n_init + PROBE_STEPS,
            inputs.seed,
        ),
    };
    probe_layers(&mut out, std::slice::from_ref(&plan), spans, 3);

    let records = spans.records();
    let ms = |name: &str| median_self_ms(records, name, None);
    out.put("forest.fit_ms.n500", ms("forest.fit.n500"), "ms");
    out.put("forest.fit_ms.session", ms("forest.fit.session"), "ms");
    out.put("forest.predict_pool_ms", ms("forest.predict_pool"), "ms");
    out.metric(
        "forest.nodes",
        layers::node_count(&traced.run.model) as f64,
        "count",
    );
    out.metric(
        "forest.fit_calls_per_step",
        fits as f64 / iterations as f64,
        "calls/step",
    );
    out.put("core.select_us", ms("core.select").map(|m| m * 1e3), "us");
    out.put("core.eval_ms", ms("core.eval"), "ms");
    out.metric(
        "core.unattributed_frac",
        1.0 - covered_s / reference.wall_s,
        "ratio",
    );
    out.metric("measure.annotate_us", annotate_ms * 1e3, "us");
    out.put("measure.label_test_ms", ms("measure.label_test"), "ms");
    out.metric(
        "measure.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.put("space.sample_ms", ms("space.sample"), "ms");
    out.put("space.encode_ms", ms("space.encode"), "ms");
    out.metric(
        "obs.overhead_pct",
        (traced.wall_s / reference.wall_s - 1.0) * 100.0,
        "%",
    );
    println!(
        "reference cell {:.3} s, traced cell {:.3} s, {fits} forest.fit spans over {iterations} iterations",
        reference.wall_s, traced.wall_s
    );
    out
}

/// Runs a traced pass of `plans` with the mid-run step replays, and reads
/// the serve and checkpoint layers off its spans.
fn probe_layers(out: &mut Outcome, plans: &[Plan], spans: &mut Spans, restarts: usize) {
    let scratch = Scratch::new(work_dir().join(format!("probe-{}", std::process::id())));
    let state = scratch.0.join("state");
    let replay_dir = scratch.0.join("replay");
    let mut replays = Default::default();
    let mut hook = |server: &pwu_serve::Server, spans: &mut Spans| {
        replays = fleet::replay_step_layers(server, spans, &replay_dir);
    };
    let pass = fleet::run_pass(
        &state,
        plans,
        spans,
        PassOptions {
            setups: 1,
            restarts,
            count_fits: false,
            mid_run: Some(&mut hook),
            finished: None,
        },
    );
    out.checks(pass.attempted, pass.failures.clone());
    let _ = serve_layers(out, &pass, &replays, spans);
}

/// Reports `core.step_once_ms` and the serve and checkpoint layers of a
/// traced pass whose mid-run replays are `replays`. Returns the share of
/// `step_once` that its inner layer calls do not cover.
fn serve_layers(
    out: &mut Outcome,
    pass: &fleet::Pass,
    replays: &std::collections::BTreeMap<String, fleet::StepReplay>,
    spans: &Spans,
) -> Option<f64> {
    let records = spans.records();
    let ms = |name: &str| median_self_ms(records, name, None);
    let mut dispatch = Vec::new();
    let mut inner = Vec::new();
    let mut bytes = Vec::new();
    for (id, r) in replays {
        // The step right after the replays ran on the replayed checkpoint.
        let steps = pass.step_lat.get(id).map_or(&[][..], Vec::as_slice);
        if let Some(&lat) = steps.get(steps.len() / 2) {
            dispatch.push((lat - (r.materialize + r.step_once + r.save)) / lat);
        }
        inner.push(1.0 - r.inner / r.step_once);
        bytes.push(r.bytes as f64);
    }
    out.put("core.step_once_ms", ms("core.step_once"), "ms");
    out.put("serve.materialize_ms", ms("serve.materialize"), "ms");
    let resume = median_self_ms(records, "serve.handle_line", Some("resume"));
    out.put("serve.resume_ms", resume, "ms");
    out.put("serve.dispatch_frac", median(&dispatch), "ratio");
    out.put("ckpt.bytes", median(&bytes), "bytes");
    out.put("ckpt.encode_ms", ms("ckpt.encode"), "ms");
    out.put("ckpt.save_ms", ms("ckpt.save"), "ms");
    out.put("ckpt.load_ms", ms("ckpt.load"), "ms");
    median(&inner)
}

/// Fleet passes back to back until the next one would overrun `--seconds`.
fn measure_fleet(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::new(false);
    {
        // The first pass of a process runs about 10% slower than the rest;
        // a short untimed fleet takes that off the measured passes.
        let scratch = Scratch::new(work_dir().join(format!("warm-{}", std::process::id())));
        let plans = fleet::fleet_plans(pwu_stats::derive_seed(args.seed, 499));
        let (attempted, failures) = fleet::warm_up(&scratch.0, &plans, WARM_UP_ROUNDS);
        out.checks(attempted, failures);
    }
    let start = Instant::now();
    let (mut setup, mut runs, mut rmse, mut steps, mut recover) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut rounds, mut committed) = (vec![], vec![]);
    for p in 0u64.. {
        let scratch = Scratch::new(work_dir().join(format!("state-{}-{p}", std::process::id())));
        let plans = fleet::fleet_plans(pwu_stats::derive_seed(args.seed, 500 + p));
        let pass = fleet::run_pass(
            &scratch.0,
            &plans,
            &mut spans,
            PassOptions {
                setups: SETUP_REPEATS,
                restarts: RESTARTS,
                count_fits: false,
                mid_run: None,
                finished: None,
            },
        );
        out.checks(pass.attempted, pass.failures.clone());
        println!(
            "pass {p}: setup {:.3} s, {} steps in {:.3} s, recover {:.3} s",
            median(&pass.setup_s).unwrap_or(f64::NAN),
            pass.committed,
            pass.step_wall_s,
            median(&pass.recover_s).unwrap_or(f64::NAN)
        );
        setup.extend(pass.setup_s);
        runs.extend(pass.run_s);
        rmse.extend(pass.rmse);
        steps.push(pass.step_lat.into_values().flatten().collect::<Vec<f64>>());
        recover.extend(pass.recover_s);
        rounds.push(pass.round_s);
        committed.push(pass.committed as f64);
        let per_pass = start.elapsed().as_secs_f64() / (p + 1) as f64;
        if start.elapsed().as_secs_f64() + per_pass > args.seconds {
            break;
        }
    }
    // Every pass sends the same requests in the same order, so the median
    // across passes at each request index keeps the latency profile of a
    // typical pass (as for the cells' iterations).
    let profile = pwu_perfbench::median_by_index(&steps);
    // Likewise the step phase of a typical pass is the median, at each
    // round index, of the round's wall time across passes.
    let typical_s: f64 = pwu_perfbench::median_by_index(&rounds).iter().sum();
    let throughput: Vec<f64> = median(&committed)
        .map(|c| c / typical_s)
        .into_iter()
        .collect();
    println!("passes: {}", steps.len());
    report_traffic(
        &mut out,
        &setup,
        &runs,
        &rmse,
        &profile,
        &throughput,
        &recover,
    );
    out
}

/// The traced fleet run: an untraced reference pass, then the same fleet
/// traced, with step replays at mid-run and model replays at the end.
fn trace_fleet(args: &Args, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let plans = fleet::fleet_plans(pwu_stats::derive_seed(args.seed, 500));
    let reference = {
        let scratch = Scratch::new(work_dir().join(format!("ref-{}", std::process::id())));
        let mut off = Spans::new(false);
        let opts = PassOptions {
            setups: 1,
            restarts: 0,
            count_fits: false,
            mid_run: None,
            finished: None,
        };
        fleet::run_pass(&scratch.0, &plans, &mut off, opts)
    };
    out.checks(reference.attempted, reference.failures.clone());

    let scratch = Scratch::new(work_dir().join(format!("traced-{}", std::process::id())));
    let (state, replay_dir) = (scratch.0.join("state"), scratch.0.join("replay"));
    let mut replays = Default::default();
    let mut mid = |server: &pwu_serve::Server, spans: &mut Spans| {
        replays = fleet::replay_step_layers(server, spans, &replay_dir);
    };
    let mut nodes = Vec::new();
    let mut end = |server: &pwu_serve::Server, spans: &mut Spans| {
        nodes = fleet::replay_session_models(server, &plans, spans);
    };
    let pass = fleet::run_pass(
        &state,
        &plans,
        spans,
        PassOptions {
            setups: 1,
            restarts: 3,
            count_fits: true,
            mid_run: Some(&mut mid),
            finished: Some(&mut end),
        },
    );
    out.checks(pass.attempted, pass.failures.clone());
    let inner = serve_layers(&mut out, &pass, &replays, spans);

    let records = spans.records();
    let ms = |name: &str| median_self_ms(records, name, None);
    out.put("forest.fit_ms.n500", ms("forest.fit.n500"), "ms");
    out.put("forest.fit_ms.session", ms("forest.fit.session"), "ms");
    out.put("forest.predict_pool_ms", ms("forest.predict_pool"), "ms");
    let nodes: Vec<f64> = nodes.iter().map(|&n| n as f64).collect();
    out.put("forest.nodes", median(&nodes), "count");
    out.put(
        "forest.fit_calls_per_step",
        pass.fit_calls_per_step,
        "calls/step",
    );
    out.put("core.select_us", ms("core.select").map(|m| m * 1e3), "us");
    out.put("core.eval_ms", ms("core.eval"), "ms");
    out.put("core.unattributed_frac", inner, "ratio");
    out.put(
        "measure.annotate_us",
        ms("measure.annotate").map(|m| m * 1e3),
        "us",
    );
    out.put("measure.label_test_ms", ms("measure.label_test"), "ms");
    let (hits, misses) = pass.cache;
    out.metric(
        "measure.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.put("space.sample_ms", ms("space.sample"), "ms");
    out.put("space.encode_ms", ms("space.encode"), "ms");
    out.metric(
        "obs.overhead_pct",
        (pass.step_wall_s / reference.step_wall_s - 1.0) * 100.0,
        "%",
    );
    println!(
        "reference step phase {:.3} s, traced {:.3} s, {} steps",
        reference.step_wall_s, pass.step_wall_s, pass.committed
    );
    out
}
