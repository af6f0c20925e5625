//! Figure 2: RMSE@α (α = 0.01) vs number of training samples, for the 12
//! SPAPT kernels under all six sampling strategies.
//!
//! Usage: `cargo run --release -p pwu-bench --bin fig2 [-- --quick|--full] [--trace PATH] [kernel …]`
//!
//! Prints one chart per kernel and writes
//! `target/paper/fig2_<kernel>_rmse.csv` (and the matching Fig 3 cost series,
//! since both figures come from the same runs).

use pwu_bench::{benchmarks_or_exit, output_dir, run_curves, Scale};
use pwu_report::LinePlot;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, trace) = pwu_bench::take_trace_flag(args);
    if trace.is_some() {
        pwu_bench::start_tracing();
    }
    let scale = Scale::from_args(&args);
    let alpha = 0.01;
    let kernels: Vec<String> = {
        let named: Vec<String> = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .collect();
        if named.is_empty() {
            pwu_spapt::all_kernels()
                .iter()
                .map(|k| pwu_space::TuningTarget::name(k).to_string())
                .collect()
        } else {
            named
        }
    };

    for target in benchmarks_or_exit(&kernels) {
        let kernel = target.name();
        let result = run_curves(target.as_ref(), scale, alpha, 0xF162);
        let mut plot = LinePlot::new(
            format!("Fig 2 ({kernel}): RMSE@{alpha} vs #samples"),
            "#samples",
            format!("RMSE of top {:.0}% (s)", alpha * 100.0),
        )
        .log_y();
        for curve in &result.curves {
            let pts: Vec<(f64, f64)> = curve
                .n_train
                .iter()
                .zip(&curve.rmse[0])
                .map(|(&n, &r)| (n as f64, r))
                .collect();
            plot.series(curve.strategy.name(), &pts);
        }
        println!("{}", plot.render());
        pwu_bench::write_series_csv(
            &output_dir().join(format!("fig2_{kernel}_rmse.csv")),
            &result,
            |c, t| c.rmse[0][t],
        );
        pwu_bench::write_series_csv(
            &output_dir().join(format!("fig3_{kernel}_cc.csv")),
            &result,
            |c, t| c.cumulative_cost[t],
        );
    }
    println!(
        "CSV series written to {} (fig2_*_rmse.csv, fig3_*_cc.csv)",
        output_dir().display()
    );
    if let Some(path) = trace {
        pwu_bench::export_trace(&path);
    }
}
