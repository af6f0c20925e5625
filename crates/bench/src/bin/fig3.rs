//! Figure 3: cumulative annotation cost (Eq. 3) vs number of training
//! samples for the 12 SPAPT kernels under all six strategies.
//!
//! Usage: `cargo run --release -p pwu-bench --bin fig3 [-- --quick|--full] [kernel …]`
//!
//! The runs are seeded identically to `fig2`, so the two figures describe
//! the same experiments (as in the paper).

use pwu_bench::{benchmarks_or_exit, output_dir, run_curves, Scale};
use pwu_report::LinePlot;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
            format!("Fig 3 ({kernel}): cumulative cost vs #samples"),
            "#samples",
            "cumulative cost (s)",
        )
        .log_y();
        for curve in &result.curves {
            let pts: Vec<(f64, f64)> = curve
                .n_train
                .iter()
                .zip(&curve.cumulative_cost)
                .map(|(&n, &c)| (n as f64, c))
                .collect();
            plot.series(curve.strategy.name(), &pts);
        }
        println!("{}", plot.render());
        pwu_bench::write_series_csv(
            &output_dir().join(format!("fig3_{kernel}_cc.csv")),
            &result,
            |c, t| c.cumulative_cost[t],
        );
    }
    println!("CSV series written to {}", output_dir().display());
}
