//! Figure 4: RMSE@α and cumulative cost vs number of samples for the two
//! parallel applications, *kripke* and *hypre* (α = 0.01).
//!
//! Usage: `cargo run --release -p pwu-bench --bin fig4 [-- --quick|--full] [--trace PATH]`

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

    for target in benchmarks_or_exit(&["kripke", "hypre"]) {
        let app = target.name();
        let result = run_curves(target.as_ref(), scale, alpha, 0xF164);

        let mut rmse_plot = LinePlot::new(
            format!("Fig 4a ({app}): RMSE@{alpha} vs #samples"),
            "#samples",
            "RMSE (s)",
        )
        .log_y();
        let mut cc_plot = LinePlot::new(
            format!("Fig 4b ({app}): cumulative cost vs #samples"),
            "#samples",
            "cumulative cost (s)",
        )
        .log_y();
        for curve in &result.curves {
            let rmse: Vec<(f64, f64)> = curve
                .n_train
                .iter()
                .zip(&curve.rmse[0])
                .map(|(&n, &r)| (n as f64, r))
                .collect();
            let cc: Vec<(f64, f64)> = curve
                .n_train
                .iter()
                .zip(&curve.cumulative_cost)
                .map(|(&n, &c)| (n as f64, c))
                .collect();
            rmse_plot.series(curve.strategy.name(), &rmse);
            cc_plot.series(curve.strategy.name(), &cc);
        }
        println!("{}", rmse_plot.render());
        println!("{}", cc_plot.render());
        pwu_bench::write_series_csv(
            &output_dir().join(format!("fig4_{app}_rmse.csv")),
            &result,
            |c, t| c.rmse[0][t],
        );
        pwu_bench::write_series_csv(
            &output_dir().join(format!("fig4_{app}_cc.csv")),
            &result,
            |c, t| c.cumulative_cost[t],
        );
        // Fig 5 derives from the same runs: RMSE as a function of cost.
        pwu_bench::write_series_csv(
            &output_dir().join(format!("fig5_{app}_rmse_vs_cc.csv")),
            &result,
            |c, t| c.rmse[0][t],
        );
    }
    println!("CSV series written to {}", output_dir().display());
    if let Some(path) = trace {
        pwu_bench::export_trace(&path);
    }
}
