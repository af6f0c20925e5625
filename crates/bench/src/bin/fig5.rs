//! Figure 5: RMSE@α varying with cumulative time cost for *kripke* and
//! *hypre* — the "what accuracy does a second of annotation buy" view.
//!
//! Usage: `cargo run --release -p pwu-bench --bin fig5 [-- --quick|--full]`

use pwu_bench::{benchmarks_or_exit, output_dir, run_curves, Scale};
use pwu_report::{write_csv, LinePlot};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let alpha = 0.01;

    for target in benchmarks_or_exit(&["kripke", "hypre"]) {
        let app = target.name();
        let result = run_curves(target.as_ref(), scale, alpha, 0xF164);
        let mut plot = LinePlot::new(
            format!("Fig 5 ({app}): RMSE@{alpha} vs cumulative cost"),
            "cumulative cost (s)",
            "RMSE (s)",
        )
        .log_y();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for curve in &result.curves {
            let pts: Vec<(f64, f64)> = curve
                .cumulative_cost
                .iter()
                .zip(&curve.rmse[0])
                .map(|(&c, &r)| (c, r))
                .collect();
            plot.series(curve.strategy.name(), &pts);
            for (c, r) in &pts {
                rows.push(vec![
                    curve.strategy.name().to_string(),
                    format!("{c:.6e}"),
                    format!("{r:.6e}"),
                ]);
            }
        }
        println!("{}", plot.render());
        write_csv(
            output_dir().join(format!("fig5_{app}.csv")),
            &["strategy", "cumulative_cost_s", "rmse"],
            rows,
        )
        .expect("CSV write failed");
    }
    println!("CSV series written to {}", output_dir().display());
}
