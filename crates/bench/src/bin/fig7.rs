//! Figure 7: the speedup in cumulative time cost achieved by PWU over PBUS
//! to reach the same (converged) error level, for all 14 benchmarks.
//!
//! The target error level is the maximum of the two strategies' final RMSE
//! (both provably reach it), and the reported ratio is
//! `CC_PBUS(level) / CC_PWU(level)` — values above 1 mean PWU is cheaper.
//!
//! Usage: `cargo run --release -p pwu-bench --bin fig7 [-- --quick|--full] [bench …]`

use pwu_bench::{all_benchmarks, benchmarks_or_exit, output_dir, run_curves, Scale};
use pwu_core::cost_to_reach;
use pwu_report::{write_csv, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let alpha = 0.01;
    let names: Vec<String> = {
        let named: Vec<String> = args
            .iter()
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .collect();
        if named.is_empty() {
            all_benchmarks()
                .iter()
                .map(|b| b.name().to_string())
                .collect()
        } else {
            named
        }
    };

    let mut table = Table::new([
        "benchmark",
        "target RMSE",
        "CC(PBUS) s",
        "CC(PWU) s",
        "speedup",
    ]);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    for target in benchmarks_or_exit(&names) {
        let name = target.name().to_string();
        let result = run_curves(target.as_ref(), scale, alpha, 0xF167);
        let pwu = result.curve("PWU").expect("PWU ran");
        let pbus = result.curve("PBUS").expect("PBUS ran");
        let level = pwu.rmse[0]
            .last()
            .expect("curves have at least one snapshot")
            .max(
                *pbus.rmse[0]
                    .last()
                    .expect("curves have at least one snapshot"),
            );
        let hist = |c: &pwu_core::StrategyCurve| -> Vec<(f64, f64)> {
            c.cumulative_cost
                .iter()
                .zip(&c.rmse[0])
                .map(|(&cc, &r)| (cc, r))
                .collect()
        };
        let cc_pwu = cost_to_reach(&hist(pwu), level).expect("PWU reaches its own level");
        let cc_pbus = cost_to_reach(&hist(pbus), level).expect("PBUS reaches the level");
        let speedup = cc_pbus / cc_pwu;
        speedups.push(speedup);
        table.row([
            name.clone(),
            format!("{level:.4e}"),
            format!("{cc_pbus:.3}"),
            format!("{cc_pwu:.3}"),
            format!("{speedup:.2}x"),
        ]);
        rows.push(vec![
            name,
            format!("{level:.6e}"),
            format!("{cc_pbus:.6e}"),
            format!("{cc_pwu:.6e}"),
            format!("{speedup:.4}"),
        ]);
    }
    println!("Fig 7: cumulative-cost speedup of PWU over PBUS\n");
    println!("{}", table.render());
    let geo = pwu_stats::geomean(&speedups);
    let max = speedups.iter().cloned().fold(0.0f64, f64::max);
    println!("geometric-mean speedup: {geo:.2}x   max: {max:.2}x");
    println!("(paper: 3x on average, up to 21x)");
    write_csv(
        output_dir().join("fig7_speedups.csv"),
        &[
            "benchmark",
            "target_rmse",
            "cc_pbus_s",
            "cc_pwu_s",
            "speedup",
        ],
        rows,
    )
    .expect("CSV write failed");
}
