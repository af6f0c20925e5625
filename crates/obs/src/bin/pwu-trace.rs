//! `pwu-trace` — turn a `pwu-trace-v1` JSONL export into per-stage tables.
//!
//! ```text
//! pwu-trace summarize <trace.jsonl>        per-span cost/latency table + metrics
//! pwu-trace diff <base.jsonl> <new.jsonl>  compare two runs; exit 1 on regression
//! pwu-trace top <trace.jsonl> [N]          heaviest spans (wall time, else extent)
//! ```
//!
//! Works on both planes: deterministic traces have no wall column (the
//! sidecar is stripped), full traces show sidecar milliseconds.
//!
//! A closed stdout (`pwu-trace summarize FILE | head`) ends the command
//! quietly with status 0: the reader has taken all it wanted.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::exit;

use pwu_obs::{diff_summaries, summarize, Summary};

fn load(path: &str) -> Summary {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("pwu-trace: cannot read {path}: {e}");
        exit(2);
    });
    summarize(&text).unwrap_or_else(|| {
        eprintln!("pwu-trace: {path} is not a pwu-trace-v1 export");
        exit(2);
    })
}

#[allow(clippy::cast_precision_loss)]
fn wall_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Writes `text` to stdout. A reader that closed the pipe early is a clean
/// exit 0; any other write failure is reported and exits 2.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("pwu-trace: cannot write to stdout: {e}");
        exit(2);
    }
}

/// Appends one line to `out` (formatting into a `String` cannot fail).
macro_rules! line {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("formatting into a String")
    };
}

fn render_summary(s: &Summary) -> String {
    let mut out = String::new();
    line!(
        out,
        "{:<30} {:>8} {:>14} {:>10} {:>12}",
        "span", "count", "cost", "extent", "wall ms"
    );
    for stat in &s.spans {
        let wall = if stat.wall_total_ns > 0 {
            format!("{:.3}", wall_ms(stat.wall_total_ns))
        } else {
            "-".to_string()
        };
        line!(
            out,
            "{:<30} {:>8} {:>14.3} {:>10} {:>12}",
            stat.name, stat.count, stat.cost_total, stat.seq_extent, wall
        );
    }
    if !s.metrics.is_empty() {
        line!(out, "\n{:<40} {:>15} plane", "metric", "value");
        for (name, plane, value) in &s.metrics {
            line!(out, "{name:<40} {value:>15} {plane}");
        }
    }
    line!(out, "\n{} events total", s.events);
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("summarize") if args.len() == 2 => {
            emit(&render_summary(&load(&args[1])));
        }
        Some("diff") if args.len() >= 3 => {
            let threshold = args
                .iter()
                .position(|a| a == "--threshold")
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse::<f64>().ok())
                .map_or(0.10, |pct| pct / 100.0);
            let base = load(&args[1]);
            let new = load(&args[2]);
            let report = diff_summaries(&base, &new, threshold);
            emit(&report.text);
            if report.regressed {
                eprintln!(
                    "pwu-trace: regression over {:.0}% threshold",
                    threshold * 100.0
                );
                exit(1);
            }
            emit(&format!("no regression over {:.0}% threshold\n", threshold * 100.0));
        }
        Some("top") if args.len() >= 2 => {
            let n = args
                .get(2)
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(10);
            let s = load(&args[1]);
            let mut spans = s.spans.clone();
            spans.sort_by(|a, b| {
                (b.wall_total_ns, b.seq_extent, b.count).cmp(&(
                    a.wall_total_ns,
                    a.seq_extent,
                    a.count,
                ))
            });
            let mut out = String::new();
            line!(
                out,
                "{:<30} {:>8} {:>14} {:>10} {:>12}",
                "span", "count", "cost", "extent", "wall ms"
            );
            for stat in spans.iter().take(n) {
                line!(
                    out,
                    "{:<30} {:>8} {:>14.3} {:>10} {:>12.3}",
                    stat.name,
                    stat.count,
                    stat.cost_total,
                    stat.seq_extent,
                    wall_ms(stat.wall_total_ns)
                );
            }
            emit(&out);
        }
        _ => {
            eprintln!(
                "usage: pwu-trace <summarize FILE | diff BASE NEW [--threshold PCT] | top FILE [N]>"
            );
            exit(2);
        }
    }
}
