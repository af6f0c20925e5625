//! Pure helpers of the end-to-end benchmark: order statistics, the tail
//! percentile rule, span accounting (self time), name validation and the
//! result line. Everything here is deterministic and unit-tested; the
//! workloads themselves live in the binary.

use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["cell-exact", "cell-fast", "serve-fleet"];

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "cell_s",
    "rmse_final",
    "step_ms_p50",
    "step_ms_p95",
    "steps_per_s",
    "recover_s",
];

/// Per-layer metrics, reported by every `--trace 1` run.
pub const PER_LAYER: [&str; 22] = [
    "forest.fit_ms.n500",
    "forest.fit_ms.session",
    "forest.predict_pool_ms",
    "forest.nodes",
    "forest.fit_calls_per_step",
    "core.select_us",
    "core.eval_ms",
    "core.step_once_ms",
    "core.unattributed_frac",
    "measure.annotate_us",
    "measure.label_test_ms",
    "measure.cache_hit_rate",
    "space.sample_ms",
    "space.encode_ms",
    "serve.materialize_ms",
    "serve.resume_ms",
    "serve.dispatch_frac",
    "ckpt.bytes",
    "ckpt.encode_ms",
    "ckpt.save_ms",
    "ckpt.load_ms",
    "obs.overhead_pct",
];

/// Median of `values` (mean of the two middle values for even counts).
/// `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The median across `rows` at each index (rows may differ in length; an
/// index takes the rows that reach it).
#[must_use]
pub fn median_by_index(rows: &[Vec<f64>]) -> Vec<f64> {
    let len = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .filter_map(|i| {
            median(
                &rows
                    .iter()
                    .filter_map(|r| r.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Geometric mean of positive values; `None` when empty or when a value is
/// not positive and finite. Runs of very different scales (a kernel's
/// RMSE next to a proxy application's) weigh equally in relative terms.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| v.is_finite() && *v > 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Samples a tail percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// How many samples the set held.
    pub samples: usize,
    /// How many samples lie beyond (above the rank of) the percentile.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile of `values`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it: a tail percentile read from fewer
/// samples is one outlier, not a distribution.
///
/// # Errors
/// Returns a message when `p` is outside `(0, 100]` or the set is too small.
pub fn tail_percentile(values: &[f64], p: f64) -> Result<Percentile, String> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} outside (0, 100]"));
    }
    let n = values.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    Ok(Percentile {
        value: v[rank.max(1) - 1],
        samples: n,
        beyond,
    })
}

/// Splits a run's first-measurement instants into the cold start and the
/// per-iteration latencies.
///
/// `stamps[..n_init]` are the cold-start measurements, and iteration `i`
/// (counting from one) measures `stamps[n_init + i - 1]`. An iteration's
/// latency is the gap to the next iteration's measurement; the last one's
/// runs to `end`. Returns the time from `start` to the first iteration's
/// measurement and the iteration latencies, all in seconds.
#[must_use]
pub fn split_iterations(
    start: Instant,
    stamps: &[Instant],
    end: Instant,
    n_init: usize,
) -> (f64, Vec<f64>) {
    let Some(&first) = stamps.get(n_init) else {
        return (end.duration_since(start).as_secs_f64(), Vec::new());
    };
    let iter_stamps = &stamps[n_init..];
    let mut lat: Vec<f64> = iter_stamps
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect();
    if let Some(&last) = iter_stamps.last() {
        lat.push(end.duration_since(last).as_secs_f64());
    }
    (first.duration_since(start).as_secs_f64(), lat)
}

/// One recorded span: a timed call the benchmark made into the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `forest.fit` or `serve.handle_line`.
    pub name: String,
    /// Free-form tag (request verb, fit size, …); may be empty.
    pub tag: String,
    /// Identifier of the cell or request the span belongs to.
    pub unit: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created (`start_ns` while
    /// the span is still open).
    pub end_ns: u64,
}

impl SpanRecord {
    /// Inclusive duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
#[must_use]
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(list) = children.get_mut(p) {
                list.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor).min(s.end_ns);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// The spans as JSON lines, one object per span, each with its self time.
#[must_use]
pub fn spans_jsonl(records: &[SpanRecord]) -> String {
    let self_ns = self_times(records);
    let mut out = String::new();
    for (r, s) in records.iter().zip(self_ns) {
        let parent = r
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":{},\"tag\":{},\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{s}}}\n",
            r.id,
            json_string(&r.name),
            json_string(&r.tag),
            json_string(&r.unit),
            r.start_ns,
            r.end_ns,
        ));
    }
    out
}

/// Median self time, in milliseconds, of the spans named `name` (and
/// tagged `tag`, when given).
#[must_use]
pub fn median_self_ms(spans: &[SpanRecord], name: &str, tag: Option<&str>) -> Option<f64> {
    let self_ns = self_times(spans);
    let ms: Vec<f64> = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name && tag.is_none_or(|t| s.tag == t))
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect();
    median(&ms)
}

/// Whether `name` is a valid workload or metric name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Serializes a string as a JSON string literal.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit token (`s`, `ms`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// The result line: `correct`, `attempted`, `failed` and the metrics keyed
/// by name. Values are printed with every digit (shortest round-trip form).
///
/// # Errors
/// Returns a message naming the first metric with an invalid name or a
/// non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(m.name) {
            return Err(format!("invalid metric name '{}'", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric '{}' is not finite ({})", m.name, m.value));
        }
        body.push(format!(
            "{}:{{\"value\":{:?},\"unit\":{}}}",
            json_string(m.name),
            m.value,
            json_string(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rec(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: format!("s{id}"),
            tag: String::new(),
            unit: "u".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        let rows = vec![vec![1.0, 10.0, 5.0], vec![2.0, 20.0], vec![3.0, 90.0, 7.0]];
        assert_eq!(median_by_index(&rows), vec![2.0, 20.0, 6.0]);
        assert!(median_by_index(&[]).is_empty());
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = tail_percentile(&v, 95.0).unwrap();
        assert_eq!(p.value, 190.0);
        assert_eq!((p.samples, p.beyond), (200, 10));
        let p50 = tail_percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (100.0, 100));
        // 199 samples leave only 9 beyond p95.
        assert!(tail_percentile(&v[..199], 95.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
        assert!(tail_percentile(&v, 0.0).is_err());
        assert!(tail_percentile(&v, 101.0).is_err());
    }

    #[test]
    fn tail_percentile_is_order_free() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from((i * 7919) % 300)).collect();
        let a = tail_percentile(&v, 95.0).unwrap();
        v.sort_unstable_by(f64::total_cmp);
        assert_eq!(a, tail_percentile(&v, 95.0).unwrap());
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        // root [0,100] with children [10,30] and [20,50] (overlapping) and
        // [60,70]; grandchild [62,68] belongs to the last child only.
        let spans = vec![
            rec(0, None, 0, 100),
            rec(1, Some(0), 10, 30),
            rec(2, Some(0), 20, 50),
            rec(3, Some(0), 60, 70),
            rec(4, Some(3), 62, 68),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30, 4, 6]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![rec(0, None, 10, 20), rec(1, Some(0), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn spans_serialize_with_self_time() {
        let spans = vec![rec(0, None, 0, 100), rec(1, Some(0), 10, 30)];
        let text = spans_jsonl(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""parent":null"#) && lines[0].contains(r#""self_ns":80"#));
        assert!(lines[1].contains(r#""parent":0"#) && lines[1].contains(r#""self_ns":20"#));
        assert_eq!(median_self_ms(&spans, "s1", None), Some(20e-6));
        assert_eq!(median_self_ms(&spans, "s1", Some("other")), None);
        assert_eq!(median_self_ms(&spans, "missing", None), None);
    }

    #[test]
    fn iterations_split_at_the_cold_start() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Two cold-start measurements, then iterations measured at 10, 13, 18.
        let stamps = [at(1), at(2), at(10), at(13), at(18)];
        let (cold, lat) = split_iterations(t0, &stamps, at(20), 2);
        assert!((cold - 0.010).abs() < 1e-9);
        let ms: Vec<u64> = lat.iter().map(|s| (s * 1e3).round() as u64).collect();
        assert_eq!(ms, vec![3, 5, 2]);
    }

    #[test]
    fn names_are_validated() {
        for ok in [
            "cell-exact",
            "serve-fleet",
            "forest.fit_ms.n500",
            "setup_s",
            "9a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "-lead",
            ".dot",
            "has space",
            "sl/ash",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.812_7,
                unit: "s",
            }],
        )
        .unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        let nan = Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
        };
        assert!(result_line(true, 1, 0, &[nan]).is_err());
        let bad = Metric {
            name: "bad name",
            value: 1.0,
            unit: "s",
        };
        assert!(result_line(true, 1, 0, &[bad]).is_err());
    }
}
