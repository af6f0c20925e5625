//! `BENCHMARK.json` at the repository root declares workloads the benchmark
//! runs and exactly the metrics it reports.

use pwu_perfbench::{valid_name, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn benchmark_json_matches_the_benchmark() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |part: &str| -> Vec<String> {
        part.split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .map(str::to_string)
            .collect()
    };
    let (workloads, metrics) = text
        .split_once("\"end_to_end\"")
        .expect("an end_to_end list");
    let workloads = names(workloads);
    assert!(!workloads.is_empty());
    for w in &workloads {
        assert!(
            WORKLOADS.contains(&w.as_str()),
            "{w} is not a workload of the benchmark"
        );
    }
    let ours: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    assert_eq!(names(metrics), ours);
    for name in WORKLOADS.iter().chain(&ours) {
        assert!(valid_name(name), "{name}");
    }
}
