//! How much model fitting a served step costs, read from the program's own
//! trace: a resident session refits once per committed step, and only the
//! first step after a resume pays a second (replay) fit to rebuild its live
//! loop. Its own test binary, because the tracer is process-global.

use std::fs;

use pwu_serve::{parse_object, AdmissionPolicy, Server, WatchdogPolicy};

/// Span counts by name in everything traced since the last drain.
fn drained_counts(names: &[&str]) -> Vec<u64> {
    let trace = pwu_obs::drain();
    let summary = pwu_obs::summarize(&trace.deterministic_jsonl()).expect("a pwu-trace-v1 export");
    names
        .iter()
        .map(|name| summary.get(name).map_or(0, |s| s.count))
        .collect()
}

fn send_ok(server: &mut Server, line: &str) {
    let (response, _) = server.handle_line(line);
    let fields = parse_object(&response).unwrap();
    assert_eq!(fields.str("error"), None, "{response}");
}

#[test]
fn a_committed_step_fits_once_and_a_resumed_step_twice() {
    let dir = std::env::temp_dir().join(format!("pwu-serve-fit-count-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut server = Server::open(&dir, AdmissionPolicy::default(), WatchdogPolicy::default()).unwrap();
    let names = ["forest.fit", "core.restore", "serve.materialize", "serve.persist"];
    pwu_obs::clear();
    pwu_obs::enable();

    send_ok(
        &mut server,
        r#"{"cmd":"create","session":"f","target":"atax","seed":3,"n_init":4,"n_batch":1,"n_max":12,"repeats":1,"n_trees":8,"eval_every":1,"pool_n":40,"test_n":20}"#,
    );
    // The cold start fits once and materializes once.
    assert_eq!(drained_counts(&names), [1, 0, 1, 1]);

    let step = r#"{"cmd":"step","session":"f","n":1}"#;
    const N: u64 = 3;
    for _ in 0..N {
        send_ok(&mut server, step);
    }
    assert_eq!(drained_counts(&names), [N, 0, 0, N], "resident steps");

    send_ok(&mut server, r#"{"cmd":"suspend","session":"f"}"#);
    send_ok(&mut server, r#"{"cmd":"resume","session":"f"}"#);
    // Resume is lazy: it loads the checkpoint and nothing else.
    assert_eq!(drained_counts(&names), [0, 0, 0, 0], "resume");
    send_ok(&mut server, step);
    assert_eq!(drained_counts(&names), [2, 1, 1, 1], "first step after resume");
    send_ok(&mut server, step);
    assert_eq!(drained_counts(&names), [1, 0, 0, 1], "resident again");

    pwu_obs::disable();
    let _ = fs::remove_dir_all(&dir);
}
