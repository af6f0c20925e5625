//! `pwu-trace` end to end: the binary's output when its reader goes away.

use std::process::{Command, Stdio};

/// A small `pwu-trace-v1` export with two spans and a metric.
const TRACE: &str = concat!(
    "{\"schema\":\"pwu-trace-v1\",\"plane\":\"full\"}\n",
    "{\"seq\":0,\"ph\":\"B\",\"name\":\"stage\",\"args\":{\"cost\":2.5},\"wall_ns\":100}\n",
    "{\"seq\":1,\"ph\":\"B\",\"name\":\"inner\",\"wall_ns\":120}\n",
    "{\"seq\":2,\"ph\":\"E\",\"name\":\"inner\",\"wall_ns\":200}\n",
    "{\"seq\":3,\"ph\":\"E\",\"name\":\"stage\",\"wall_ns\":350}\n",
    "{\"metric\":\"m.count\",\"plane\":\"deterministic\",\"value\":9}\n",
);

/// Runs `pwu-trace` with stdout connected to a pipe whose read end is
/// already closed, as in `pwu-trace summarize FILE | true`.
fn run_into_closed_pipe(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let child = Command::new(env!("CARGO_BIN_EXE_pwu-trace"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pwu-trace");
    child.wait_with_output().expect("wait for pwu-trace")
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    let dir = std::env::temp_dir().join(format!("pwu-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, TRACE).expect("write trace");
    let file = path.to_str().expect("utf-8 temp path");
    for args in [
        vec!["summarize", file],
        vec!["top", file],
        vec!["top", file, "1"],
        vec!["diff", file, file],
    ] {
        let out = run_into_closed_pipe(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: status {:?}, stderr {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // The same commands still print in full to a live reader.
    let out = Command::new(env!("CARGO_BIN_EXE_pwu-trace"))
        .args(["summarize", file])
        .output()
        .expect("run pwu-trace");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stage") && text.contains("m.count") && text.contains("4 events total"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
