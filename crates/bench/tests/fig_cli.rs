//! The figure binaries that take benchmark names on the command line check
//! every name before running anything: a typo exits with status 2 and the
//! list of valid names, and writes no output.

use std::process::Command;

#[test]
fn a_mistyped_benchmark_name_exits_2_before_any_work() {
    for (bin, exe) in [
        ("fig2", env!("CARGO_BIN_EXE_fig2")),
        ("fig3", env!("CARGO_BIN_EXE_fig3")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ] {
        let dir = std::env::temp_dir().join(format!("pwu-fig-cli-{bin}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A valid name ahead of the typo: it must not run either.
        let out = Command::new(exe)
            .args(["--quick", "atax", "nosuchkernel"])
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains("unknown benchmark `nosuchkernel`"),
            "{bin}: {stderr}"
        );
        for name in pwu_bench::benchmark_names() {
            assert!(stderr.contains(&name), "{bin} must list {name}: {stderr}");
        }
        assert!(!stderr.contains("[atax]"), "{bin} started work: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} printed output");
        assert!(!dir.join("target").exists(), "{bin} wrote output files");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
