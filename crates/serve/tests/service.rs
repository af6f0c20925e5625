//! End-to-end service behavior: protocol dispatch, admission, watchdogs,
//! LRU eviction, crash re-attach and the serve ≡ core identity.

use std::fs;
use std::path::PathBuf;

use pwu_core::RetryPolicy;
use pwu_serve::protocol::Fields;
use pwu_serve::session::SessionSpec;
use pwu_serve::{parse_object, AdmissionPolicy, ErrorKind, Server, SessionState, WatchdogPolicy};

/// A fresh scratch directory under the system temp root.
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwu-serve-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The small spec every test uses (cheap but non-trivial: three committed
/// steps to done).
fn small_spec(target: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        target: target.into(),
        n_init: 4,
        n_batch: 2,
        n_max: 10,
        repeats: 1,
        n_trees: 8,
        eval_every: 5,
        pool_n: 40,
        test_n: 20,
        seed,
        ..SessionSpec::default()
    }
}

/// The create request line for [`small_spec`].
fn create_line(id: &str, target: &str, seed: u64) -> String {
    format!(
        r#"{{"cmd":"create","session":"{id}","target":"{target}","seed":{seed},"n_init":4,"n_batch":2,"n_max":10,"repeats":1,"n_trees":8,"eval_every":5,"pool_n":40,"test_n":20}}"#
    )
}

fn server_at(dir: &PathBuf) -> Server {
    Server::open(dir, AdmissionPolicy::default(), WatchdogPolicy::default()).unwrap()
}

/// Sends one line and parses the response object.
fn send(server: &mut Server, line: &str) -> Fields {
    let (response, _) = server.handle_line(line);
    parse_object(&response).unwrap_or_else(|e| panic!("unparseable response '{response}': {e}"))
}

fn assert_err(fields: &Fields, kind: ErrorKind) {
    assert_eq!(
        fields.str("error"),
        Some(kind.token()),
        "expected a {} error, got {fields:?}",
        kind.token()
    );
}

/// The digest after every step of the core recovery path
/// (`bootstrap` + a `step_once` chain) for `spec`.
fn core_digests(spec: &SessionSpec) -> Vec<String> {
    let target = pwu_serve::SessionTarget::by_name(&spec.target).unwrap();
    let (pool, test_features, test_labels) = spec.materialize(target.as_target());
    let config = spec.active_config();
    let mut checkpoint = pwu_core::bootstrap(
        target.as_target(),
        &config,
        pool,
        &test_features,
        &test_labels,
        spec.seed,
    );
    let mut digests = Vec::new();
    loop {
        let out = pwu_core::step_once(
            target.as_target(),
            spec.strategy,
            &config,
            &checkpoint,
            &test_features,
            &test_labels,
        )
        .unwrap();
        checkpoint = out.checkpoint;
        digests.push(format!(
            "{:016x}",
            pwu_core::fnv1a64(checkpoint.to_text().as_bytes())
        ));
        if out.done {
            return digests;
        }
    }
}

/// Drives session `id` to done with one-step requests, calling
/// `before(server, k)` ahead of the `k`-th request. Returns the digest of
/// every committed step and the number of requests that committed nothing.
fn served_digests(
    server: &mut Server,
    id: &str,
    mut before: impl FnMut(&mut Server, usize),
) -> (Vec<String>, usize) {
    let step = format!(r#"{{"cmd":"step","session":"{id}","n":1}}"#);
    let mut digests = Vec::new();
    let mut uncommitted = 0;
    for k in 0..100 {
        before(server, k);
        let r = send(server, &step);
        assert_eq!(r.str("error"), None, "{r:?}");
        if r.u64("steps") == Some(1) {
            digests.push(r.str("digest").unwrap().to_string());
        } else {
            uncommitted += 1;
        }
        if r.str("state") == Some("done") {
            return (digests, uncommitted);
        }
    }
    panic!("session {id} never finished");
}

/// The resident chain (one live loop per session, stepped in place) must
/// be bit-identical to the core recovery chain, including across every
/// event that drops the live loop and forces a rebuild from the committed
/// checkpoint. Panicking steps are covered by the session unit tests and
/// fault-injecting targets by the core `fault_tolerance` suite.
#[test]
fn served_session_is_bit_identical_to_the_core_loop() {
    let spec = small_spec("adi", 42);
    let expected = core_digests(&spec);
    assert_eq!(expected.len(), 3);
    let suspend = r#"{"cmd":"suspend","session":"s1"}"#;
    let resume = r#"{"cmd":"resume","session":"s1"}"#;

    // Straight through, and with a suspend + resume mid-run.
    for suspend_at in [None, Some(1)] {
        let dir = tmp("identity");
        let mut server = server_at(&dir);
        let created = send(&mut server, &create_line("s1", "adi", 42));
        assert_eq!(created.str("state"), Some("active"));
        let (digests, _) = served_digests(&mut server, "s1", |server, k| {
            if Some(k) == suspend_at {
                let r = send(server, suspend);
                assert_eq!(r.get("resident"), Some(&pwu_serve::protocol::Value::Bool(false)));
                let r = send(server, resume);
                assert_eq!(r.str("state"), Some("active"));
            }
        });
        assert_eq!(digests, expected, "suspend at {suspend_at:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    // Every step busts a zero deadline once and is shed, then its retry
    // (allowed a huge backoff) commits.
    let dir = tmp("identity-shed");
    let watchdog = WatchdogPolicy {
        max_step_cost: 0.0,
        grace: RetryPolicy {
            max_retries: 1,
            backoff_cost: 1e12,
        },
    };
    let mut server = Server::open(&dir, AdmissionPolicy::default(), watchdog).unwrap();
    send(&mut server, &create_line("s1", "adi", 42));
    let (digests, shed) = served_digests(&mut server, "s1", |_, _| {});
    assert_eq!(digests, expected, "shed and retried");
    assert_eq!(shed, expected.len());
    let _ = fs::remove_dir_all(&dir);

    // No warm memo allowed: every step's eval-cache memo is evicted.
    let dir = tmp("identity-lru");
    let admission = AdmissionPolicy {
        max_warm_caches: 0,
        ..AdmissionPolicy::default()
    };
    let mut server = Server::open(&dir, admission, WatchdogPolicy::default()).unwrap();
    send(&mut server, &create_line("s1", "adi", 42));
    let (digests, _) = served_digests(&mut server, "s1", |_, _| {});
    assert_eq!(digests, expected, "memo evicted every step");
    let stats = send(&mut server, r#"{"cmd":"stats"}"#);
    assert!(stats.u64("cache_evictions").unwrap() >= expected.len() as u64);
    let _ = fs::remove_dir_all(&dir);

    // No cache bytes allowed: the live state is shed after every step and
    // every step rebuilds it from the committed checkpoint.
    let dir = tmp("identity-shed-live");
    let admission = AdmissionPolicy {
        max_cache_bytes: 0,
        ..AdmissionPolicy::default()
    };
    let mut server = Server::open(&dir, admission, WatchdogPolicy::default()).unwrap();
    send(&mut server, &create_line("s1", "adi", 42));
    let (digests, _) = served_digests(&mut server, "s1", |server, _| {
        let q = send(server, r#"{"cmd":"query","session":"s1"}"#);
        assert_eq!(q.u64("live_bytes"), Some(0));
    });
    assert_eq!(digests, expected, "live state shed every step");
    let _ = fs::remove_dir_all(&dir);
}

/// Memo plus live bytes of every session, from `query`.
fn cache_and_live_bytes(server: &mut Server, ids: &[&str]) -> Vec<u64> {
    ids.iter()
        .map(|id| {
            let q = send(server, &format!(r#"{{"cmd":"query","session":"{id}"}}"#));
            q.u64("cache_bytes").unwrap() + q.u64("live_bytes").unwrap()
        })
        .collect()
}

#[test]
fn live_state_stays_under_the_byte_budget_coldest_first() {
    let ids = ["cold", "hot"];
    let requests = [
        create_line("cold", "adi", 1),
        create_line("hot", "adi", 2),
        r#"{"cmd":"step","session":"hot","n":1}"#.to_string(),
        r#"{"cmd":"step","session":"cold","n":1}"#.to_string(),
        r#"{"cmd":"step","session":"hot","n":1}"#.to_string(),
    ];
    // Unbounded reference: both sessions stay live.
    let dir = tmp("live-budget-ref");
    let mut server = server_at(&dir);
    let reference: Vec<Fields> = requests.iter().map(|r| send(&mut server, r)).collect();
    let sizes = cache_and_live_bytes(&mut server, &ids);
    assert!(sizes.iter().all(|&b| b > 0), "{sizes:?}");
    let _ = fs::remove_dir_all(&dir);

    // Room for one session's memo and live state, not two.
    let budget = sizes.iter().max().unwrap() * 3 / 2;
    assert!(budget < sizes.iter().sum::<u64>());
    let dir = tmp("live-budget");
    let admission = AdmissionPolicy {
        max_cache_bytes: usize::try_from(budget).unwrap(),
        ..AdmissionPolicy::default()
    };
    let mut server = Server::open(&dir, admission, WatchdogPolicy::default()).unwrap();
    for (request, expected) in requests.iter().zip(&reference) {
        let r = send(&mut server, request);
        assert_eq!(r.str("digest"), expected.str("digest"), "{request}");
        let present: Vec<&str> = ids.into_iter().filter(|id| server.session(id).is_some()).collect();
        let bytes = cache_and_live_bytes(&mut server, &present);
        assert!(bytes.iter().sum::<u64>() <= budget, "{request}: {bytes:?} over {budget}");
        // Only the session just touched keeps its live state.
        for id in present {
            let live = server.session(id).unwrap().live_bytes() > 0;
            let touched = request.contains(&format!(r#""session":"{id}""#));
            assert_eq!(live, touched, "{request}: {id}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn create_rejects_malformed_seed_and_alpha_with_typed_errors() {
    let dir = tmp("malformed");
    let mut server = server_at(&dir);
    let create = |extra: &str| {
        format!(r#"{{"cmd":"create","session":"m","target":"adi","pool_n":40,"test_n":20,"n_max":10,"n_init":4{extra}}}"#)
    };
    for extra in [
        r#","seed":-1"#,
        r#","seed":1.5"#,
        r#","seed":9007199254740992"#,
        r#","seed":9007199254740993"#,
        r#","seed":1e300"#,
        r#","seed":"7""#,
        r#","seed":true"#,
        r#","alpha":"0.1""#,
        r#","alpha":null"#,
        r#","n_trees":"8""#,
        r#","strategy":1"#,
        r#","fit_mode":0"#,
        r#","repeats":-3"#,
    ] {
        let line = create(extra);
        let r = send(&mut server, &line);
        assert_eq!(r.str("error"), Some("bad-request"), "{line} -> {r:?}");
        assert!(server.session("m").is_none(), "{line} created a session");
    }
    // The largest seed the wire carries exactly is accepted and kept.
    let r = send(&mut server, &create(r#","seed":9007199254740991,"alpha":0.25"#));
    assert_eq!(r.str("state"), Some("active"), "{r:?}");
    let spec = server.session("m").unwrap().spec();
    assert_eq!(spec.seed, (1 << 53) - 1);
    assert_eq!(spec.alpha, 0.25);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn admission_sheds_load_with_typed_overloads() {
    let dir = tmp("admission");
    let admission = AdmissionPolicy {
        max_sessions: 2,
        max_resident: 1,
        max_steps_per_request: 3,
        ..AdmissionPolicy::default()
    };
    let mut server = Server::open(&dir, admission, WatchdogPolicy::default()).unwrap();
    send(&mut server, &create_line("a", "adi", 1));
    // Resident bound: a second resident session is refused outright...
    assert_err(
        &send(&mut server, &create_line("b", "atax", 2)),
        ErrorKind::Overloaded,
    );
    // ...until the first is suspended.
    send(&mut server, r#"{"cmd":"suspend","session":"a"}"#);
    send(&mut server, &create_line("b", "atax", 2));
    // Registry bound: a third session is refused even though memory is free.
    send(&mut server, r#"{"cmd":"suspend","session":"b"}"#);
    assert_err(
        &send(&mut server, &create_line("c", "bicgkernel", 3)),
        ErrorKind::Overloaded,
    );
    // Resume past the resident bound is refused too.
    send(&mut server, r#"{"cmd":"resume","session":"a"}"#);
    assert_err(
        &send(&mut server, r#"{"cmd":"resume","session":"b"}"#),
        ErrorKind::Overloaded,
    );
    // Oversized step requests are shed, zero-step requests are bad.
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"a","n":4}"#),
        ErrorKind::Overloaded,
    );
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"a","n":0}"#),
        ErrorKind::BadRequest,
    );
    let stats = send(&mut server, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.u64("overloaded"), Some(4));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_degrades_runaways_and_resume_recovers_them() {
    let dir = tmp("watchdog");
    // Every step busts a zero deadline; one strike of grace, then degrade.
    let watchdog = WatchdogPolicy {
        max_step_cost: 0.0,
        grace: RetryPolicy {
            max_retries: 1,
            backoff_cost: 0.0,
        },
    };
    let mut server = Server::open(&dir, AdmissionPolicy::default(), watchdog).unwrap();
    let created = send(&mut server, &create_line("w", "adi", 7));
    let durable_digest = created.str("digest").unwrap().to_string();
    let generation = created.u64("generation").unwrap();

    // Strike 1: shed but still active. Strike 2: degraded.
    let r = send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#);
    assert_eq!(r.str("state"), Some("active"));
    assert_eq!(r.u64("steps"), Some(0));
    assert_eq!(r.u64("shed"), Some(1));
    let r = send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#);
    assert_err(&r, ErrorKind::Degraded);
    let q = send(&mut server, r#"{"cmd":"query","session":"w"}"#);
    assert_eq!(q.str("state"), Some("degraded"));
    // Stepping a degraded session is a bad-state error, not a hang.
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"w","n":1}"#),
        ErrorKind::BadState,
    );

    // Nothing was committed: resume recovers the exact pre-strike state.
    let r = send(&mut server, r#"{"cmd":"resume","session":"w"}"#);
    assert_eq!(r.str("state"), Some("active"));
    assert_eq!(r.str("digest"), Some(durable_digest.as_str()));
    assert_eq!(r.u64("generation"), Some(generation));
    assert_eq!(r.u64("rolled_back"), Some(0));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lru_clears_the_coldest_warm_cache_first() {
    let dir = tmp("lru");
    let admission = AdmissionPolicy {
        max_warm_caches: 1,
        ..AdmissionPolicy::default()
    };
    let mut server = Server::open(&dir, admission, WatchdogPolicy::default()).unwrap();
    send(&mut server, &create_line("cold", "adi", 1));
    send(&mut server, &create_line("hot", "atax", 2));
    send(&mut server, r#"{"cmd":"step","session":"cold","n":1}"#);
    send(&mut server, r#"{"cmd":"step","session":"hot","n":1}"#);
    // Both kernels memoized evaluations; only one warm cache is allowed, and
    // "cold" was touched least recently.
    let cold = send(&mut server, r#"{"cmd":"query","session":"cold"}"#);
    let hot = send(&mut server, r#"{"cmd":"query","session":"hot"}"#);
    assert_eq!(cold.u64("cache_bytes"), Some(0), "coldest memo not cleared");
    assert!(hot.u64("cache_bytes").unwrap() > 0, "hottest memo was cleared");
    let stats = send(&mut server, r#"{"cmd":"stats"}"#);
    assert!(stats.u64("cache_evictions").unwrap() >= 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn protocol_and_registry_errors_are_typed() {
    let dir = tmp("errors");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("dup", "adi", 1));
    assert_err(
        &send(&mut server, &create_line("dup", "adi", 1)),
        ErrorKind::SessionExists,
    );
    assert_err(
        &send(&mut server, r#"{"cmd":"step","session":"ghost"}"#),
        ErrorKind::UnknownSession,
    );
    assert_err(&send(&mut server, "not json"), ErrorKind::BadRequest);
    assert_err(
        &send(&mut server, r#"{"cmd":"create","session":"x","target":"nope"}"#),
        ErrorKind::BadRequest,
    );
    // Kill removes the durable directory; the id becomes unknown.
    send(&mut server, r#"{"cmd":"kill","session":"dup"}"#);
    assert!(!dir.join("dup").exists());
    assert_err(
        &send(&mut server, r#"{"cmd":"query","session":"dup"}"#),
        ErrorKind::UnknownSession,
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_reattach_and_suspend_resume_are_bit_identical() {
    let dir = tmp("reattach");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("k1", "adi", 11));
    send(&mut server, &create_line("k2", "kripke", 12));
    send(&mut server, r#"{"cmd":"step","session":"k1","n":2}"#);
    send(&mut server, r#"{"cmd":"step","session":"k2","n":1}"#);
    let d1 = send(&mut server, r#"{"cmd":"query","session":"k1"}"#);
    let d2 = send(&mut server, r#"{"cmd":"query","session":"k2"}"#);
    let (digest1, digest2) = (
        d1.str("digest").unwrap().to_string(),
        d2.str("digest").unwrap().to_string(),
    );
    // Simulate a crash: drop the server (no orderly suspend) and reopen.
    drop(server);
    let mut server = server_at(&dir);
    assert_eq!(server.session_count(), 2);
    assert_eq!(server.session("k1").unwrap().state(), SessionState::Suspended);
    let r1 = send(&mut server, r#"{"cmd":"resume","session":"k1"}"#);
    let r2 = send(&mut server, r#"{"cmd":"resume","session":"k2"}"#);
    assert_eq!(r1.str("digest"), Some(digest1.as_str()));
    assert_eq!(r2.str("digest"), Some(digest2.as_str()));

    // Orderly suspend/resume round-trips too, and the session then runs to
    // done exactly as a never-suspended one would.
    send(&mut server, r#"{"cmd":"suspend","session":"k1"}"#);
    let r = send(&mut server, r#"{"cmd":"resume","session":"k1"}"#);
    assert_eq!(r.str("digest"), Some(digest1.as_str()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_loop_speaks_lines_and_honors_shutdown() {
    let dir = tmp("loop");
    let mut server = server_at(&dir);
    let input = format!(
        "{}\n{}\n{}\n{}\n",
        create_line("s", "adi", 5),
        r#"{"cmd":"step","session":"s"}"#,
        r#"{"cmd":"shutdown"}"#,
        r#"{"cmd":"stats"}"# // after shutdown: must never be answered
    );
    let mut output = Vec::new();
    server.serve(input.as_bytes(), &mut output).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
    assert_eq!(lines.len(), 3, "shutdown must stop the loop");
    for line in &lines {
        let f = parse_object(line).unwrap();
        assert_eq!(f.get("ok"), Some(&pwu_serve::protocol::Value::Bool(true)));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trace_verb_records_exports_and_unifies_stats() {
    let dir = tmp("trace");
    let mut server = server_at(&dir);
    let r = send(&mut server, r#"{"cmd":"trace","action":"start"}"#);
    assert_eq!(r.str("tracing"), Some("on"));
    send(&mut server, &create_line("tr1", "adi", 21));
    send(&mut server, r#"{"cmd":"step","session":"tr1","n":2}"#);

    // Stats folds the registry snapshot into one coherent line: the serve.*
    // mirrors ride along with the per-server fields. Registry counters are
    // process-wide (other tests in this binary add to them), so compare >=.
    let stats = send(&mut server, r#"{"cmd":"stats"}"#);
    assert!(stats.u64("serve.created").unwrap() >= stats.u64("created").unwrap());
    assert!(
        stats.u64("serve.steps_committed").unwrap() >= stats.u64("steps_committed").unwrap()
    );

    // JSONL export: header line plus our session's lifecycle events.
    let out = dir.join("trace.jsonl");
    let line = format!(
        r#"{{"cmd":"trace","action":"export","path":"{}"}}"#,
        out.display()
    );
    let r = send(&mut server, &line);
    assert!(r.u64("events").unwrap() > 0);
    let text = fs::read_to_string(&out).unwrap();
    assert!(text.lines().next().unwrap().contains("pwu-trace-v1"));
    assert!(text.contains("serve.step"), "missing serve.step span");
    assert!(text.contains(r#""session":"tr1""#), "missing session arg");

    // Chrome export of the (now drained, possibly refilled) buffer is a
    // JSON array Perfetto can load.
    send(&mut server, r#"{"cmd":"step","session":"tr1","n":1}"#);
    let out2 = dir.join("trace.chrome.json");
    let line = format!(
        r#"{{"cmd":"trace","action":"export","path":"{}","format":"chrome"}}"#,
        out2.display()
    );
    send(&mut server, &line);
    let chrome = fs::read_to_string(&out2).unwrap();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with("]}"));

    // Bad actions/formats/missing paths are typed protocol errors.
    assert_err(
        &send(&mut server, r#"{"cmd":"trace","action":"export"}"#),
        ErrorKind::BadRequest,
    );
    assert_err(
        &send(&mut server, r#"{"cmd":"trace","action":"pause"}"#),
        ErrorKind::BadRequest,
    );
    let r = send(&mut server, r#"{"cmd":"trace","action":"stop"}"#);
    assert_eq!(r.str("tracing"), Some("off"));
    let _ = fs::remove_dir_all(&dir);
}

/// Satellite regression for the rayon shim's no-nested-pools rule: a
/// `fit_mode:"fast"` session fits its forest on the `PWU_THREADS` pool,
/// and the fleet tick *also* shards sessions over that pool — so at any
/// width above 1 every per-tree fit runs nested inside a pool worker and
/// must degrade to sequential instead of spawning (or deadlocking on) a
/// second thread tier. The fleet must complete and the digests must be
/// bit-identical to a width-1 run.
#[test]
fn fast_fleet_tick_nests_parallel_fits_without_deadlock_and_stays_width_invariant() {
    let fast_create = |id: &str, target: &str, seed: u64| {
        format!(
            r#"{{"cmd":"create","session":"{id}","target":"{target}","seed":{seed},"n_init":4,"n_batch":2,"n_max":10,"repeats":1,"n_trees":8,"eval_every":5,"pool_n":40,"test_n":20,"fit_mode":"fast"}}"#
        )
    };
    let mut digests_by_width: Vec<Vec<String>> = Vec::new();
    for width in [1usize, 4] {
        let dir = tmp(&format!("fast-tick-w{width}"));
        let before = rayon::current_num_threads();
        rayon::set_threads(width);
        let mut server = server_at(&dir);
        for (i, target) in ["adi", "atax", "bicgkernel"].iter().enumerate() {
            let created = send(
                &mut server,
                &fast_create(&format!("f{i}"), target, 300 + i as u64),
            );
            assert_eq!(created.str("fit_mode"), Some("fast"));
        }
        let stats = send(&mut server, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.u64("sessions_fast"), Some(3));
        assert_eq!(stats.u64("sessions_exact"), Some(0));
        for _ in 0..3 {
            let r = send(&mut server, r#"{"cmd":"tick"}"#);
            assert_eq!(r.u64("stepped"), Some(3), "tick stalled at width {width}");
        }
        let digests: Vec<String> = (0..3)
            .map(|i| {
                let q = send(&mut server, &format!(r#"{{"cmd":"query","session":"f{i}"}}"#));
                assert_eq!(q.str("state"), Some("done"));
                q.str("digest").unwrap().to_string()
            })
            .collect();
        rayon::set_threads(before);
        digests_by_width.push(digests);
        let _ = fs::remove_dir_all(&dir);
    }
    assert_eq!(
        digests_by_width[0], digests_by_width[1],
        "fleet digests moved with the pool width"
    );
}

/// A checkpoint written under one fit mode must refuse to resume under the
/// other: the engines are bitwise-different, so continuing would silently
/// fork the trajectory. Simulates an operator flipping a durable session's
/// spec to `fast` (footer recomputed, so the file itself verifies).
#[test]
fn cross_mode_resume_is_refused_with_an_error_naming_the_fit_mode() {
    let dir = tmp("cross-mode");
    let mut server = server_at(&dir);
    send(&mut server, &create_line("x", "adi", 31));
    send(&mut server, r#"{"cmd":"step","session":"x","n":1}"#);
    drop(server);

    let meta = dir.join("x").join("meta.pwu");
    let bytes = fs::read(&meta).unwrap();
    let body = pwu_core::checkpoint::split_verified_body(&bytes).unwrap();
    let flipped = body.replace("fit-mode exact", "fit-mode fast");
    assert_ne!(flipped, body, "spec must have carried the exact token");
    fs::write(
        &meta,
        pwu_core::checkpoint::with_integrity_footer(&flipped),
    )
    .unwrap();

    let mut server = server_at(&dir);
    let q = send(&mut server, r#"{"cmd":"query","session":"x"}"#);
    assert_eq!(q.str("fit_mode"), Some("fast"), "echo must show the flipped mode");
    send(&mut server, r#"{"cmd":"resume","session":"x"}"#);
    let r = send(&mut server, r#"{"cmd":"step","session":"x","n":1}"#);
    assert_err(&r, ErrorKind::Corrupt);
    let message = r.str("message").unwrap();
    assert!(
        message.contains("fit mode") && message.contains("exact") && message.contains("fast"),
        "error must name both fit modes: {message}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tick_advances_the_whole_fleet_deterministically() {
    let dir = tmp("tick");
    let mut server = server_at(&dir);
    for (i, target) in ["adi", "atax", "bicgkernel"].iter().enumerate() {
        send(&mut server, &create_line(&format!("t{i}"), target, 100 + i as u64));
    }
    // Tick the fleet to completion; (n_max - n_init) / n_batch = 3 steps.
    for round in 0..3 {
        let r = send(&mut server, r#"{"cmd":"tick"}"#);
        assert_eq!(r.u64("stepped"), Some(3));
        assert_eq!(r.u64("done"), Some(if round == 2 { 3 } else { 0 }));
    }
    let r = send(&mut server, r#"{"cmd":"tick"}"#);
    assert_eq!(r.u64("stepped"), Some(0));

    // The ticked fleet matches per-session stepping in a fresh server.
    let dir2 = tmp("tick-ref");
    let mut reference = server_at(&dir2);
    for (i, target) in ["adi", "atax", "bicgkernel"].iter().enumerate() {
        send(&mut reference, &create_line(&format!("t{i}"), target, 100 + i as u64));
        send(
            &mut reference,
            &format!(r#"{{"cmd":"step","session":"t{i}","n":3}}"#),
        );
    }
    for i in 0..3 {
        let line = format!(r#"{{"cmd":"query","session":"t{i}"}}"#);
        let ticked = send(&mut server, &line);
        let stepped = send(&mut reference, &line);
        assert_eq!(ticked.str("digest"), stepped.str("digest"), "t{i}");
        assert_eq!(ticked.str("state"), Some("done"));
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}
