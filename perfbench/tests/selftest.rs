//! Self-tests of the benchmark: the accounting identity on a tiny run,
//! the lost-write checker against a fabricated history, and the metric
//! names against `BENCHMARK.json`.

use perfbench::check::{self, WriteFate};
use perfbench::gen::{encode_value, Layer, Outcome, Span, TxnRec};
use perfbench::spec::{self, Arrival, Crashes};
use perfbench::trial;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
        .to_path_buf()
}

/// A traced run checks, for every committed transaction, that its spans
/// add up to its response time exactly; any mismatch is a failure. The
/// open-loop crash path runs too, shrunk to a small table.
#[test]
fn accounting_identity_holds_on_a_tiny_run() {
    let mut small_crash = spec::by_name("crash_recovery").expect("workload exists");
    small_crash.rows = 20_000;
    assert_eq!(small_crash.arrival, Arrival::Open(250.0));
    assert!(matches!(small_crash.crashes, Some(Crashes { .. })));
    for spec in [
        spec::by_name("overload").expect("workload exists"),
        small_crash,
    ] {
        let window = cumulo_sim::SimDuration::from_secs(12);
        let (summary, spans) = trial::run(&spec, 7, 0, window, true);
        assert!(summary.committed > 0, "{}: nothing committed", spec.name);
        assert!(
            !spans.is_empty(),
            "{}: traced run recorded no spans",
            spec.name
        );
        assert_eq!(summary.failed, 0, "{}: {:?}", spec.name, summary.failures);
        let (untraced, none) = trial::run(&spec, 7, 0, window, false);
        assert!(none.is_empty());
        assert_eq!(
            untraced.digest, summary.digest,
            "{}: tracing changed the run",
            spec.name
        );
        assert_eq!(untraced.response_ns, summary.response_ns);
    }
}

fn txn(id: u64, due: u64, end: u64, outcome: Outcome) -> TxnRec {
    TxnRec {
        id,
        due,
        end,
        outcome,
        commit_sent: outcome != Outcome::Errored,
        writes: Vec::new(),
    }
}

#[test]
fn identity_check_flags_a_gap_between_spans() {
    let t = txn(3, 100, 400, Outcome::Committed(cumulo_core::Timestamp(9)));
    let span = |layer, start, end| Span {
        txn: 3,
        layer,
        start,
        end,
    };
    let whole = [
        span(Layer::Begin, 100, 150),
        span(Layer::Get, 150, 390),
        span(Layer::Commit, 390, 400),
    ];
    assert!(check::identity_violations(&[&t], &whole).is_empty());
    let gap = [
        span(Layer::Begin, 100, 150),
        span(Layer::Get, 151, 390),
        span(Layer::Commit, 390, 400),
    ];
    assert_eq!(check::identity_violations(&[&t], &gap), vec![(3, 300, 299)]);
}

/// Mutation test: a fabricated acknowledged write that is missing from
/// the store must be reported, naming its key and its transaction.
#[test]
fn lost_acknowledged_write_is_named() {
    let acked = |ts| WriteFate::Acked(ts);
    let mut history = check::History::new();
    history.insert(7, vec![(41, acked(10)), (42, acked(20))]);
    history.insert(8, vec![(42, acked(20)), (43, WriteFate::Unknown)]);
    history.insert(9, vec![(44, WriteFate::Absent)]);
    let value = |txn, row| Some(encode_value(txn, row).to_vec());
    let initial = Some(vec![0x61; spec::VALUE_LEN]);

    // The correct outcome: newest acknowledged write on 7, a possibly
    // newer unknown-outcome write on 8, the initial value on 9.
    let mut finals = BTreeMap::from([(7, value(42, 7)), (8, value(43, 8)), (9, initial.clone())]);
    assert!(check::lost_writes(&history, &finals).is_empty());

    // Mutation: row 7 lost txn 42's acknowledged write.
    finals.insert(7, initial);
    let v = check::lost_writes(&history, &finals);
    assert_eq!(v.len(), 1);
    assert!(v[0].is_acked_lost());
    assert_eq!(v[0].key, "user000000000007");
    assert_eq!(v[0].expected_txn, Some(42));
    let msg = v[0].to_string();
    assert!(
        msg.contains("user000000000007") && msg.contains("txn 42"),
        "{msg}"
    );

    // An older acknowledged write showing is a lost write too, and an
    // aborted write showing is a violation of its own.
    finals.insert(7, value(41, 7));
    finals.insert(9, value(44, 9));
    let v = check::lost_writes(&history, &finals);
    assert_eq!(v.len(), 2);
    assert_eq!(
        (v[0].key.as_str(), v[0].expected_txn),
        ("user000000000007", Some(42))
    );
    assert_eq!(
        (v[1].key.as_str(), v[1].expected_txn),
        ("user000000000009", None)
    );
}

/// The names listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Every metric the command prints has a well-formed name listed in
/// `BENCHMARK.json`, and the JSON line carries exactly the declared set.
#[test]
fn printed_metric_names_are_declared() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    assert!(e2e.contains(&"setup_s".to_owned()));
    for (trace, want) in [("0", &e2e), ("1", &layer)] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "overload",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .current_dir(repo_root())
            .output()
            .expect("benchmark runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for l in stdout.lines() {
            let mut f = l.split_whitespace();
            if let (Some("sim" | "host"), Some(name)) = (f.next(), f.next()) {
                assert!(valid_name(name), "malformed metric name {name:?}");
                assert!(
                    e2e.iter().chain(&layer).any(|n| n == name),
                    "{name} is not in BENCHMARK.json"
                );
            }
        }
        let json = stdout.lines().last().expect("a result line");
        assert!(json.starts_with("{\"correct\": true"), "{json}");
        let metrics = &json[json.find("\"metrics\"").expect("metrics key")..];
        let reported: Vec<String> = metrics
            .match_indices("\": {\"value\"")
            .map(|(i, _)| {
                let open = metrics[..i].rfind('"').expect("name opens");
                metrics[open + 1..i].to_owned()
            })
            .collect();
        assert_eq!(&reported, want, "trace {trace}");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--seed", "x"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(repo_root())
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn summary_survives_the_trip_between_processes() {
    let s = perfbench::summary::Summary {
        window_ns: 6_000_000_000,
        attempted: 12,
        committed: 11,
        response_ns: vec![5, 7, 11],
        episode: Some(trial::Episode {
            detect_ns: Some(1_660_000_000),
            recovery_ns: None,
            ..Default::default()
        }),
        span_ns: BTreeMap::from([(Layer::Begin, vec![1, 2]), (Layer::Scan, vec![])]),
        cache_hit_rate: 0.1 + 0.2,
        peak_rss_mb: 287.41796875,
        failures: vec!["user000000000007: acknowledged write of txn 42 lost".to_owned()],
        digest: u64::MAX - 1,
        ..Default::default()
    };
    assert_eq!(perfbench::summary::Summary::decode(&s.encode()), Ok(s));
}
