//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Runs [`TRIALS`] trials, each in a child process of its own on a fresh
//! cluster seeded from `--seed` and the trial index, and pools them.
//! With `--trace 0` the JSON line carries the end-to-end metrics; with
//! `--trace 1` the trials are traced, trial 0 also runs untraced and must
//! have the same simulated history, and the JSON line carries the
//! per-layer metrics. Exits non-zero without a result on bad
//! arguments or a crashed trial, and with `"correct": false` when a
//! correctness check fails.

use perfbench::gen::Span;
use perfbench::metrics::{self, Clock, Metric};
use perfbench::summary::Summary;
use perfbench::{spec, trial};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Trials per run: every run pools this many cluster seeds, and the
/// host-clock metrics are medians of the trials' figures — on a shared
/// host a single trial's speed varies by a tenth or more.
const TRIALS: u64 = 5;

/// The end-to-end metrics of the JSON line, in `BENCHMARK.json` order.
const END_TO_END: &[&str] = &[
    "commit_tps",
    "txn_p50_ms",
    "txn_p99_ms",
    "setup_s",
    "host_us_per_commit",
    "peak_rss_mb",
];

/// Where a traced run writes the first trial's spans, relative to the
/// working directory.
const SPAN_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run only this trial and print its summary.
    trial: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trial) =
        (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => trace = Some(num()? != 0),
            "--trial" => trial = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trial,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::by_name(&args.workload) else {
        let names: Vec<_> = spec::all().iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let window = spec.window(args.seconds);
    if let Some(t) = args.trial {
        let (summary, spans) = trial::run(&spec, args.seed, t, window, args.trace);
        eprintln!(
            "[perfbench] trial {t}{}: set up in {:.3} s, window simulated in {:.3} s, {} commits",
            if args.trace { " (traced)" } else { "" },
            summary.setup_host_ns as f64 / 1e9,
            summary.window_host_ns as f64 / 1e9,
            summary.committed,
        );
        if args.trace && t == 0 {
            if let Err(e) = write_spans(spec.name, &spans) {
                eprintln!("perfbench: could not write spans: {e}");
            }
        }
        print!("{}", summary.encode());
        return ExitCode::SUCCESS;
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} trials={TRIALS} window_s={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        window.as_secs_f64()
    );
    let mut trials = Vec::new();
    for t in 0..TRIALS {
        match run_child(&args, t, args.trace) {
            Ok(s) => trials.push(s),
            Err(e) => {
                eprintln!("perfbench: trial {t} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // A traced run also runs trial 0 untraced: the two must have the
    // same simulated history, and their host times give the overhead.
    let twin = if args.trace {
        match run_child(&args, 0, false) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("perfbench: untraced trial 0 failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0;
    for (i, t) in trials.iter().chain(&twin).enumerate() {
        failed += t.failed;
        failures.extend(
            t.failures
                .iter()
                .map(|f| format!("trial {}: {f}", i as u64 % TRIALS)),
        );
    }
    let sim = metrics::sim_end_to_end(&trials);
    let lines = |ms: &[Metric]| ms.iter().map(metrics::line).collect::<Vec<_>>();
    if let Some(u) = &twin {
        let traced = std::slice::from_ref(&trials[0]);
        let untraced = std::slice::from_ref(u);
        if u.digest != trials[0].digest
            || lines(&metrics::sim_end_to_end(traced)) != lines(&metrics::sim_end_to_end(untraced))
        {
            failed += 1;
            failures.push("trial 0: tracing changed the simulated history".to_owned());
        }
    }
    let (host, layer) = match &twin {
        Some(u) => (Vec::new(), metrics::per_layer(&trials, u)),
        None => (
            metrics::host_end_to_end(&trials),
            metrics::outcomes(&trials),
        ),
    };

    let mut out = std::io::stdout().lock();
    let by_clock = |c: Clock| {
        sim.iter()
            .chain(&host)
            .chain(&layer)
            .filter(move |x| x.clock == c)
    };
    for x in by_clock(Clock::Sim).chain(by_clock(Clock::Host)) {
        let _ = writeln!(out, "{}", metrics::line(x));
    }
    for f in failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    let rows: u64 = trials.iter().map(|t| t.rows_checked).sum();
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    let _ = writeln!(out, "check rows_checked={rows} failed={failed} {verdict}");
    let reported: Vec<Metric> = if args.trace {
        layer
    } else {
        END_TO_END
            .iter()
            .filter_map(|n| sim.iter().chain(&host).find(|x| x.name == *n).cloned())
            .collect()
    };
    let attempted: u64 = trials.iter().map(|t| t.attempted).sum();
    let _ = writeln!(
        out,
        "{}",
        metrics::json(failed == 0, attempted, failed, &reported)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs trial `t` in a child process and parses its summary.
fn run_child(args: &Args, t: u64, traced: bool) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--trial", &t.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    Summary::decode(&String::from_utf8_lossy(&output.stdout))
}

/// Writes one trial's spans as TSV: txn, layer, start ns, end ns.
fn write_spans(workload: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/spans-{workload}.tsv");
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "txn\tlayer\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}", s.txn, s.layer.name(), s.start, s.end)?;
    }
    w.flush()
}
